//! A named set of Kinetic drives assigned to one Pesos controller.
//!
//! The paper's controller uses a static configuration of drives (dynamic
//! membership via consistent hashing is listed as future work); the
//! [`DriveSet`] mirrors that: an ordered list of drives addressable by index
//! (for the replication placement function) and by identifier.

use std::sync::Arc;

use crate::drive::KineticDrive;

/// An ordered collection of drives.
#[derive(Clone, Default)]
pub struct DriveSet {
    drives: Vec<Arc<KineticDrive>>,
}

impl DriveSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        DriveSet { drives: Vec::new() }
    }

    /// Creates a set from existing drives.
    pub fn from_drives(drives: Vec<Arc<KineticDrive>>) -> Self {
        DriveSet { drives }
    }

    /// Adds a drive to the end of the ordered list.
    pub fn add(&mut self, drive: Arc<KineticDrive>) {
        self.drives.push(drive);
    }

    /// Number of drives.
    pub fn len(&self) -> usize {
        self.drives.len()
    }

    /// True if the set holds no drives.
    pub fn is_empty(&self) -> bool {
        self.drives.is_empty()
    }

    /// Returns the drive at `index`.
    pub fn get(&self, index: usize) -> Option<&Arc<KineticDrive>> {
        self.drives.get(index)
    }

    /// Looks a drive up by identifier.
    pub fn by_id(&self, id: &str) -> Option<&Arc<KineticDrive>> {
        self.drives.iter().find(|d| d.id() == id)
    }

    /// Iterates over the drives in configuration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<KineticDrive>> {
        self.drives.iter()
    }

    /// Identifiers of all drives, in order.
    pub fn ids(&self) -> Vec<String> {
        self.drives.iter().map(|d| d.id().to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveConfig;

    fn set(n: usize) -> DriveSet {
        let drives = (0..n)
            .map(|i| {
                Arc::new(KineticDrive::new(DriveConfig::simulator(format!(
                    "kd-{i:02}"
                ))))
            })
            .collect();
        DriveSet::from_drives(drives)
    }

    #[test]
    fn construction_and_lookup() {
        let mut s = set(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.get(1).unwrap().id(), "kd-01");
        assert!(s.by_id("kd-02").is_some());
        assert!(s.by_id("missing").is_none());
        assert_eq!(s.ids(), vec!["kd-00", "kd-01", "kd-02"]);

        s.add(Arc::new(KineticDrive::new(DriveConfig::simulator("kd-99"))));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn online_tracking() {
        let s = set(3);
        let online = || s.iter().map(|d| d.is_online()).collect::<Vec<_>>();
        assert_eq!(online(), [true, true, true]);
        s.get(1).unwrap().set_online(false);
        assert_eq!(online(), [true, false, true]);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = DriveSet::new();
        assert!(s.is_empty());
        assert!(s.get(0).is_none());
        assert_eq!(s.iter().count(), 0);
    }
}
