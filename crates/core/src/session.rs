//! Client session management.
//!
//! When a new client connects (as determined by its certificate), the
//! controller creates a session context holding per-client soft state such
//! as asynchronous-request bookkeeping and policy-related metadata. The
//! session survives a disconnect and expires only after a grace period; a
//! reconnecting client with the same certificate reuses it (paper §3.1).

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::sharded::Sharded;

/// Per-client soft state.
#[derive(Debug, Clone)]
pub struct SessionContext {
    /// Stable client identity (certificate fingerprint or subject).
    pub client_id: String,
    /// Human-readable subject from the certificate.
    pub subject: String,
    /// Logical time the session was created.
    pub created_at: u64,
    /// Logical time of the last request.
    pub last_active: u64,
    /// Number of requests served in this session.
    pub requests: u64,
    /// Freshness nonce most recently issued to this client for time
    /// certificates.
    pub issued_nonce: Option<Vec<u8>>,
}

/// Manages session contexts keyed by client identity.
///
/// The map is split over N independently locked shards (the same generic
/// [`Sharded`] container as the metadata map and object cache) because
/// every single request calls [`SessionManager::touch`]: one global mutex
/// here serialized otherwise disjoint sessions. Client identities are not
/// placement keys, so shard selection uses the `str` shard-index function —
/// the standard library hasher, no SHA-256 on this path.
pub struct SessionManager {
    expiry_secs: u64,
    shards: Sharded<Mutex<HashMap<String, SessionContext>>>,
}

impl SessionManager {
    /// Creates a single-shard manager whose sessions expire `expiry_secs`
    /// after their last activity.
    pub fn new(expiry_secs: u64) -> Self {
        SessionManager::with_shards(expiry_secs, 1)
    }

    /// Creates a manager whose session map is split over `shards` lock
    /// shards (at least one).
    pub fn with_shards(expiry_secs: u64, shards: usize) -> Self {
        SessionManager {
            expiry_secs,
            shards: Sharded::new_indexed(shards, |i| {
                Mutex::with_rank_indexed(parking_lot::lock_order::SESSION_SHARD, i, HashMap::new())
            }),
        }
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    fn shard(&self, client_id: &str) -> &Mutex<HashMap<String, SessionContext>> {
        self.shards.get(client_id)
    }

    /// Returns the existing session for `client_id` or creates one.
    pub fn connect(&self, client_id: &str, subject: &str, now: u64) -> SessionContext {
        let mut sessions = self.shard(client_id).lock();
        let entry = sessions
            .entry(client_id.to_string())
            .or_insert_with(|| SessionContext {
                client_id: client_id.to_string(),
                subject: subject.to_string(),
                created_at: now,
                last_active: now,
                requests: 0,
                issued_nonce: None,
            });
        entry.last_active = now;
        entry.clone()
    }

    /// Records a request for `client_id`, returning false if no session
    /// exists (the caller should re-authenticate the client).
    pub fn touch(&self, client_id: &str, now: u64) -> bool {
        let mut sessions = self.shard(client_id).lock();
        match sessions.get_mut(client_id) {
            Some(s) => {
                s.last_active = now;
                s.requests += 1;
                true
            }
            None => false,
        }
    }

    /// Issues and remembers a freshness nonce for `client_id`.
    pub fn issue_nonce(&self, client_id: &str, nonce: Vec<u8>) -> bool {
        let mut sessions = self.shard(client_id).lock();
        match sessions.get_mut(client_id) {
            Some(s) => {
                s.issued_nonce = Some(nonce);
                true
            }
            None => false,
        }
    }

    /// Returns the session for `client_id`, if present.
    pub fn get(&self, client_id: &str) -> Option<SessionContext> {
        self.shard(client_id).lock().get(client_id).cloned()
    }

    /// The freshness nonce most recently issued to `client_id`, if any
    /// (nothing else of the session is copied).
    pub fn issued_nonce(&self, client_id: &str) -> Option<Vec<u8>> {
        let sessions = self.shard(client_id).lock();
        sessions.get(client_id)?.issued_nonce.clone()
    }

    /// Whether a session exists for `client_id` (no clone, no touch).
    pub fn contains(&self, client_id: &str) -> bool {
        self.shard(client_id).lock().contains_key(client_id)
    }

    /// Drops sessions idle past the expiry window; returns how many expired.
    pub fn expire(&self, now: u64) -> usize {
        let mut expired = 0;
        for shard in self.shards.iter() {
            let mut sessions = shard.lock();
            let before = sessions.len();
            sessions.retain(|_, s| now.saturating_sub(s.last_active) <= self.expiry_secs);
            expired += before - sessions.len();
        }
        expired
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if there are no live sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_creates_and_reuses_sessions() {
        let mgr = SessionManager::new(100);
        let s1 = mgr.connect("fp-1", "client:alice", 10);
        assert_eq!(s1.created_at, 10);
        // Reconnecting reuses the context (created_at unchanged).
        let s2 = mgr.connect("fp-1", "client:alice", 50);
        assert_eq!(s2.created_at, 10);
        assert_eq!(s2.last_active, 50);
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn touch_and_nonce_require_session() {
        let mgr = SessionManager::new(100);
        assert!(!mgr.touch("missing", 0));
        assert!(!mgr.issue_nonce("missing", vec![1]));
        mgr.connect("fp", "c", 0);
        assert!(mgr.touch("fp", 5));
        assert!(mgr.issue_nonce("fp", vec![1, 2]));
        let s = mgr.get("fp").unwrap();
        assert_eq!(s.requests, 1);
        assert_eq!(s.issued_nonce, Some(vec![1, 2]));
    }

    #[test]
    fn sharded_manager_keeps_per_client_semantics() {
        let mgr = SessionManager::with_shards(60, 8);
        assert_eq!(mgr.shard_count(), 8);
        for i in 0..100 {
            mgr.connect(&format!("client-{i}"), "subject", i);
        }
        assert_eq!(mgr.len(), 100);
        for i in 0..100 {
            let id = format!("client-{i}");
            assert!(mgr.touch(&id, i + 1));
            assert!(mgr.issue_nonce(&id, vec![i as u8]));
            let s = mgr.get(&id).unwrap();
            assert_eq!(s.requests, 1);
            assert_eq!(s.issued_nonce, Some(vec![i as u8]));
        }
        // Expiry sweeps every shard: clients idle past the window (last
        // active at i+1, so those with i+1 < 40 at now=100) go, the rest
        // stay.
        assert_eq!(mgr.expire(100), 39);
        assert_eq!(mgr.len(), 61);
        // Concurrent touches on disjoint clients are safe.
        let mgr = std::sync::Arc::new(SessionManager::with_shards(60, 8));
        for i in 0..8 {
            mgr.connect(&format!("t-{i}"), "s", 0);
        }
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let mgr = std::sync::Arc::clone(&mgr);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert!(mgr.touch(&format!("t-{i}"), 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8 {
            assert_eq!(mgr.get(&format!("t-{i}")).unwrap().requests, 100);
        }
    }

    #[test]
    fn sessions_expire_after_idle_period() {
        let mgr = SessionManager::new(60);
        mgr.connect("a", "a", 0);
        mgr.connect("b", "b", 100);
        // At t=100, "a" has been idle 100 > 60 seconds.
        assert_eq!(mgr.expire(100), 1);
        assert!(mgr.get("a").is_none());
        assert!(mgr.get("b").is_some());
        // A session persists past disconnect until expiry (paper §3.1).
        assert_eq!(mgr.expire(120), 0);
        assert_eq!(mgr.expire(200), 1);
        assert!(mgr.is_empty());
    }
}
