//! Client session management.
//!
//! When a new client connects (as determined by its certificate), the
//! controller creates a session context holding per-client soft state such
//! as asynchronous-request bookkeeping and policy-related metadata. The
//! session survives a disconnect and expires only after a grace period; a
//! reconnecting client with the same certificate reuses it (paper §3.1).
//!
//! A deployment keeps its clients' state once ([`ClientState`]): a single
//! controller builds its own; a cluster builds one that every controller
//! it runs holds, so a client registered once is known to every
//! partition, and an operation id any of them issued polls through the
//! cluster.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::result_buffer::ResultBuffer;
use crate::sharded::Sharded;

/// Asynchronous results a deployment retains (paper: 2048).
const RESULT_BUFFER_CAPACITY: usize = 2048;
/// Session soft-state expiry in seconds.
const SESSION_EXPIRY_SECS: u64 = 600;

/// What a deployment keeps of its clients (module docs): their sessions,
/// the results of their asynchronous operations, the logical clock
/// (seconds) that ages the sessions and that time-based policies read, and
/// the switch for per-operation latency recording.
pub struct ClientState {
    /// The session table.
    pub sessions: SessionManager,
    /// The async result buffer.
    pub results: ResultBuffer,
    clock: AtomicU64,
    /// On from the start; in-flight timers finish under the setting they
    /// started with.
    telemetry: AtomicBool,
}

impl ClientState {
    /// No sessions and no results, each over `lock_shards` lock shards, at
    /// time 1, recording.
    pub fn new(lock_shards: usize) -> Self {
        ClientState {
            sessions: SessionManager::with_shards(SESSION_EXPIRY_SECS, lock_shards),
            results: ResultBuffer::new(lock_shards, RESULT_BUFFER_CAPACITY),
            clock: AtomicU64::new(1),
            telemetry: AtomicBool::new(true),
        }
    }

    /// Opens (or reuses) `client_id`'s session now.
    pub fn connect(&self, client_id: &str, subject: &str) {
        self.sessions.connect(client_id, subject, self.now());
    }

    /// Drops the sessions idle past the expiry window now; returns how
    /// many expired.
    pub fn expire(&self) -> usize {
        self.sessions.expire(self.now())
    }

    /// Sets the logical time.
    pub fn set_time(&self, now: u64) {
        self.clock.store(now, Ordering::SeqCst);
    }

    /// The logical time.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Whether per-operation latency recording is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.load(Ordering::Relaxed)
    }

    /// Switches per-operation latency recording on or off.
    pub fn set_telemetry_enabled(&self, on: bool) {
        self.telemetry.store(on, Ordering::Relaxed);
    }
}

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

    /// Records a request for `client_id` and returns the freshness nonce
    /// last issued to it (`Some(None)`: none), or `None` if no session
    /// exists (the caller should re-authenticate the client).
    pub fn touch(&self, client_id: &str, now: u64) -> Option<Option<Vec<u8>>> {
        let mut sessions = self.shard(client_id).lock();
        let s = sessions.get_mut(client_id)?;
        s.last_active = now;
        s.requests += 1;
        Some(s.issued_nonce.clone())
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
        assert!(mgr.touch("missing", 0).is_none());
        assert!(!mgr.issue_nonce("missing", vec![1]));
        mgr.connect("fp", "c", 0);
        assert_eq!(mgr.touch("fp", 5), Some(None));
        assert!(mgr.issue_nonce("fp", vec![1, 2]));
        assert_eq!(mgr.touch("fp", 6), Some(Some(vec![1, 2])));
        let s = mgr.get("fp").unwrap();
        assert_eq!(s.requests, 2);
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
            assert!(mgr.touch(&id, i + 1).is_some());
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
                        assert!(mgr.touch(&format!("t-{i}"), 1).is_some());
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
    fn client_state_ages_sessions_on_its_own_clock() {
        let clients = ClientState::new(4);
        clients.set_time(10);
        clients.connect("alice", "alice");
        assert_eq!(clients.sessions.get("alice").unwrap().created_at, 10);
        clients.set_time(10 + SESSION_EXPIRY_SECS);
        assert_eq!(clients.expire(), 0);
        clients.set_time(11 + SESSION_EXPIRY_SECS);
        assert_eq!(clients.expire(), 1);
        assert!(!clients.sessions.contains("alice"));
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
