//! Deterministic fault injection for simulated drives.
//!
//! The failover and migration test suites need drives that misbehave in
//! controlled, reproducible ways. A [`FaultPlan`] configures three
//! orthogonal fault classes, all driven by one seeded generator so a test
//! run is a pure function of its seed:
//!
//! * **Errors** — with probability `error_rate` a request is dropped
//!   *before* execution and answered with
//!   [`KineticError::DriveUnavailable`], modelling a transient transport or
//!   SoC failure. The engine state is untouched.
//! * **Torn replies** — with probability `torn_reply_rate` a request is
//!   executed *and then* answered with an error, modelling a reply lost on
//!   the wire after the drive applied the operation. This is the nasty
//!   case: the caller cannot distinguish it from a dropped request, so
//!   every recovery path must tolerate "failed" operations that actually
//!   happened.
//! * **Latency** — every exchange can be charged a fixed service delay,
//!   modelling a degraded or overloaded drive. The drive sleeps it per
//!   exchange, outside the injector's lock, so concurrent exchanges are
//!   each delayed rather than queued behind one another.
//!
//! Beside the plan, a test can hold a drive's exchanges at an
//! [`ExchangeGate`] (`KineticDrive::hold_exchanges`): each waits there,
//! after its fault draw and before it runs, until the gate opens, and the
//! gate counts the exchanges it holds — so a test knows that work has
//! entered the drive without timing it.
//!
//! The injector sits at the drive's authenticated-frame entry points, after
//! the online check and before account lookup, so it covers every operation
//! the controller can issue (data path, range scans, export/import reads,
//! admin traffic) through one choke point.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for injected faults on one drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's generator; equal seeds give equal fault
    /// sequences.
    pub seed: u64,
    /// Probability in `[0, 1]` that a request fails before execution.
    pub error_rate: f64,
    /// Probability in `[0, 1]` that a request executes but its reply is
    /// replaced with an error (a torn reply).
    pub torn_reply_rate: f64,
    /// Extra service latency charged to every request while the plan is
    /// active.
    pub latency: Option<Duration>,
}

impl FaultPlan {
    /// A plan that only drops requests, with the given probability.
    pub fn errors(seed: u64, error_rate: f64) -> Self {
        FaultPlan {
            seed,
            error_rate,
            torn_reply_rate: 0.0,
            latency: None,
        }
    }

    /// A plan that only tears replies, with the given probability.
    pub fn torn_replies(seed: u64, torn_reply_rate: f64) -> Self {
        FaultPlan {
            seed,
            error_rate: 0.0,
            torn_reply_rate,
            latency: None,
        }
    }
}

/// The outcome of one injection decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Execute the request normally.
    Pass,
    /// Fail the request without executing it.
    DropRequest,
    /// Execute the request, then report an error to the caller.
    TearReply,
}

/// A seeded fault source attached to a drive. Plain state: the drive's
/// `DRIVE_FAULT` mutex around it is what serialises draws and counts.
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    injected: FaultCounts,
    gate: Option<Arc<ExchangeGate>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("injected", &self.injected)
            .finish()
    }
}

/// How many faults of each class an injector has produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Requests dropped before execution.
    pub dropped: u64,
    /// Replies torn after execution.
    pub torn: u64,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(plan.seed),
            injected: FaultCounts::default(),
            plan,
            gate: None,
        }
    }

    /// Holds every later exchange at `gate` until it opens.
    pub fn hold(&mut self, gate: Arc<ExchangeGate>) {
        self.gate = Some(gate);
    }

    /// The gate exchanges wait at, if one is attached.
    pub fn gate(&self) -> Option<Arc<ExchangeGate>> {
        self.gate.clone()
    }

    /// The active plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Counters for the faults produced so far.
    pub fn counts(&self) -> FaultCounts {
        self.injected
    }

    /// Draws and counts the next injection decision. Decisions consume the
    /// generator in a fixed order (drop first, then tear), so a plan's
    /// fault sequence is reproducible whatever the rates are. Charging the
    /// plan's latency is the caller's job, once it no longer holds the
    /// lock this injector sits behind.
    pub fn decide(&mut self) -> FaultDecision {
        let plan = self.plan;
        let drop = plan.error_rate > 0.0 && self.rng.gen_bool(plan.error_rate);
        let tear = plan.torn_reply_rate > 0.0 && self.rng.gen_bool(plan.torn_reply_rate);
        if drop {
            self.injected.dropped += 1;
            FaultDecision::DropRequest
        } else if tear {
            self.injected.torn += 1;
            FaultDecision::TearReply
        } else {
            FaultDecision::Pass
        }
    }
}

/// Holds a drive's exchanges until it opens, counting those it holds
/// (module docs). A new gate is closed.
#[derive(Default)]
pub struct ExchangeGate {
    /// Exchanges waiting, and whether the gate is open.
    state: Mutex<(usize, bool)>,
    opened: Condvar,
}

impl ExchangeGate {
    /// Exchanges waiting at the gate.
    pub fn waiting(&self) -> usize {
        self.state.lock().0
    }

    /// Opens the gate for good: the exchanges it holds, and later ones,
    /// run.
    pub fn open(&self) {
        self.state.lock().1 = true;
        self.opened.notify_all();
    }

    /// Waits until the gate is open.
    pub fn pass(&self) {
        let mut state = self.state.lock();
        state.0 += 1;
        while !state.1 {
            self.opened.wait(&mut state);
        }
        state.0 -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan {
            seed: 7,
            error_rate: 0.3,
            torn_reply_rate: 0.2,
            latency: None,
        };
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        let da: Vec<_> = (0..64).map(|_| a.decide()).collect();
        let db: Vec<_> = (0..64).map(|_| b.decide()).collect();
        assert_eq!(da, db);
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn zero_rates_always_pass() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 1,
            error_rate: 0.0,
            torn_reply_rate: 0.0,
            latency: None,
        });
        for _ in 0..32 {
            assert_eq!(inj.decide(), FaultDecision::Pass);
        }
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn rates_produce_both_fault_classes() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 42,
            error_rate: 0.4,
            torn_reply_rate: 0.4,
            latency: None,
        });
        for _ in 0..256 {
            inj.decide();
        }
        let counts = inj.counts();
        assert!(counts.dropped > 0, "expected dropped requests");
        assert!(counts.torn > 0, "expected torn replies");
    }

    #[test]
    fn latency_is_charged() {
        // Per exchange, by the drive the plan is attached to, and slept
        // after the fault lock is released: four exchanges started together
        // each pay 30 ms, not 30, 60, 90 and 120.
        use crate::{Command, DriveConfig, Envelope, KineticDrive, MessageType, StatusCode};
        let latency = Duration::from_millis(30);
        let drive = KineticDrive::new(DriveConfig::simulator("kd-slow"));
        drive.inject_faults(FaultPlan {
            seed: 3,
            error_rate: 0.0,
            torn_reply_rate: 0.0,
            latency: Some(latency),
        });
        let key = pesos_crypto::hmac::HmacKey::new(b"asdfasdf");
        let start_line = std::sync::Barrier::new(4);
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start_line.wait();
                    let noop = Command::request(MessageType::Noop);
                    let resp = drive.handle_envelope(&Envelope::seal_vectored(1, &key, noop));
                    assert_eq!(resp.command().status.code, StatusCode::Success);
                });
            }
        });
        let elapsed = start.elapsed();
        assert!(elapsed >= latency, "latency not charged: {elapsed:?}");
        assert!(
            elapsed < latency * 3,
            "four concurrent exchanges took {elapsed:?}: serialised behind one sleeper"
        );
    }
}
