//! The caller's lanes: the first call of a joined submission runs on its
//! caller, charged as one enclave transition, however busy or idle the
//! pool is; the caller runs the lanes no service thread has taken before it
//! parks; a call whose set is joined later still waits for the pool.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use pesos_sgx::asyscall::AsyscallInterface;
use pesos_sgx::cost::ModeCost;
use pesos_sgx::{ExecutionMode, SgxCostModel, SgxError};

/// What one enclave exit costs in these tests: long enough that charging
/// it shows in a call's duration, and nothing else is charged.
const TRANSITION: Duration = Duration::from_millis(30);

fn interface(threads: usize) -> AsyscallInterface {
    let model = SgxCostModel {
        transition_ns: TRANSITION.as_nanos() as u64,
        ..SgxCostModel::zero()
    };
    AsyscallInterface::new(threads, 8, ModeCost::new(ExecutionMode::Sgx, model))
}

/// A body that announces it is running and then blocks until released.
fn blocker(started: Sender<()>, release: Receiver<()>) -> impl FnOnce() -> u32 + Send + 'static {
    move || {
        let _ = started.send(());
        let _ = release.recv();
        7
    }
}

/// An interface whose only service thread is inside a body that runs until
/// the returned sender is used (or dropped).
fn with_its_only_thread_blocked() -> (AsyscallInterface, Sender<()>, impl FnOnce() -> u32) {
    let iface = interface(1);
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel();
    let running = iface
        .submit_batch([blocker(started_tx, release_rx)])
        .unwrap();
    started_rx.recv().unwrap();
    let finish = move || {
        let (_, result) = { running }.next_completed().expect("one call");
        result.unwrap()
    };
    (iface, release_tx, finish)
}

fn this_thread() -> ThreadId {
    std::thread::current().id()
}

/// The tests share the host's cores and time calls: one at a time, each
/// under a watchdog, so a call that waits for a thread that never comes
/// fails instead of hanging.
fn alone(work: impl FnOnce() + Send + 'static) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (done_tx, done_rx) = channel();
    let worker = std::thread::spawn(move || {
        work();
        let _ = done_tx.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(60)) {
        panic!("a call did not complete within 60 s");
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn a_joined_call_nobody_is_free_to_take_runs_on_its_caller() {
    alone(|| {
        let (iface, release, finish) = with_its_only_thread_blocked();
        let before = iface.stats();
        let start = Instant::now();
        let ran_on = iface
            .submit_joined([this_thread])
            .unwrap()
            .wait_single()
            .unwrap();
        let took = start.elapsed();
        let after = iface.stats();
        assert_eq!(ran_on, this_thread(), "the call was handed over");
        assert_eq!(after.exits, before.exits + 1);
        assert_eq!(after.submitted, before.submitted, "an exit is no hand-off");
        assert_eq!(after.parks, before.parks, "the caller slept");
        assert!(took >= TRANSITION, "no transition charged: {took:?}");

        release.send(()).unwrap();
        assert_eq!(finish(), 7);
    });
}

#[test]
fn a_set_joined_later_still_runs_on_the_pool() {
    alone(|| {
        let (iface, release, finish) = with_its_only_thread_blocked();
        let before = iface.stats();
        let pending = iface.submit_batch([this_thread]).unwrap();
        // The caller overlaps its own work with the call, which waits for
        // the one service thread.
        let caller = this_thread();
        release.send(()).unwrap();
        assert_eq!(finish(), 7);
        let ran_on = pending.wait_single().unwrap();
        assert_ne!(ran_on, caller, "a call joined later ran on its caller");
        let after = iface.stats();
        assert_eq!(after.exits, before.exits);
        assert_eq!(after.submitted, before.submitted + 1);
    });
}

#[test]
fn a_panic_on_the_caller_abandons_the_call_and_spares_the_thread() {
    alone(|| {
        let (iface, release, finish) = with_its_only_thread_blocked();
        let before = iface.stats().exits;
        let boom = iface
            .submit_joined([|| -> u32 { panic!("boom") }])
            .unwrap()
            .wait_single();
        assert_eq!(boom, Err(SgxError::SyscallInterfaceClosed));
        // The same thread exits again.
        let again = iface.submit_joined([this_thread]).unwrap().wait_single();
        assert_eq!(again, Ok(this_thread()));
        assert_eq!(iface.stats().exits, before + 2);

        // Once the service thread is back, every lane of a batch lands.
        release.send(()).unwrap();
        assert_eq!(finish(), 7);
        let set = iface
            .submit_joined((0..3u32).map(|k| move || k * 2))
            .unwrap();
        assert_eq!(set.join().unwrap(), vec![0, 2, 4]);
    });
}

#[test]
fn a_joined_call_with_every_service_thread_asleep_runs_on_its_caller() {
    alone(|| {
        let iface = interface(2);
        // Both threads start awake, find nothing and go to sleep.
        let deadline = Instant::now() + Duration::from_secs(5);
        while iface.pool().stats().parks < 2 {
            assert!(Instant::now() < deadline, "the service threads never slept");
            std::thread::sleep(Duration::from_millis(1));
        }
        let ran_on = iface
            .submit_joined([this_thread])
            .unwrap()
            .wait_single()
            .unwrap();
        assert_eq!(ran_on, this_thread());
        assert_eq!(iface.stats().exits, 1);
        // A set the caller overlaps with is handed over all the same.
        let pending = iface.submit_batch([this_thread]).unwrap();
        assert_ne!(pending.wait_single().unwrap(), this_thread());
    });
}

#[test]
fn a_body_on_a_caller_holding_a_key_lock_takes_drive_locks_in_rank_order() {
    alone(|| {
        use parking_lot::lock_order::{DRIVE_ENGINE, DRIVE_FAULT, KEY_LOCK};
        let (iface, release, finish) = with_its_only_thread_blocked();
        let key_lock = parking_lot::Mutex::with_rank(KEY_LOCK, ());
        let drive = Arc::new((
            parking_lot::Mutex::with_rank(DRIVE_FAULT, ()),
            parking_lot::Mutex::with_rank(DRIVE_ENGINE, 0u64),
        ));
        let held = key_lock.lock();
        let body_drive = Arc::clone(&drive);
        let ran_on = iface
            .submit_joined([move || {
                // A drive exchange's locks, one at a time, as the drive
                // takes them; under `lock_order` each is checked against
                // the caller's held stack, which holds the key lock.
                drop(body_drive.0.lock());
                *body_drive.1.lock() += 1;
                this_thread()
            }])
            .unwrap()
            .wait_single()
            .unwrap();
        drop(held);
        assert_eq!(ran_on, this_thread(), "the body did not run on the caller");
        assert_eq!(*drive.1.lock(), 1);

        release.send(()).unwrap();
        assert_eq!(finish(), 7);
    });
}

#[test]
fn every_one_lane_joined_call_runs_on_its_caller_right_after_a_burst() {
    alone(|| {
        let iface = AsyscallInterface::new(
            2,
            8,
            ModeCost::new(ExecutionMode::Sgx, SgxCostModel::zero()),
        );
        // Short bodies on both service threads, back to back: the pool is
        // as awake as it gets when the joined calls arrive.
        for _ in 0..100 {
            let set = iface.submit_batch((0..4u32).map(|k| move || k)).unwrap();
            assert_eq!(set.join().unwrap(), vec![0, 1, 2, 3]);
        }
        let before = iface.stats();
        for k in 0..1_000u32 {
            let ran = iface
                .submit_joined([move || (k, this_thread())])
                .unwrap()
                .wait_single()
                .unwrap();
            assert_eq!(ran, (k, this_thread()), "call {k} was handed over");
        }
        let after = iface.stats();
        assert_eq!(after.exits - before.exits, 1_000);
        assert_eq!(after.submitted, before.submitted, "a call was handed over");
    });
}

#[test]
fn a_joined_call_runs_the_lanes_nobody_took_on_its_caller() {
    alone(|| {
        let (iface, release, finish) = with_its_only_thread_blocked();
        let before = iface.stats();
        let ran_on = iface
            .submit_joined([this_thread, this_thread])
            .unwrap()
            .join()
            .unwrap();
        let after = iface.stats();
        assert_eq!(ran_on, vec![this_thread(); 2], "a lane ran on the pool");
        // Lane 1 was handed over, then taken back: one exit, no sleep.
        assert_eq!(after.exits, before.exits + 1);
        assert_eq!(after.submitted, before.submitted + 1);
        assert_eq!(after.parks, before.parks, "the caller slept");

        // The service thread, once back, frees lane 1's slot.
        release.send(()).unwrap();
        assert_eq!(finish(), 7);
        let deadline = Instant::now() + Duration::from_secs(5);
        while iface.stats().completed < after.submitted {
            assert!(Instant::now() < deadline, "lane 1's slot was never freed");
            std::thread::sleep(Duration::from_millis(1));
        }
    });
}

#[test]
fn a_body_holding_the_only_thread_and_slot_runs_its_joined_lanes_itself() {
    alone(|| {
        // One service thread and one slot, both held by the body below for
        // as long as it runs: a lane it hands over could never be taken.
        let iface = Arc::new(AsyscallInterface::new(
            1,
            1,
            ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
        ));
        let inner = Arc::clone(&iface);
        let (done_tx, done_rx) = channel();
        let outer = iface
            .submit_batch([move || {
                let lanes = inner
                    .submit_joined([this_thread, this_thread])
                    .unwrap()
                    .join()
                    .unwrap();
                let _ = done_tx.send((this_thread(), lanes, inner.stats()));
            }])
            .unwrap();
        let (body, lanes, stats) = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a joined call on a full table never completed");
        assert_eq!(lanes, vec![body; 2], "a lane ran off the body's thread");
        // Lane 1 found no free slot and was never handed over: the body's
        // own call is the only hand-off, and nobody waited for a slot.
        assert_eq!((stats.submitted, stats.exits), (1, 1));
        assert_eq!(stats.slot_waits, 0);
        assert_eq!(outer.wait_single(), Ok(()));
    });
}
