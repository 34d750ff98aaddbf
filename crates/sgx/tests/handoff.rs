//! The asyscall hand-off under stress: no lost wake-up on either park
//! protocol, a waiter that sleeps rather than burn its core, and a close
//! that reaches every kind of waiter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use pesos_sgx::asyscall::{AsyscallInterface, CompletionSet};
use pesos_sgx::cost::ModeCost;
use pesos_sgx::{ExecutionMode, SgxCostModel, SgxError};

fn interface(threads: usize, slots: usize) -> AsyscallInterface {
    AsyscallInterface::new(
        threads,
        slots,
        ModeCost::new(ExecutionMode::Native, SgxCostModel::zero()),
    )
}

/// Waits for the one call of a set that `submit_batch` was given one body
/// for: a call kept in flight while its submitter does something else.
fn wait_one<T>(mut pending: CompletionSet<T>) -> Result<T, SgxError> {
    let (_, result) = pending.next_completed().expect("a set of one call");
    result
}

/// SplitMix64: seeded think-times without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A pause between 0 and ~120 µs: shorter and longer than a wake-up of
    /// a sleeping service thread, so calls arrive while one is asleep, on
    /// its way or inside a body.
    fn pause(&mut self) -> Duration {
        match self.next() % 4 {
            0 => Duration::ZERO,
            1 => Duration::from_micros(self.next() % 10),
            2 => Duration::from_micros(20 + self.next() % 40),
            _ => Duration::from_micros(60 + self.next() % 60),
        }
    }
}

fn busy(pause: Duration) {
    let start = Instant::now();
    while start.elapsed() < pause {
        std::hint::spin_loop();
    }
}

/// The tests of this file share the host's cores, and how long a hand-off
/// takes depends on who else wants them: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `work` on its own thread and fails the test if it has not finished
/// within `limit`: a lost wake-up shows as a hang, not as a wrong value.
fn under_watchdog(limit: Duration, work: impl FnOnce() + Send + 'static) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (done_tx, done_rx) = channel();
    let worker = std::thread::spawn(move || {
        work();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        Err(RecvTimeoutError::Timeout) => {
            panic!("hand-off did not finish within {limit:?}: a wake-up was lost")
        }
        // Finished, or panicked and dropped the sender: the join tells.
        _ => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[test]
fn no_wakeup_is_lost_under_mixed_load() {
    const SUBMITTERS: u64 = 8;
    const ROUNDS: u64 = 2_000;
    under_watchdog(Duration::from_secs(120), || {
        // Fewer slots than submitters' calls in flight, so the table-full
        // sleep is exercised along with both park protocols.
        let iface = Arc::new(interface(2, 4));
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|id| {
                let iface = Arc::clone(&iface);
                std::thread::spawn(move || {
                    let mut rng = Rng(0x5eed_0000 + id);
                    let mut sum = 0u64;
                    for round in 0..ROUNDS {
                        busy(rng.pause());
                        let work = rng.pause();
                        let tag = id * ROUNDS + round;
                        match rng.next() % 3 {
                            0 => {
                                sum += iface
                                    .submit(move || {
                                        busy(work);
                                        tag
                                    })
                                    .unwrap();
                            }
                            1 => {
                                let pending = iface
                                    .submit_batch([move || {
                                        busy(work);
                                        tag
                                    }])
                                    .unwrap();
                                busy(rng.pause());
                                sum += wait_one(pending).unwrap();
                            }
                            _ => {
                                let set = iface
                                    .submit_batch((0..3u32).map(|part| {
                                        move || {
                                            busy(work / 3);
                                            if part == 0 {
                                                tag
                                            } else {
                                                0
                                            }
                                        }
                                    }))
                                    .unwrap();
                                sum += set.join().unwrap().iter().sum::<u64>();
                            }
                        }
                    }
                    sum
                })
            })
            .collect();
        let total: u64 = submitters.into_iter().map(|s| s.join().unwrap()).sum();
        let calls = SUBMITTERS * ROUNDS;
        assert_eq!(total, calls * (calls - 1) / 2, "a result went missing");
        let stats = iface.stats();
        assert!(stats.submitted >= calls);
        assert!(stats.max_concurrency <= 2);
    });
}

/// Nanoseconds this thread has spent on a CPU, if the kernel tells.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

#[test]
fn a_submitter_waiting_on_a_long_call_sleeps_without_burning_its_core() {
    // A body that sleeps 1 ms: each call costs its submitter one sleep,
    // and the submitter spends the wait off the CPU.
    const SLOW: u64 = 40;
    under_watchdog(Duration::from_secs(120), || {
        let iface = interface(2, 8);
        let before = iface.stats().parks;
        let cpu_before = thread_cpu_ns();
        for _ in 0..SLOW {
            iface
                .submit(|| std::thread::sleep(Duration::from_millis(1)))
                .unwrap();
        }
        let cpu_after = thread_cpu_ns();
        let parks = iface.stats().parks - before;
        // One sleep per call at most; a submitter kept off its core past
        // the body's end finds the result there and sleeps not at all.
        assert!(
            parks > SLOW / 2 && parks <= SLOW,
            "{parks} sleeps for {SLOW} calls of 1 ms"
        );
        if let (Some(start), Some(end)) = (cpu_before, cpu_after) {
            // 40 ms of waiting; a submitter that spun through any of it
            // would have burnt well over this.
            let per_call = (end - start) / SLOW;
            assert!(
                per_call < 200_000,
                "submitter burnt {per_call} ns of CPU per 1 ms call"
            );
        }
    });
}

#[test]
fn calls_nobody_waits_on_never_depend_on_a_running_body() {
    under_watchdog(Duration::from_secs(60), || {
        let iface = interface(2, 4);
        let mut rng = Rng(0x5eed_b0d1);
        for round in 0..240u32 {
            // A run of short calls: each wakes a service thread or finds
            // one on its way back to the queue.
            for _ in 0..16 {
                iface.submit(|| ()).unwrap();
            }
            // Leave the service threads in each state a submission can find
            // them in: both asleep, one on its way to sleep, or anywhere
            // between a body and a sleep.
            match round % 3 {
                0 => std::thread::sleep(Duration::from_millis(2)),
                1 => {}
                _ => busy(rng.pause()),
            }
            // Two bodies that each need the other to have started, and a
            // caller that waits on neither until both have reported in: if
            // the second were left queued behind the first, nobody would
            // ever come for it.
            let barrier = Arc::new(Barrier::new(2));
            let (started_tx, started_rx) = channel();
            let body = || {
                let (barrier, started) = (Arc::clone(&barrier), started_tx.clone());
                move || {
                    barrier.wait();
                    let _ = started.send(());
                    round
                }
            };
            let mut pending = Vec::new();
            let mut set = None;
            match (round / 3) % 3 {
                0 => set = Some(iface.submit_batch([body(), body()]).unwrap()),
                1 => pending.extend([body(), body()].map(|b| iface.submit_batch([b]).unwrap())),
                // Nobody keeps the sets: the calls run unobserved.
                _ => [body(), body()]
                    .into_iter()
                    .for_each(|b| drop(iface.submit_batch([b]).unwrap())),
            }
            started_rx.recv().unwrap();
            started_rx.recv().unwrap();
            if let Some(set) = set {
                assert_eq!(set.join().unwrap(), vec![round, round]);
            }
            for call in pending {
                assert_eq!(wait_one(call), Ok(round));
            }
        }
    });
}

/// A body that announces it is running and then blocks until released.
fn blocker(started: Sender<()>, release: Receiver<()>) -> impl FnOnce() -> u32 + Send + 'static {
    move || {
        let _ = started.send(());
        let _ = release.recv();
        7
    }
}

#[test]
fn close_abandons_queued_calls_and_reaches_every_waiter() {
    under_watchdog(Duration::from_secs(60), || {
        let iface = interface(1, 8);
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel();
        let running = iface
            .submit_batch([blocker(started_tx, release_rx)])
            .unwrap();
        started_rx.recv().unwrap();

        // The only service thread is inside the blocker: these stay queued.
        let ran = Arc::new(AtomicU64::new(0));
        let queued: Vec<_> = (0..4)
            .map(|_| {
                let ran = Arc::clone(&ran);
                iface
                    .submit_batch([move || ran.fetch_add(1, Ordering::SeqCst)])
                    .unwrap()
            })
            .collect();

        // Half the queued calls get a waiter each, which sleeps at once;
        // `parks` says when both are in place.
        let parks_before = iface.stats().parks;
        let mut queued = queued.into_iter();
        let waiters: Vec<_> = queued
            .by_ref()
            .take(2)
            .map(|pending| std::thread::spawn(move || wait_one(pending)))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while iface.stats().parks < parks_before + 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }

        drop(iface);
        for waiter in waiters {
            assert_eq!(
                waiter.join().unwrap(),
                Err(SgxError::SyscallInterfaceClosed)
            );
        }
        // Calls nobody was waiting on yet were abandoned all the same.
        for pending in queued {
            assert_eq!(wait_one(pending), Err(SgxError::SyscallInterfaceClosed));
        }
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "a queued body ran after the close"
        );

        // The call that was running finishes normally.
        release_tx.send(()).unwrap();
        assert_eq!(wait_one(running), Ok(7));
    });
}

#[test]
fn close_while_a_waiter_is_about_to_park() {
    under_watchdog(Duration::from_secs(60), || {
        for _ in 0..200 {
            let iface = interface(1, 4);
            let (started_tx, started_rx) = channel();
            let (release_tx, release_rx) = channel();
            let running = iface
                .submit_batch([blocker(started_tx, release_rx)])
                .unwrap();
            started_rx.recv().unwrap();
            let queued = iface.submit_batch([|| 1u32]).unwrap();
            let (waiting_tx, waiting_rx) = channel();
            let waiter = std::thread::spawn(move || {
                let _ = waiting_tx.send(());
                wait_one(queued)
            });
            // Close right as the waiter looks at its entry and parks: the
            // close lands before, between or after, as the scheduler
            // arranges.
            waiting_rx.recv().unwrap();
            drop(iface);
            assert_eq!(
                waiter.join().unwrap(),
                Err(SgxError::SyscallInterfaceClosed)
            );
            release_tx.send(()).unwrap();
            assert_eq!(wait_one(running), Ok(7));
        }
    });
}

#[test]
fn panicking_body_frees_its_slot_and_abandons_its_waiter() {
    under_watchdog(Duration::from_secs(60), || {
        // One slot, one service thread: a leak of either hangs the rest.
        let iface = interface(1, 1);
        let bodies: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let mut set = iface.submit_batch(bodies).unwrap();
        let mut seen = Vec::new();
        while let Some((index, result)) = set.next_completed() {
            seen.push((index, result));
        }
        assert_eq!(
            seen,
            vec![
                (0, Ok(1)),
                (1, Err(SgxError::SyscallInterfaceClosed)),
                (2, Ok(3))
            ]
        );
        // Slot and service thread both survived the panic.
        let set = iface.submit_batch((0..3u32).map(|k| move || k)).unwrap();
        assert_eq!(set.join().unwrap(), vec![0, 1, 2]);
        assert_eq!(iface.submit(|| 9).unwrap(), 9);
    });
}

#[test]
fn full_table_counts_each_wait_once_and_delivers_in_completion_order() {
    under_watchdog(Duration::from_secs(60), || {
        let iface = Arc::new(interface(2, 2));
        let (started_tx, started_rx) = channel();
        let (release_first_tx, release_first_rx) = channel();
        let (release_second_tx, release_second_rx) = channel();
        let bodies = vec![
            blocker(started_tx.clone(), release_first_rx),
            blocker(started_tx, release_second_rx),
        ];
        let mut set = iface.submit_batch(bodies).unwrap();
        started_rx.recv().unwrap();
        started_rx.recv().unwrap();

        // Both slots hold a running body: each further submitter waits for
        // a slot, and is counted when it finds the table full.
        let late: Vec<_> = (0..3u32)
            .map(|k| {
                let iface = Arc::clone(&iface);
                std::thread::spawn(move || iface.submit(move || k).unwrap())
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while iface.stats().slot_waits < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(iface.stats().slot_waits, 3, "late submitters never blocked");

        // The second body finishes first and is delivered first.
        release_second_tx.send(()).unwrap();
        let (index, value) = set.next_completed().unwrap();
        assert_eq!((index, value), (1, Ok(7)));
        // Its slot serves the three late calls one after another.
        let mut values: Vec<u32> = late.into_iter().map(|l| l.join().unwrap()).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2]);
        release_first_tx.send(()).unwrap();
        let (index, value) = set.next_completed().unwrap();
        assert_eq!((index, value), (0, Ok(7)));
        assert!(set.next_completed().is_none());
        // Waiting again for the same slot is not counted again.
        assert_eq!(iface.stats().slot_waits, 3);
    });
}
