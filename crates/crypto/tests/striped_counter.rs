//! The `sha256::ops` counter is striped over per-thread slots; reads sum
//! them, so hashing on several threads at once is still counted exactly.
//!
//! One test: the counter is process-wide.

use pesos_crypto::sha256;
use pesos_crypto::sha256::ops;

/// Compressions of a SHA-256 over `n` bytes.
fn hash_blocks(n: usize) -> u64 {
    (n as u64 + 9).div_ceil(64)
}

#[test]
fn concurrent_threads_sum_exactly_and_reset_clears_every_slot() {
    const ROUNDS: usize = 2_000;
    // Sizes that cost 1, 2 and 17 compressions.
    let sizes = [10usize, 100, 1_000];
    let per_thread: u64 = sizes.iter().map(|&n| hash_blocks(n)).sum::<u64>() * ROUNDS as u64;

    let before = ops::compressions();
    std::thread::scope(|scope| {
        for t in 0..2u8 {
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for n in sizes {
                        let data = vec![t ^ round as u8; n];
                        std::hint::black_box(sha256(&data));
                    }
                }
            });
        }
    });
    assert_eq!(ops::compressions() - before, 2 * per_thread);

    // Every slot a thread wrote to is zeroed, not only this thread's.
    assert!(ops::compressions() >= 2 * per_thread);
    ops::reset();
    assert_eq!(ops::compressions(), 0);
    std::hint::black_box(sha256(b"one block"));
    assert_eq!(ops::compressions(), 1);
}
