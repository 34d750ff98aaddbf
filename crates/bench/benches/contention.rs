//! Contention micro-benchmark: multi-threaded YCSB-A put/get over the
//! sharded metadata/cache/key-lock structures against the same write path
//! on a single global lock shard.
//!
//! Uses the disk-model backend, whose sleeping drives let client threads
//! overlap even on a single-CPU host.
use criterion::{criterion_group, criterion_main, Criterion};
use pesos_bench::{run_workload_with, Config};
use pesos_core::ExecutionMode;
use pesos_kinetic::backend::BackendKind;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention");
    group.sample_size(10);
    let config = Config {
        mode: ExecutionMode::Sgx,
        backend: BackendKind::Hdd,
    };
    for threads in [4usize, 8] {
        group.bench_function(format!("single-lock-{threads}t"), |b| {
            b.iter(|| {
                run_workload_with(
                    config,
                    3,
                    2,
                    threads,
                    50,
                    150,
                    1024,
                    true,
                    |c| {
                        c.lock_shards = 1;
                        c.syscall_threads = 16;
                    },
                    |_, _| {},
                )
            })
        });
        group.bench_function(format!("sharded-{threads}t"), |b| {
            b.iter(|| {
                run_workload_with(
                    config,
                    3,
                    2,
                    threads,
                    50,
                    150,
                    1024,
                    true,
                    |c| {
                        c.syscall_threads = 16;
                    },
                    |_, _| {},
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
