//! The six named workloads. Each stresses a different layer and bypasses the
//! others; `why` is the one-line reason recorded in `BENCHMARK.json`.

use crate::gen::OpKind;

/// Key-popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Scrambled zipfian, theta 0.99.
    Zipfian,
    Uniform,
}

/// What serves the requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// One controller over in-memory simulator drives.
    Simulator { object_cache_bytes: usize },
    /// One controller over HDD-model drives.
    Disk { drives: usize, replication: usize },
    /// A `ControllerCluster` of simulator controllers with backups.
    Cluster { controllers: usize, backups: usize },
}

/// Operation mix in percent; the five shares sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub get: u32,
    pub put: u32,
    pub tx: u32,
    pub cas_update: u32,
    pub denied_get: u32,
}

impl Mix {
    /// Maps a uniform draw in `[0, 100)` to an operation kind.
    pub fn pick(&self, draw: u32) -> OpKind {
        let mut edge = self.get;
        if draw < edge {
            return OpKind::Get;
        }
        edge += self.put;
        if draw < edge {
            return OpKind::Put;
        }
        edge += self.tx;
        if draw < edge {
            return OpKind::Tx;
        }
        edge += self.cas_update;
        if draw < edge {
            return OpKind::CasUpdate;
        }
        OpKind::DeniedGet
    }
}

/// One workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub deploy: Deploy,
    pub keys: usize,
    pub value_len: usize,
    pub dist: Dist,
    pub mix: Mix,
    /// Records carry MAL-style policies and a `<key>.log` object.
    pub policy: bool,
    /// Fixed-count warm-up (all clients together), part of set-up.
    pub warmup_ops: usize,
    /// Operations pre-generated per client for the measured phase: about
    /// twice what a client completes in 10 s on the reference host. A client
    /// that reaches the end starts over.
    pub stream_ops: usize,
    /// Single-client sample the traced run replays down the ladder.
    pub trace_ops: usize,
}

/// Default object-cache budget of a controller (16 MiB).
const DEFAULT_CACHE: usize = 16 * 1024 * 1024;

const fn mix(get: u32, put: u32, tx: u32, cas_update: u32, denied_get: u32) -> Mix {
    Mix {
        get,
        put,
        tx,
        cas_update,
        denied_get,
    }
}

/// Workload names in the order they run.
pub const NAMES: [&str; 6] = [
    "hot_mix_1k",
    "cold_read_1k",
    "large_put_64k",
    "policy_read_1k",
    "cluster_repl_1k",
    "disk_mix_1k",
];

/// Run size: `Full` is what `BENCHMARK.json` measures; `Smoke` shrinks the
/// fixed counts so the package's tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn parse(text: &str) -> Option<Scale> {
        match text {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// Set-ups per trace-off run; `setup_s` is their median. Three is the
    /// fewest that have a median no single disturbed set-up decides.
    pub fn setups(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Smoke => 1,
        }
    }
}

/// The specification of workload `name`, or `None` for an unknown name.
pub fn spec(name: &str, scale: Scale) -> Option<Spec> {
    let full = match name {
        "hot_mix_1k" => Spec {
            name: "hot_mix_1k",
            why: "paper's headline point: 4 MiB of 1 KiB records fit the 16 MiB object cache, zipfian 50/50; reads hit, puts pay seal, two drive puts and the asyscall hand-offs",
            deploy: Deploy::Simulator {
                object_cache_bytes: DEFAULT_CACHE,
            },
            keys: 4096,
            value_len: 1024,
            dist: Dist::Zipfian,
            mix: mix(50, 50, 0, 0, 0),
            policy: false,
            warmup_ops: 20_000,
            stream_ops: 128_000,
            trace_ops: 20_000,
        },
        "cold_read_1k" => Spec {
            name: "cold_read_1k",
            why: "larger than cache: 8 MiB of records against a 1 MiB object cache, uniform 95/5; reads miss and pay asyscall, drive get, unseal and the revalidation hash",
            deploy: Deploy::Simulator {
                object_cache_bytes: 1024 * 1024,
            },
            keys: 8192,
            value_len: 1024,
            dist: Dist::Uniform,
            mix: mix(95, 5, 0, 0, 0),
            policy: false,
            warmup_ops: 20_000,
            stream_ops: 256_000,
            trace_ops: 20_000,
        },
        "large_put_64k" => Spec {
            name: "large_put_64k",
            why: "crypto-bound: 128 records of 64 KiB, 90/10 put/get; seal, content hash and frame HMAC pass over every payload byte several times",
            deploy: Deploy::Simulator {
                object_cache_bytes: DEFAULT_CACHE,
            },
            keys: 128,
            value_len: 64 * 1024,
            dist: Dist::Uniform,
            mix: mix(10, 90, 0, 0, 0),
            policy: false,
            warmup_ops: 256,
            stream_ops: 10_000,
            trace_ops: 600,
        },
        "policy_read_1k" => Spec {
            name: "policy_read_1k",
            why: "policy-bound: 1024 cached records under 64 MAL-style objSays policies; 90% granted gets, 5% versioned CAS updates, 5% gets that must be denied; the interpreter is most of the op",
            deploy: Deploy::Simulator {
                object_cache_bytes: DEFAULT_CACHE,
            },
            keys: 1024,
            value_len: 1024,
            dist: Dist::Zipfian,
            mix: mix(90, 0, 0, 5, 5),
            policy: true,
            warmup_ops: 20_000,
            stream_ops: 512_000,
            trace_ops: 20_000,
        },
        "cluster_repl_1k" => Spec {
            name: "cluster_repl_1k",
            why: "only workload through the cluster layer: 4 controllers, one backup each, zipfian 45/45 get/put plus 10% two-key cross-partition transactions; route, ops gate, replication log, 2PC",
            deploy: Deploy::Cluster {
                controllers: 4,
                backups: 1,
            },
            keys: 4096,
            value_len: 1024,
            dist: Dist::Zipfian,
            mix: mix(45, 45, 10, 0, 0),
            policy: false,
            warmup_ops: 10_000,
            stream_ops: 80_000,
            trace_ops: 10_000,
        },
        "disk_mix_1k" => Spec {
            name: "disk_mix_1k",
            why: "drive-bound: HDD-model drives sleep about 1 ms per op, 2 drives with replication 2, zipfian 50/50; CPU-layer changes should not move it, drive round trips per op do",
            deploy: Deploy::Disk {
                drives: 2,
                replication: 2,
            },
            keys: 512,
            value_len: 1024,
            dist: Dist::Zipfian,
            mix: mix(50, 50, 0, 0, 0),
            policy: false,
            warmup_ops: 400,
            stream_ops: 8_000,
            trace_ops: 500,
        },
        _ => return None,
    };
    Some(match scale {
        Scale::Full => full,
        Scale::Smoke => Spec {
            keys: (full.keys / 8).max(64),
            warmup_ops: (full.warmup_ops / 40).max(32),
            stream_ops: (full.stream_ops / 40).max(512),
            trace_ops: (full.trace_ops / 40).max(48),
            ..full
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_has_a_spec_whose_mix_sums_to_100() {
        for name in NAMES {
            for scale in [Scale::Full, Scale::Smoke] {
                let spec = spec(name, scale).expect(name);
                assert_eq!(spec.name, name);
                let m = spec.mix;
                assert_eq!(m.get + m.put + m.tx + m.cas_update + m.denied_get, 100);
                assert!(spec.why.len() <= 200, "{name}: why is {}", spec.why.len());
                assert!(!spec.why.contains('\n'));
            }
        }
        assert!(spec("nope", Scale::Full).is_none());
    }

    #[test]
    fn mix_pick_covers_its_shares() {
        let m = mix(90, 0, 0, 5, 5);
        assert_eq!(m.pick(0), OpKind::Get);
        assert_eq!(m.pick(89), OpKind::Get);
        assert_eq!(m.pick(90), OpKind::CasUpdate);
        assert_eq!(m.pick(95), OpKind::DeniedGet);
        assert_eq!(m.pick(99), OpKind::DeniedGet);
    }
}
