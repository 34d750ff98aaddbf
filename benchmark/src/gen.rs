//! Seeded input generation: the benchmark's own SplitMix64 and YCSB-style
//! scrambled zipfian, the pre-built key and value tables, and the per-client
//! operation streams. The program under test only ever sees what is built
//! here, before any timer starts.

use pesos_core::routing_hash;

use crate::workload::{Deploy, Dist, Spec};

/// SplitMix64 (Steele, Lea, Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// The SplitMix64 output function, also used to scramble zipfian ranks.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is below 2^-32 for the sizes used here.
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Zipfian ranks over `[0, n)` after Gray et al., as YCSB implements it,
/// with the rank scrambled so the hot keys are spread over the key space.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |count: u64| {
            (1..=count)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum::<f64>()
        };
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        mix64(rank.min(self.n - 1)) % self.n
    }
}

/// What one generated operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// Read a record and verify its bytes.
    Get = 0,
    /// Overwrite a record with one of its pre-built value variants.
    Put = 1,
    /// Two-key cross-partition transaction over one fixed key pair.
    Tx = 2,
    /// Versioned compare-and-swap update by the granted writer.
    CasUpdate = 3,
    /// Read by a client the record's policy does not grant: must be denied.
    DeniedGet = 4,
}

impl OpKind {
    /// Number of kinds (sizes per-kind tables).
    pub const COUNT: usize = 5;

    /// Reads are `Get`; writes are `Put` and `CasUpdate`. Transactions and
    /// expected denials are reported on their own.
    pub fn is_read(self) -> bool {
        self == OpKind::Get
    }

    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Put | OpKind::CasUpdate)
    }
}

/// One generated operation: `key` indexes the key table (the pair table for
/// `Tx`), `variant` picks the pre-built value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    pub kind: OpKind,
    pub variant: u8,
    pub key: u32,
}

/// Pre-built value variants per key.
pub const VARIANTS: usize = 2;
/// Bytes of header in front of the filler: magic, key index, length,
/// variant, transaction tag.
pub const HEADER_LEN: usize = 24;
const MAGIC: u32 = 0x5045_534F;

/// Builds the value of `key` (an index into the key or pair-key table):
/// header, then filler drawn from `rng`.
pub fn build_value(key: u32, variant: u8, len: usize, rng: &mut SplitMix64) -> Vec<u8> {
    assert!(len >= HEADER_LEN, "values carry a {HEADER_LEN}-byte header");
    let mut value = Vec::with_capacity(len);
    value.extend_from_slice(&MAGIC.to_le_bytes());
    value.extend_from_slice(&key.to_le_bytes());
    value.extend_from_slice(&(len as u32).to_le_bytes());
    value.extend_from_slice(&(variant as u32).to_le_bytes());
    value.extend_from_slice(&0u64.to_le_bytes());
    while value.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = word.len().min(len - value.len());
        value.extend_from_slice(&word[..take]);
    }
    value
}

/// The header fields a reader checks before comparing the filler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub key: u32,
    pub len: u32,
    pub variant: u32,
    pub tag: u64,
}

pub fn parse_header(value: &[u8]) -> Option<Header> {
    let word = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(value.get(at..at + 4)?.try_into().ok()?))
    };
    if word(0)? != MAGIC {
        return None;
    }
    Some(Header {
        key: word(4)?,
        len: word(8)?,
        variant: word(12)?,
        tag: u64::from_le_bytes(value.get(16..24)?.try_into().ok()?),
    })
}

/// Stamps a transaction tag into a value's header.
pub fn set_tag(value: &mut [u8], tag: u64) {
    value[16..24].copy_from_slice(&tag.to_le_bytes());
}

/// Everything a run feeds the program, built from the seed alone.
pub struct Inputs {
    /// Record keys, `k<index>`.
    pub keys: Vec<String>,
    /// `keys.len() * VARIANTS` values: `values[key * VARIANTS + variant]`.
    pub values: Vec<Vec<u8>>,
    /// Transaction pair keys (`x<p>a`, `x<p>b`), two per pair; empty unless
    /// the workload has transactions. Their values are
    /// `pair_values[2 * p + side]`, tagged per transaction at run time.
    pub pair_keys: Vec<String>,
    pub pair_values: Vec<Vec<u8>>,
    /// Fixed-count warm-up stream per client.
    pub warmup: Vec<Vec<Op>>,
    /// Measured-phase stream per client; a client that runs past its end
    /// starts over.
    pub streams: Vec<Vec<Op>>,
    /// The single-client sample the traced run replays.
    pub sample: Vec<Op>,
    /// Hash over every generated operation and value.
    pub trace_hash: u64,
}

impl Inputs {
    pub fn value(&self, key: u32, variant: u8) -> &Vec<u8> {
        &self.values[key as usize * VARIANTS + variant as usize]
    }
}

/// Number of fixed transaction key pairs.
pub const TX_PAIRS: usize = 256;

fn gen_stream(
    spec: &Spec,
    zipf: &Zipfian,
    client: usize,
    clients: usize,
    count: usize,
    rng: &mut SplitMix64,
) -> Vec<Op> {
    let keys = spec.keys as u64;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = spec.mix.pick(rng.below(100) as u32);
        let variant = rng.below(VARIANTS as u64) as u8;
        let key = match kind {
            OpKind::Tx => rng.below(TX_PAIRS as u64),
            _ => match spec.dist {
                Dist::Zipfian => zipf.sample(rng),
                Dist::Uniform => rng.below(keys),
            },
        };
        // A versioned update names the record's next version, so two
        // clients must never race on one record: each owns the records
        // whose index is congruent to its own.
        let key = if kind == OpKind::CasUpdate {
            let base = key - key % clients as u64 + client as u64;
            if base < keys {
                base
            } else {
                client as u64
            }
        } else {
            key
        };
        ops.push(Op {
            kind,
            variant,
            key: key as u32,
        });
    }
    ops
}

fn fold(hash: u64, word: u64) -> u64 {
    mix64(hash ^ word)
}

/// Generates the inputs of `spec` for `clients` clients from `seed`.
pub fn generate(spec: &Spec, seed: u64, clients: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ mix64(spec.name.len() as u64 ^ 0x5045));
    let keys: Vec<String> = (0..spec.keys).map(|i| format!("k{i:06}")).collect();
    let mut values = Vec::with_capacity(spec.keys * VARIANTS);
    for key in 0..spec.keys {
        for variant in 0..VARIANTS {
            values.push(build_value(
                key as u32,
                variant as u8,
                spec.value_len,
                &mut rng,
            ));
        }
    }
    let (mut pair_keys, mut pair_values) = (Vec::new(), Vec::new());
    if spec.mix.tx > 0 {
        // The two keys of a pair must live on different partitions. An even
        // partition table over n controllers gives hash h to partition
        // floor(h * n / 2^64); the second key's name is varied until it
        // lands elsewhere than the first.
        let partitions = match spec.deploy {
            Deploy::Cluster { controllers, .. } => controllers as u128,
            _ => 1,
        };
        let partition_of = |key: &str| (routing_hash(key, Some('.')) as u128 * partitions) >> 64;
        for pair in 0..TX_PAIRS {
            let first = format!("x{pair:04}a");
            let second = (0..)
                .map(|salt| format!("x{pair:04}b{salt}"))
                .find(|second| partitions == 1 || partition_of(second) != partition_of(&first))
                .expect("an unbounded search ends");
            for key in [first, second] {
                let index = pair_keys.len() as u32;
                pair_keys.push(key);
                pair_values.push(build_value(index, 0, spec.value_len, &mut rng));
            }
        }
    }

    let zipf = Zipfian::new(spec.keys as u64, 0.99);
    let mut warmup = Vec::new();
    let mut streams = Vec::new();
    for client in 0..clients {
        let mut client_rng = SplitMix64::new(rng.next_u64());
        warmup.push(gen_stream(
            spec,
            &zipf,
            client,
            clients,
            spec.warmup_ops / clients,
            &mut client_rng,
        ));
        streams.push(gen_stream(
            spec,
            &zipf,
            client,
            clients,
            spec.stream_ops,
            &mut client_rng,
        ));
    }
    let mut sample_rng = SplitMix64::new(rng.next_u64());
    let sample = gen_stream(spec, &zipf, 0, 1, spec.trace_ops, &mut sample_rng);

    let mut trace_hash = seed;
    for op in warmup.iter().chain(&streams).flatten().chain(&sample) {
        trace_hash = fold(
            trace_hash,
            (op.kind as u64) << 40 | (op.variant as u64) << 32 | op.key as u64,
        );
    }
    for value in values.iter().chain(&pair_values) {
        for chunk in value.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            trace_hash = fold(trace_hash, u64::from_le_bytes(word));
        }
    }

    Inputs {
        keys,
        values,
        pair_keys,
        pair_values,
        warmup,
        streams,
        sample,
        trace_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the reference implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let zipf = Zipfian::new(1000, 0.99);
        let mut rng = SplitMix64::new(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = sorted[..10].iter().sum();
        assert!(top10 > 30_000, "top 10 of 1000 keys drew {top10} of 100000");
        assert!(sorted[0] < 20_000);
    }

    #[test]
    fn value_header_round_trips() {
        let mut rng = SplitMix64::new(1);
        let mut value = build_value(42, 1, 100, &mut rng);
        assert_eq!(value.len(), 100);
        set_tag(&mut value, 99);
        assert_eq!(
            parse_header(&value),
            Some(Header {
                key: 42,
                len: 100,
                variant: 1,
                tag: 99
            })
        );
        assert_eq!(parse_header(&value[..10]), None);
    }
}
