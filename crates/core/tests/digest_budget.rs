//! Compression-count budgets for the request hot path.
//!
//! The always-on `pesos_crypto::sha256::ops` counter tallies every SHA-256
//! compression executed in the process. These tests pin
//! the number of compressions the put/get/exchange paths are allowed to
//! spend, so digest-count regressions — hashing the same payload twice,
//! recomputing a key hash per structure, redoing an HMAC key schedule per
//! MAC — fail loudly instead of silently costing microseconds per request.
//!
//! Baselines were measured on the pre-overhaul tree (commit `355f48f`) with
//! the same counter patched in; the budgets below are the current
//! measurements plus ~10–25 % slack. The "PR 2" column is the digest-
//! pipeline overhaul (cached HMAC/keystream midstates), the "PR 24" column
//! adds the vectored wire frames with folded frame HMACs (the verify side
//! of every drive exchange became one outer compression instead of a full
//! re-hash — the frame is hashed once, at seal time) and the one atomic
//! Kinetic batch per mutation (a put is two authenticated frames — batch
//! request and response — where data PUT + metadata PUT were four) and the
//! compare-on-absent create (the existence check rides in the batch, so a
//! create no longer pays a metadata read exchange: 20 → 14). The "now"
//! column seals with AES-128-GCM: no keystream or tag hashing, one HMAC
//! for the synthetic nonce. The "long history" row is a put on a key that
//! already holds 128 versions: the "now" column stores the history as a
//! small head plus sealed segments written once, where every earlier
//! column re-encoded and re-MACed the whole record. Measured:
//!
//! | operation              | before | PR 2 | PR 4 | PR 24 |  now | reduction |
//! |------------------------|-------:|-----:|-----:|------:|-----:|----------:|
//! | put (1-block value)    |    108 |   41 |   31 |    14 |   13 |     8.3×  |
//! | put, long history      |      — |    — |    — |     — | 13–25 | 97 → ≤ 25 |
//! | get (object-cache hit) |      2 |    1 |    1 |     1 |    1 |     2.0×  |
//! | put (64 KiB value)     |   7275 | 6184 | 5150 |  5133 | 2061 | 7.10 → 2.01 payload passes |
//! | kinetic PUT exchange   |     16 |    8 |    7 |     7 |    7 |     2.3×  |
//! | rebalance drain / key  |      — |    — |  ~50 |   ~40 |  ~37 |     1.35× |

use std::sync::Mutex;

use pesos_core::{ControllerConfig, ObjectCrypter, PesosController};
use pesos_crypto::sha256::ops;

/// The counter is process-wide, so measurements must not interleave.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

fn measured<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ops::compressions();
    let out = f();
    (out, ops::compressions() - before)
}

fn controller() -> PesosController {
    // One drive, no replication: every count below is deterministic.
    PesosController::new(ControllerConfig::native_simulator(1)).unwrap()
}

#[test]
fn put_and_get_compression_budgets() {
    let _serial = MEASURE_LOCK.lock().unwrap();
    let c = controller();
    let client = c.register_client("budget");

    // Warm the session/metadata paths so the measured op is the steady
    // state, not the cold bootstrap.
    c.put(&client, "warm", b"w", None, None, &[]).unwrap();
    let _ = c.get(&client, "warm", &[]).unwrap();

    // -- put of a small (one-block) value ------------------------------
    // Pre-overhaul baseline: 108 compressions (key hash recomputed by
    // every structure, payload hashed twice, metadata re-read per policy
    // check, HMAC key schedule redone on all twelve exchange MACs); 41
    // after the PR 2 midstate caches; 31 with the folded frame HMACs
    // (every exchange's verify side is one outer compression); 20 with
    // one atomic batch per mutation (one metadata read exchange plus one
    // batch exchange, where it was two reads and two PUTs); 14 now that
    // the create is compare-on-absent — one batch exchange and nothing
    // else; 13 with AES-GCM, whose seal is one nonce HMAC (2) where the
    // stand-in spent a keystream block and a tag HMAC (3). The budget of 15
    // sits below the read-then-batch number, so any lookup or second drive
    // round trip on a create fails it.
    let (version, small_put) =
        measured(|| c.put(&client, "obj/small", b"v", None, None, &[]).unwrap());
    assert_eq!(version, 0);
    println!("put(1-block value): {small_put} compressions");
    assert!(
        small_put <= 15,
        "small put spent {small_put} compressions (budget 15; measured 13, \
         19 with a metadata read before the batch, 108 pre-overhaul)"
    );

    // -- the same create, refused and re-driven --------------------------
    // The drive holds a record the map forgot (a delete that failed with
    // the drive away), so the create is refused, the record is read and
    // the put lands as an update. That is the worst a put can cost, and it
    // is the sum of two things already pinned: the create that was wasted
    // (13: hashes, seal, one batch exchange) and what every cold put used
    // to pay (19: metadata read exchange, seal, batch exchange) — 32, with
    // the key and content hashes shared and a two-version record to MAC
    // (34 with the stand-in's costlier seals). A third exchange, or a
    // policy re-check that re-hashes, fails it.
    let drive = c.store().drives().get(0).unwrap();
    drive.set_online(false);
    assert!(c.store().delete_object("obj/small").is_err());
    drive.set_online(true);
    let (version, refused_put) =
        measured(|| c.put(&client, "obj/small", b"w", None, None, &[]).unwrap());
    assert_eq!(version, 1);
    assert_eq!(c.store().create_stats().refusals, 1);
    println!("put(1-block value, refused then re-driven): {refused_put} compressions");
    assert!(
        refused_put <= 34,
        "refused-then-re-driven create spent {refused_put} compressions \
         (budget 34; measured 32 = a wasted create at 13 + a read-then-update at 19)"
    );

    // -- cached get ----------------------------------------------------
    // Pre-overhaul baseline: 2 (placement hash recomputed by the session
    // check and the cache shard); now exactly 1: the single key hash the
    // request fundamentally needs.
    let (_, cached_get) = measured(|| c.get(&client, "obj/small", &[]).unwrap());
    println!("get(object-cache hit): {cached_get} compressions");
    assert!(
        cached_get <= 1,
        "cached get spent {cached_get} compressions (budget 1; pre-overhaul 2)"
    );

    // -- put of a large value: every pass over the payload is accounted --
    // A 64 KiB value costs 1024 compressions per full hash pass. The
    // payload crosses the digest pipeline twice now: one content hash
    // (controller, shared with the store and the seal's nonce) and the
    // single streaming frame-HMAC pass of the vectored seal — the drive's
    // verify re-hash folded into one outer compression. AES-GCM hashes
    // nothing; the stand-in it replaced made three more passes (two
    // keystream, one tag MAC: 5133 compressions, 5.01 passes). Anything past
    // ~2.2 means a full verify pass, a keystream or a duplicate digest came
    // back.
    let value = vec![7u8; 64 * 1024];
    let passes = |count: u64| count as f64 / 1024.0;
    let (_, large_put) = measured(|| {
        c.put(&client, "obj/large", value.clone(), None, None, &[])
            .unwrap()
    });
    println!(
        "put(64 KiB value): {large_put} compressions ({:.2} hash passes over the payload)",
        passes(large_put)
    );
    assert!(
        passes(large_put) < 2.2,
        "64 KiB put spent {:.2} payload passes — a verify-side re-hash or \
         duplicate digest came back (budget < 2.2 passes; measured 2.01, \
         5.01 with the SHA-256 stand-in cipher, 7.10 pre-overhaul)",
        passes(large_put)
    );
}

#[test]
fn long_history_put_compression_budget() {
    let _serial = MEASURE_LOCK.lock().unwrap();
    let c = controller();
    let client = c.register_client("budget");
    // A put writes what changed: the head (the open tail of fewer than 8
    // versions and the segment list) on every put, and a sealed segment of
    // 8 versions once, on the put that fills it. Measured 13–17 on a tail
    // put, 19 on a sealing put and 25 on one that also trims a segment
    // (its DELETEs ride in the frame), whatever the history's length. When
    // every put re-encoded and re-MACed the whole record, the cost grew
    // with the history to 96–97 from the 128th put on.
    for put in 0..200 {
        let (_, spent) = measured(|| c.put(&client, "obj/hot", b"v", None, None, &[]).unwrap());
        assert!(
            spent <= 32,
            "put {put} on one key spent {spent} compressions (budget 32; measured \
             13-25, 96-97 when every put rewrote the whole history)"
        );
    }
}

#[test]
fn object_seal_spends_the_content_hash_and_the_nonce_hmac() {
    let _serial = MEASURE_LOCK.lock().unwrap();
    // Exact, not a budget: AES-GCM hashes nothing, so sealing costs the
    // SHA-256 of the plaintext (which the store passes in instead, having
    // computed it for the version record) plus one HMAC over
    // key ‖ version ‖ digest for the nonce. Opening costs nothing.
    let crypter = ObjectCrypter::new(&[3u8; 32], true);
    let blocks = |n: usize| (n as u64 + 9).div_ceil(64);
    let value = vec![5u8; 65_536];
    for key in [
        "k",
        "users/alice/profile",
        "a/key/long/enough/to/need/a/second/block",
    ] {
        for len in [0, 1, 1024, 65_536] {
            let (sealed, spent) = measured(|| crypter.seal(key, 3, &value[..len]));
            let nonce_hmac = blocks(64 + key.len() + 8 + 32) - 1 + 1;
            assert_eq!(
                spent,
                blocks(len) + nonce_hmac,
                "seal of {len} under {key:?}"
            );
            let (_, spent) = measured(|| crypter.unseal(key, 3, &sealed).unwrap());
            assert_eq!(spent, 0, "unseal of {len} under {key:?}");
        }
    }
}

#[test]
fn rebalance_drain_compression_budget() {
    let _serial = MEASURE_LOCK.lock().unwrap();
    use pesos_cluster::{ClusterConfig, ControllerCluster};

    // Two partitions at the default drain width (the compression counter
    // is process-wide, so drain bodies on the drain's own threads count);
    // removing partition 1 drains every one of its resident keys through
    // export → import → delete.
    let cluster = ControllerCluster::new(ClusterConfig::native_simulator(2, 1)).unwrap();
    cluster.register_client("budget");
    const KEYS: usize = 48;
    for i in 0..KEYS {
        // A mix of plain and suffixed keys, so the budget also covers the
        // routing-prefix hash suffixed keys pay during the range check.
        let key = if i % 3 == 0 {
            format!("drain/k{i}.log")
        } else {
            format!("drain/k{i}")
        };
        cluster.put("budget", &key, b"v", None, None, &[]).unwrap();
    }
    let moved = cluster
        .stats_tree(0)
        .u64_at("partitions/1/resident_objects")
        .unwrap();
    assert!(moved > 0, "no keys landed on the drained partition");

    let (_, drained) = measured(|| cluster.remove_controller(1).unwrap());
    let per_key = drained as f64 / moved as f64;
    println!(
        "rebalance drain: {drained} compressions for {moved} moved keys \
         ({per_key:.1}/key)"
    );
    // Measured ~37/key (~40 with the SHA-256 stand-in cipher, ~50 before
    // imports and deletes became one atomic batch each): the object move
    // itself (export's metadata+data reads and unseal, import's
    // re-seal — content hash and nonce HMAC — and its single batch of data +
    // metadata, the source-side delete batch — each drive exchange at the
    // pinned ≤ 7 compressions plus the batch's few extra frame blocks)
    // plus, amortized, the one key hash per listed key (the routing-prefix
    // digest rides along only for suffixed keys), the listing pages and
    // the weighted-load accounting. Re-hashing keys per structure or
    // re-verifying frames during the drain blows well past the budget.
    assert!(
        per_key <= 44.0,
        "drain spent {per_key:.1} compressions per moved key \
         (budget 44; measured ~37) — a per-key re-hash, a full \
         frame-verify pass or a second exchange per import/delete crept \
         into the migration path"
    );
}

#[test]
fn exchange_compression_budget() {
    let _serial = MEASURE_LOCK.lock().unwrap();
    use pesos_kinetic::{ClientConfig, DriveConfig, KineticClient, KineticDrive};
    use std::sync::Arc;

    let drive = Arc::new(KineticDrive::new(DriveConfig::simulator("kd-budget")));
    let client =
        KineticClient::connect(Arc::clone(&drive), ClientConfig::factory_default()).unwrap();

    // Warm up.
    client.noop().unwrap();

    // One PUT exchange carries four MACs (client seal, drive verify,
    // drive seal, client verify). Pre-overhaul baseline: 16 compressions
    // with the per-MAC key schedule; 8–10 after the PR 2 cached ipad/opad
    // midstates; 7 with the folded frame HMACs — the request costs one
    // streaming seal (inner ≈ 2 + outer 1) plus a single verify-side outer
    // compression on the drive, and the response one seal (1 + 1) plus one
    // outer compression at the client. A full verify-side re-hash costs
    // +1 per direction minimum (more with a longer command) and fails the
    // budget of 7.
    let (_, exchange) = measured(|| {
        client
            .put(b"budget-key", b"budget-value".to_vec(), b"", b"1", false)
            .unwrap()
    });
    println!("kinetic PUT exchange: {exchange} compressions");
    assert!(
        exchange <= 7,
        "drive exchange spent {exchange} compressions (budget 7; measured 7, \
         8-10 before the folded frame HMACs, pre-overhaul 16)"
    );
}
