//! Micro-benchmarks of the substrate primitives on the request fast path:
//! SHA-256, the AEAD, HMAC, the kinetic wire-frame encoders, policy
//! compilation and policy evaluation.
//!
//! The `before/after` pairs compare the digest pipeline's cached-midstate
//! paths against the pre-overhaul constructions (re-run key schedule per
//! MAC, re-absorbed key+nonce per keystream block), which are reproduced
//! here from the public one-shot APIs, and the vectored one-copy wire
//! encode against the legacy copy-and-rehash frame path. Summary deltas in
//! µs/op are printed at the end.
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pesos_crypto::sha256::sha256_scalar;
use pesos_crypto::{sha256, AeadKey, HmacKey, HmacSha256, Sha256};
use pesos_kinetic::{Command, Envelope, MessageType};
use pesos_policy::{compile, Operation, RequestContext, StaticObjectView};

/// Times `f` over `iters` iterations and returns µs per op.
fn us_per_op(iters: u32, mut f: impl FnMut()) -> f64 {
    // One warm-up.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// The pre-overhaul AEAD keystream + tag (empty AAD): key and nonce
/// re-absorbed for every counter block, HMAC key schedule re-run per tag —
/// the same construction `AeadKey::seal` computes, minus the midstate
/// caches, so for identical derived subkeys the ciphertext and tag would be
/// byte-identical (the equivalence proper is asserted by the property tests
/// in pesos-crypto; here the subkeys are stand-ins and only cost is
/// compared).
fn seal_uncached(enc_key: &[u8; 32], mac_key: &[u8; 32], nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    let mut counter: u64 = 0;
    let mut offset = 0usize;
    while offset < out.len() {
        let mut h = Sha256::new();
        h.update(enc_key);
        h.update(nonce);
        h.update(&counter.to_be_bytes());
        let block = h.finalize();
        let take = (out.len() - offset).min(block.len());
        for i in 0..take {
            out[offset + i] ^= block[i];
        }
        offset += take;
        counter += 1;
    }
    let mut mac = HmacSha256::new(mac_key);
    mac.update(nonce);
    mac.update(b""); // AAD
    mac.update(&out);
    mac.update(&0u64.to_be_bytes()); // AAD length
    mac.update(&(out.len() as u64).to_be_bytes());
    let tag = mac.finalize();
    out.extend_from_slice(&tag[..16]);
    out
}

fn bench(c: &mut Criterion) {
    let payload = vec![7u8; 1024];

    // 64 KiB is the size where the payload passes are the operation: the
    // bulk compression loop and the two-lane keystream kernel run long.
    let large = vec![7u8; 64 * 1024];

    c.bench_function("sha256_1kib", |b| b.iter(|| sha256(&payload)));
    c.bench_function("sha256_64kib", |b| b.iter(|| sha256(&large)));

    let key = AeadKey::new(&[1u8; 32]);
    let nonce = pesos_crypto::aead::counter_nonce(1, 1);
    c.bench_function("aead_seal_1kib", |b| {
        b.iter(|| key.seal(&nonce, b"k", &payload))
    });
    c.bench_function("aead_seal_64kib", |b| {
        b.iter(|| key.seal_to_bytes(&nonce, b"k", &large))
    });

    let hmac_key = HmacKey::new(b"session-secret-0123456789abcdef");
    c.bench_function("hmac_1kib_cached_key", |b| {
        b.iter(|| hmac_key.mac(&payload))
    });
    c.bench_function("hmac_1kib_fresh_schedule", |b| {
        b.iter(|| HmacSha256::mac(b"session-secret-0123456789abcdef", &payload))
    });

    // The kinetic wire-frame encoders over a 64 KiB PUT payload: the
    // legacy path copies the payload into the body buffer, the command
    // buffer and the outer frame and MACs the materialized bytes; the
    // vectored path borrows the payload (reference-count bump), computes
    // the frame HMAC in one streaming pass over the chunks, and only
    // copies anything if a byte frame is actually materialized.
    let frame_key = HmacKey::new(b"drive-session-secret");
    let put = put_64kib();
    c.bench_function("wire_encode_64kib_legacy", |b| b.iter(|| put.encode()));
    c.bench_function("wire_encode_64kib_vectored", |b| {
        b.iter(|| put.encode_vectored())
    });
    c.bench_function("wire_seal_64kib_legacy_frame", |b| {
        b.iter(|| Envelope::seal_with(1, &frame_key, &put).encode())
    });
    c.bench_function("wire_seal_64kib_vectored", |b| {
        b.iter(|| Envelope::seal_vectored(1, &frame_key, put.clone()))
    });

    let policy_src = "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\nupdate :- sessionKeyIs(\"alice\")\ndelete :- sessionKeyIs(\"admin\")";
    c.bench_function("policy_compile_acl", |b| {
        b.iter(|| compile(policy_src).unwrap())
    });

    let compiled = compile(policy_src).unwrap();
    let view = StaticObjectView::default();
    let ctx = RequestContext::new(Operation::Read).with_session_key("bob");
    c.bench_function("policy_evaluate_acl", |b| {
        b.iter(|| compiled.evaluate(Operation::Read, &ctx, &view))
    });

    digest_pipeline_deltas();
    wire_frame_deltas();
}

/// A PUT command carrying a 64 KiB payload, the shape the store's replica
/// writes put on the wire.
fn put_64kib() -> Command {
    let mut put = Command::request(MessageType::Put);
    put.connection_id = 0x1234_5678_9abc_def0;
    put.sequence = 42;
    put.body.key = b"bench/object".to_vec();
    put.body.value = vec![7u8; 64 * 1024].into();
    put.body.new_version = b"pesos".to_vec();
    put
}

/// Prints the before/after µs-per-op delta of the vectored wire path for a
/// full in-process 64 KiB PUT frame hop: legacy = materialize the frame
/// (three payload copies), then decode and fully re-verify it on the
/// receiving side; vectored = seal the chunks in one streaming MAC pass and
/// check the tag with the folded outer-transform verification (no copies,
/// no re-hash).
///
/// Skipped under `--test` for the same reason as the digest deltas.
fn wire_frame_deltas() {
    if criterion::test_mode() {
        println!("\n== wire-frame deltas skipped (--test smoke mode) ==");
        return;
    }
    println!("\n== wire frames: legacy copy-and-rehash vs vectored one-pass, µs/op ==");
    let key = HmacKey::new(b"drive-session-secret");
    let put = put_64kib();

    let before = us_per_op(2_000, || {
        let frame = Envelope::seal_with(1, &key, &put).encode();
        let envelope = Envelope::decode(&frame).unwrap();
        black_box(envelope.open_with(&key).unwrap());
    });
    let after = us_per_op(2_000, || {
        let envelope = Envelope::seal_vectored(1, &key, put.clone());
        assert!(envelope.verified_by(&key));
        black_box(envelope.into_command());
    });
    println!(
        "wire_hop_64kib_put             before {before:>8.3} µs/op   after {after:>8.3} µs/op   speedup {:>5.2}x",
        before / after.max(f64::MIN_POSITIVE)
    );
}

/// Prints the before/after µs-per-op deltas of the digest-pipeline overhaul
/// on a short-message MAC (the four per-exchange envelope HMACs), a 1 KiB
/// MAC and a 1 KiB AEAD seal, and of the dispatched SHA-256 backend over
/// the scalar rounds on 64 KiB.
///
/// Skipped under `--test`: CI's smoke run only proves the harness executes,
/// and deltas timed on a loaded runner would be noise anyway.
fn digest_pipeline_deltas() {
    // Both backends run even in smoke mode: the dispatched digest must be
    // the scalar oracle's.
    let large = vec![7u8; 64 * 1024];
    assert_eq!(sha256(&large), sha256_scalar(&large));
    if criterion::test_mode() {
        println!("\n== digest pipeline deltas skipped (--test smoke mode) ==");
        return;
    }
    println!("\n== digest pipeline: before (uncached) vs after (cached midstates), µs/op ==");
    let secret = b"session-secret-0123456789abcdef";
    let cached = HmacKey::new(secret);
    let frame = vec![0x5au8; 96]; // a typical envelope-sized message
    let payload = vec![7u8; 1024];

    let delta = |label: &str, before: f64, after: f64| {
        println!(
            "{label:<28} before {before:>8.3} µs/op   after {after:>8.3} µs/op   speedup {:>5.2}x",
            before / after.max(f64::MIN_POSITIVE)
        );
    };

    // (The 1 KiB cached-vs-fresh HMAC pair is covered by the registered
    // hmac_1kib_* bench functions above; re-timing it here would just
    // print a second, diverging number for the same operation.)
    let before = us_per_op(20_000, || {
        black_box(HmacSha256::mac(secret, &frame));
    });
    let after = us_per_op(20_000, || {
        black_box(cached.mac(&frame));
    });
    delta("hmac_96b (envelope MAC)", before, after);

    // The cached AEAD vs the reproduced pre-overhaul construction. The
    // subkeys here are only stand-ins for measuring setup cost; equality of
    // the two constructions for identical subkeys is asserted by the
    // property tests in pesos-crypto.
    let aead = AeadKey::new(&[1u8; 32]);
    let nonce = pesos_crypto::aead::counter_nonce(1, 1);
    let (enc_key, mac_key) = ([2u8; 32], [3u8; 32]);
    let before = us_per_op(5_000, || {
        black_box(seal_uncached(&enc_key, &mac_key, &nonce, &payload));
    });
    let after = us_per_op(5_000, || {
        black_box(aead.seal(&nonce, b"", &payload));
    });
    delta("aead_seal_1kib", before, after);

    // The portable rounds against whatever this CPU dispatched to.
    let before = us_per_op(500, || {
        black_box(sha256_scalar(&large));
    });
    let after = us_per_op(500, || {
        black_box(sha256(&large));
    });
    delta(
        &format!("sha256_64kib scalar/{}", pesos_crypto::sha256::backend()),
        before,
        after,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
