//! The stored form of a policy does not depend on how it is evaluated or
//! held: every policy of `examples/` and the benchmark's `policy_source(0)`
//! compiles to the bytes, and so the [`PolicyId`], it compiled to before the
//! evaluator ran typed instructions (values captured at that commit), and
//! three more sources that use every predicate and literal form compile to
//! what they did while a policy kept its decoded tree (captured at that
//! commit). A loaded policy hashes its bytes once; reading its bytes or
//! identifier afterwards hashes nothing.
//!
//! One test: the compression counter is process-wide.

use pesos_crypto::sha256::ops;
use pesos_crypto::KeyPair;
use pesos_policy::{compile, CompiledPolicy, PolicyId};

fn sources() -> Vec<(&'static str, String)> {
    let ca = KeyPair::from_seed(b"example-ca");
    let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());
    vec![
        (
            "examples/content_server.rs",
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             destroy :- sessionKeyIs(\"admin\")"
                .into(),
        ),
        (
            "examples/quickstart.rs",
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")"
                .into(),
        ),
        (
            "examples/mandatory_access_logging.rs",
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"alice\")"
                .into(),
        ),
        (
            "examples/time_capsule.rs",
            format!(
                "update :- certificateSays(\"{ca_hex}\", 'ts'(TSKEY)) and \
                 certificateSays(TSKEY, 'time'(T)) and ge(T, 1700000000)\n\
                 read :- sessionKeyIs(U)\n\
                 delete :- sessionKeyIs(\"archivist\")"
            ),
        ),
        (
            "examples/versioned_store.rs",
            "update :- ( objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1) ) \
             or ( objId(this, NULL) and nextVersion(0) )\n\
             read :- sessionKeyIs(U)\n\
             delete :- sessionKeyIs(\"writer\")"
                .into(),
        ),
        (
            "benchmark/src/target.rs::policy_source(0)",
            "read :- objId(LOG, L) and sessionKeyIs(U) and objSays(L, LV, 'grant'(U, 0))\n\
             update :- objId(THIS, O) and currVersion(O, CV) and nextVersion(CV + 1) and sessionKeyIs(\"writer\")\n\
             delete :- sessionKeyIs(\"writer\")"
                .into(),
        ),
        (
            "certificates and log tuples",
            "update :- certificateSays(\"ca-key\", 300, 'time'(T)) and ge(T, 1650000000)\n\
             read :- objSays(LOG, V, 'read'(O, V2, U)) and objId(THIS, O)"
                .into(),
        ),
        (
            "every per-version fact, negative and nested literals, null",
            "read :- objId(THIS, O) and currVersion(O, V) and objSize(O, V, S) and le(S, 4096) and \
                     objHash(O, V, H) and objPolicy(O, V, P) and eq(X, -17) and lt(X + 3, 0)\n\
             update :- objId(this, NULL) and nextVersion(0) and sessionKeyIs(\"a b\") or \
                       sessionKeyIs(U) and eq(U, 'pair'(1, \"two\", 'nested'(-3)))\n\
             delete :- eq(1, 2)"
                .into(),
        ),
        (
            "a write log over two versions",
            "update :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and nextVersion(V + 1) and \
                       objHash(O, V, CH) and objHash(O, V + 1, NH) and \
                       objSays(L, LV, 'write'(O, V, CH, NH, U)) and gt(LV, 0) and ge(V, 0)"
                .into(),
        ),
    ]
}

/// `(stored bytes, policy id)` per source, in the order of [`sources`].
const AT_THE_PARENT: [(usize, &str); 9] = [
    (
        78,
        "8786d53b2d8228ccb9d23d6ca8e41b093928f35ca4c4084ea434612271cad061",
    ),
    (
        78,
        "24fc8c6a5e2ce4e0b5974a08c44406248a075d3376f635ef697cb60d4ce063e1",
    ),
    (
        151,
        "ab1115957e5de528bad8310ebec7639ad93a116a51c914bb5ffb140b9049581f",
    ),
    (
        180,
        "54d03b82f7ed1cccaece91af8977d2a9a3ab2840a9fe07670889517f751d40cb",
    ),
    (
        124,
        "e4f61f25c5812ec76c0efeb87e7d336734179e3eb9e8f4689aa60b3ec59b610e",
    ),
    (
        169,
        "665cff89d4737362366e86bbcf5b976db50d4ce32db9933676b04a8efb806fed",
    ),
    (
        136,
        "d0153196ed740a255a44d935585a0ff9ce378a849c3ed18a697ce5698a98d07d",
    ),
    (
        278,
        "928317b485076ba4394eeee54f828ce11a067fe372d64f7dcc3d4ff54bed37d8",
    ),
    (
        204,
        "3baaa6296d3ad793812c59cd0c37aa2fa57b96f0c9cb6dfe826a934efa46443f",
    ),
];

fn compressions<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ops::compressions();
    let out = f();
    (out, ops::compressions() - before)
}

/// Compressions of one SHA-256 over `len` bytes.
fn blocks(len: usize) -> u64 {
    (len as u64 + 9).div_ceil(64)
}

#[test]
fn stored_bytes_and_ids_are_what_they_were() {
    for ((origin, source), (length, id)) in sources().into_iter().zip(AT_THE_PARENT) {
        let (policy, compiled) = compressions(|| compile(&source));
        let policy = policy.unwrap_or_else(|e| panic!("{origin}: {e}"));
        let (bytes, read) = compressions(|| (policy.to_bytes(), policy.id()));
        let (bytes, read_id) = bytes;
        assert_eq!(bytes.len(), length, "{origin}");
        assert_eq!(read_id.to_hex(), id, "{origin}");
        assert_eq!(read_id, PolicyId(pesos_crypto::sha256(&bytes)), "{origin}");
        assert_eq!(compiled, blocks(length), "{origin}: compiling hashes once");
        assert_eq!(read, 0, "{origin}: bytes and id are kept, not recomputed");
        // And the bytes load back into the same policy, instructions and all.
        let (loaded, load) = compressions(|| CompiledPolicy::from_bytes(&bytes).unwrap());
        assert_eq!(loaded, policy, "{origin}");
        assert_eq!(load, blocks(length), "{origin}: loading hashes once");
    }
}
