//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use pesos::crypto::{hex_decode, hex_encode, sha256, AeadKey, HmacKey, HmacSha256, Sha256};
use pesos::policy::{compile, CompiledPolicy, Operation, RequestContext, StaticObjectView};
use pesos::wire::codec::{read_varint, write_varint, FieldReader, FieldWriter};
use pesos::{ControllerConfig, PesosController};

proptest! {
    #[test]
    fn varint_round_trips(value in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        let (decoded, consumed) = read_varint(&buf).unwrap();
        prop_assert_eq!(decoded, value);
        prop_assert_eq!(consumed, buf.len());
    }

    #[test]
    fn field_codec_round_trips(num in 1u32..1000, s in ".{0,64}", b in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut w = FieldWriter::new();
        w.string(num, &s).bytes(num + 1, &b);
        let encoded = w.finish();
        let fields = FieldReader::new(&encoded).collect_fields().unwrap();
        prop_assert_eq!(fields.len(), 2);
        prop_assert_eq!(fields[0].as_str().unwrap(), s.as_str());
        prop_assert_eq!(fields[1].data, &b[..]);
    }

    #[test]
    fn hex_round_trips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
    }

    #[test]
    fn sha256_is_deterministic_and_length_sensitive(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let a = sha256(&data);
        prop_assert_eq!(a, sha256(&data));
        let mut extended = data.clone();
        extended.push(0);
        prop_assert_ne!(a, sha256(&extended));
    }

    #[test]
    fn hmac_detects_any_single_bit_flip(key in proptest::collection::vec(any::<u8>(), 1..64),
                                        data in proptest::collection::vec(any::<u8>(), 1..256),
                                        flip in any::<usize>()) {
        let tag = HmacSha256::mac(&key, &data);
        let mut tampered = data.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 1;
        prop_assert!(HmacSha256::verify(&key, &data, &tag));
        prop_assert!(!HmacSha256::verify(&key, &tampered, &tag));
    }

    #[test]
    fn aead_round_trips_and_rejects_tampering(key in any::<[u8; 32]>(),
                                              aad in proptest::collection::vec(any::<u8>(), 0..32),
                                              plaintext in proptest::collection::vec(any::<u8>(), 0..512),
                                              seq in any::<u64>()) {
        let aead = AeadKey::new(&key);
        let nonce = pesos::crypto::aead::counter_nonce(1, seq);
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        prop_assert_eq!(aead.open(&sealed, &aad).unwrap(), plaintext.clone());
        if !plaintext.is_empty() {
            let mut tampered = sealed.clone();
            tampered.ciphertext[0] ^= 1;
            prop_assert!(aead.open(&tampered, &aad).is_err());
        }
    }

    #[test]
    fn compiled_policies_round_trip_through_binary(a in 0i64..1000, b in 0i64..1000, name in "[a-z]{1,8}") {
        let src = format!(
            "read :- eq({a}, {a}) and ge({b}, 0) or sessionKeyIs(\"{name}\")\nupdate :- sessionKeyIs(\"{name}\")"
        );
        let policy = compile(&src).unwrap();
        let decoded = CompiledPolicy::from_bytes(&policy.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &policy);
        prop_assert_eq!(decoded.id(), policy.id());
    }

    #[test]
    fn acl_policies_only_admit_listed_clients(owner in "[a-z]{1,8}", other in "[a-z]{1,8}") {
        prop_assume!(owner != other);
        let policy = compile(&format!("read :- sessionKeyIs(\"{owner}\")")).unwrap();
        let view = StaticObjectView::default();
        let ctx = RequestContext::new(Operation::Read).with_session_key(owner.clone());
        prop_assert!(policy.evaluate(Operation::Read, &ctx, &view).allowed);
        let ctx = RequestContext::new(Operation::Read).with_session_key(other.clone());
        prop_assert!(!policy.evaluate(Operation::Read, &ctx, &view).allowed);
    }

    #[test]
    fn replicated_mutations_leave_exactly_the_modelled_drive_state(
        ops in proptest::collection::vec((0usize..5, 0u8..3, proptest::collection::vec(any::<u8>(), 1..48)), 1..12)
    ) {
        // Replay one random put/overwrite/delete sequence against a
        // replicated controller and a tiny reference model (key -> values
        // since the last delete), then require every drive to hold exactly
        // the modelled key set — each live key's versions, its head and its
        // sealed history segments on its placement drives, nothing anywhere
        // else — with replicas
        // byte-identical and every version reading back its plaintext.
        let mut config = ControllerConfig::native_simulator(3);
        config.replication_factor = 2;
        let controller = PesosController::new(config).expect("bootstrap");
        let client = controller.register_client("replayer");
        let mut model: std::collections::BTreeMap<String, Vec<Vec<u8>>> = Default::default();
        for (key_index, op, value) in &ops {
            let key = format!("obj/{key_index}");
            if op % 3 == 2 {
                let deleted = controller.delete(&client, &key, &[]);
                prop_assert_eq!(deleted.is_ok(), model.remove(&key).is_some());
            } else {
                let versions = model.entry(key.clone()).or_default();
                let version = controller
                    .put(&client, &key, value.clone(), None, None, &[])
                    .unwrap();
                prop_assert_eq!(version, versions.len() as u64);
                versions.push(value.clone());
            }
        }

        let store = controller.store();
        let mut expected: Vec<std::collections::BTreeSet<Vec<u8>>> = vec![Default::default(); 3];
        for (key, versions) in &model {
            for drive in pesos::core::placement(key, 3, 2) {
                expected[drive].insert(pesos::core::metadata::meta_key(key));
                for version in 0..versions.len() as u64 {
                    expected[drive].insert(pesos::core::metadata::data_key(key, version));
                }
                // Every full run of SEGMENT_LEN versions is a sealed segment.
                let sealed = versions.len() / pesos::core::metadata::SEGMENT_LEN;
                for first in (0..sealed).map(|s| (s * pesos::core::metadata::SEGMENT_LEN) as u64) {
                    expected[drive].insert(pesos::core::metadata::segment_key(key, first));
                }
            }
        }
        for (drive, expected) in store.drives().iter().zip(&expected) {
            prop_assert_eq!(drive.key_count(), expected.len(), "stray or missing keys on {}", drive.id());
            for raw_key in expected {
                prop_assert!(drive.peek(raw_key).is_some(), "{} lacks {:?}", drive.id(), String::from_utf8_lossy(raw_key));
            }
        }
        for (key, versions) in &model {
            let replicas = pesos::core::placement(key, 3, 2);
            for (version, value) in versions.iter().enumerate() {
                let raw_key = pesos::core::metadata::data_key(key, version as u64);
                let copies: Vec<_> = replicas
                    .iter()
                    .map(|&d| store.drives().get(d).unwrap().peek(&raw_key).unwrap())
                    .collect();
                prop_assert!(copies.windows(2).all(|w| w[0] == w[1]), "replica bytes diverged for {} v{}", key, version);
                prop_assert_eq!(&store.get_object_version(key.as_str(), version as u64).unwrap(), value);
            }
        }
    }

    #[test]
    fn placement_is_deterministic_and_balanced(keys in proptest::collection::vec("[a-z0-9]{1,16}", 1..50),
                                               drives in 1usize..8, factor in 1usize..4) {
        for key in &keys {
            let a = pesos::core::placement(key, drives, factor);
            let b = pesos::core::placement(key, drives, factor);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.len(), factor.min(drives));
            prop_assert!(a.iter().all(|&i| i < drives));
            // Replica sets contain no duplicates.
            let unique: std::collections::HashSet<_> = a.iter().collect();
            prop_assert_eq!(unique.len(), a.len());
        }
    }

    // ------------------------------------------------------------------
    // Digest-pipeline equivalences: every cached/midstate path must be
    // byte-identical to the from-scratch construction it replaced.
    // ------------------------------------------------------------------

    #[test]
    fn cached_hmac_key_matches_one_shot_mac(key in proptest::collection::vec(any::<u8>(), 0..130),
                                            msg in proptest::collection::vec(any::<u8>(), 0..300)) {
        let cached = HmacKey::new(&key);
        let tag = cached.mac(&msg);
        prop_assert_eq!(tag, HmacSha256::mac(&key, &msg));
        prop_assert!(cached.verify(&msg, &tag));
        // The cached key survives reuse: a second MAC is identical.
        prop_assert_eq!(cached.mac(&msg), tag);
    }

    #[test]
    fn sha256_midstate_clone_matches_fresh_hash(prefix in proptest::collection::vec(any::<u8>(), 0..200),
                                                suffix in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut mid = Sha256::new();
        mid.update(&prefix);
        let mut h = mid.clone();
        h.update(&suffix);
        let joined: Vec<u8> = prefix.iter().chain(suffix.iter()).copied().collect();
        prop_assert_eq!(h.finalize(), sha256(&joined));
        // The midstate itself is unconsumed and reusable.
        let mut again = mid.clone();
        again.update(&suffix);
        prop_assert_eq!(again.finalize(), sha256(&joined));
    }

    #[test]
    fn hashed_key_is_equivalent_to_direct_hashing(key in "[ -~]{0,40}",
                                                  drives in 1usize..200,
                                                  factor in 1usize..5,
                                                  shards in 1usize..64,
                                                  online_mask in any::<u64>()) {
        use pesos::core::HashedKey;
        let hashed = HashedKey::new(&key);
        prop_assert_eq!(hashed.hash(), pesos::core::key_hash(&key));
        prop_assert_eq!(hashed.shard(shards), pesos::core::placement::shard_index(&key, shards));
        prop_assert_eq!(
            pesos::core::placement(&hashed, drives, factor),
            pesos::core::placement(key.as_str(), drives, factor)
        );
        // placement_available over an online predicate equals a naive
        // linear-scan reference for arbitrary online subsets.
        let is_online = |i: usize| online_mask & (1 << (i % 64)) != 0;
        let online: Vec<usize> = (0..drives).filter(|&i| is_online(i)).collect();
        let got = pesos::core::placement::placement_available(&hashed, drives, factor, is_online);
        let expected = {
            if online.is_empty() {
                Vec::new()
            } else {
                let f = factor.clamp(1, drives);
                let primary = (hashed.hash() % drives as u64) as usize;
                let mut out = Vec::new();
                for off in 0..drives {
                    let idx = (primary + off) % drives;
                    if online.contains(&idx) {
                        out.push(idx);
                        if out.len() == f {
                            break;
                        }
                    }
                }
                out
            }
        };
        prop_assert_eq!(got, expected);
    }
}
