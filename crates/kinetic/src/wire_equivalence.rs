//! Property tests: the vectored wire path is byte-identical to the legacy
//! encoders for every command shape.
//!
//! `Command::encode` and `Envelope::seal_with`/`Envelope::encode` are kept
//! as deliberately independent implementations — the monolithic encoders
//! the vectored path replaced, compiled under `cfg(test)` only, which is
//! why these properties live inside the crate — precisely so they can serve
//! as the equivalence oracle here: for arbitrary commands, the scatter-gather
//! writer must produce the same command bytes, the same frame HMAC and the
//! same materialized frame, and the frame must still decode and verify
//! through the legacy byte path. Both encoders carry the batch list, and a
//! batch executes identically whether it reaches the drive as bytes
//! (`handle_frame`) or as a vectored envelope (`handle_envelope`).

#![cfg(test)]

use crate::{
    AccountSpec, BatchOp, Command, DriveConfig, Envelope, KineticDrive, MessageType, Payload,
    ResponseStatus, StatusCode, MAX_BATCH_OPS,
};
use pesos_crypto::HmacKey;
use proptest::prelude::*;

/// Small deterministic expander turning one seed into an arbitrary command
/// shape (SplitMix64; independent of the codec under test).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A byte vector of length `0..=max` — zero-length comes up often, so
    /// the empty-but-present encoding is exercised constantly.
    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let len = (self.next() as usize) % (max + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn ascii(&mut self, max: usize) -> String {
        self.bytes(max)
            .into_iter()
            .map(|b| (b'a' + b % 26) as char)
            .collect()
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn arbitrary_command(seed: u64) -> Command {
    const TYPES: [MessageType; 12] = [
        MessageType::Put,
        MessageType::Get,
        MessageType::Delete,
        MessageType::GetKeyRange,
        MessageType::Noop,
        MessageType::Security,
        MessageType::Setup,
        MessageType::GetLog,
        MessageType::PeerToPeerPush,
        MessageType::Flush,
        MessageType::Response,
        MessageType::Batch,
    ];
    const CODES: [StatusCode; 9] = [
        StatusCode::Success,
        StatusCode::NotFound,
        StatusCode::VersionMismatch,
        StatusCode::NotAuthorized,
        StatusCode::HmacFailure,
        StatusCode::InvalidRequest,
        StatusCode::NotAttempted,
        StatusCode::NoSpace,
        StatusCode::InternalError,
    ];

    let mut g = Gen(seed);
    let mut cmd = Command::request(TYPES[(g.next() as usize) % TYPES.len()]);
    cmd.connection_id = g.next();
    cmd.sequence = g.next() % 1_000_000;
    cmd.cluster_version = g.next() % 16;
    cmd.ack_sequence = g.next() % 1_000_000;

    let b = &mut cmd.body;
    b.key = g.bytes(32);
    b.value = Payload::from(g.bytes(600));
    b.db_version = g.bytes(6);
    b.new_version = g.bytes(6);
    b.force = g.flag();
    b.range_start = g.bytes(12);
    b.range_end = g.bytes(12);
    // Often zero: the explicit-zero encoding must round-trip.
    b.max_returned = if g.flag() { 0 } else { g.next() as u32 % 1000 };
    b.p2p_target = g.ascii(8);
    b.setup_new_cluster_version = g.flag().then(|| g.next());
    b.setup_erase = g.flag();
    b.log_type = g.ascii(10);
    for _ in 0..g.next() % 3 {
        let spec = AccountSpec {
            identity: g.next() as i64,
            secret: g.bytes(20),
            permissions: g.next() as u32 & 0xff,
        };
        b.security_accounts.push(spec);
    }

    // Any command may carry the batch list (the codec does not care about
    // the message type); batch commands always carry a non-empty one.
    let batch_ops = if cmd.message_type == MessageType::Batch {
        1 + g.next() as usize % MAX_BATCH_OPS
    } else {
        g.next() as usize % 3
    };
    let mut batch = Vec::with_capacity(batch_ops);
    for _ in 0..batch_ops {
        let op = if g.flag() {
            BatchOp::Put {
                key: g.bytes(24),
                // Often empty: the sub-operation's value is present-but-empty.
                value: Payload::from(if g.flag() { Vec::new() } else { g.bytes(400) }),
                db_version: g.bytes(6),
                new_version: g.bytes(6),
                force: g.flag(),
            }
        } else {
            BatchOp::Delete {
                key: g.bytes(24),
                db_version: g.bytes(6),
                force: g.flag(),
            }
        };
        batch.push(op);
    }
    b.batch = batch.into();

    cmd.status = ResponseStatus {
        code: CODES[(g.next() as usize) % CODES.len()],
        message: g.ascii(24),
    };
    cmd
}

proptest! {
    #[test]
    fn vectored_command_encoding_is_byte_identical_to_legacy(seed in any::<u64>()) {
        let cmd = arbitrary_command(seed);
        let legacy = cmd.encode();
        let vectored = cmd.encode_vectored();
        prop_assert_eq!(
            vectored.to_bytes(),
            legacy.clone(),
            "vectored chunks diverge from Command::encode for {:?}",
            cmd.message_type
        );
        prop_assert_eq!(vectored.encoded_len(), legacy.len());
        // Decoding the (shared) encoding reproduces the command, including
        // zero-length value/db_version/new_version and max_returned == 0.
        prop_assert_eq!(Command::decode(&legacy).unwrap(), cmd);
    }

    #[test]
    fn vectored_envelope_is_byte_identical_to_legacy(seed in any::<u64>()) {
        let cmd = arbitrary_command(seed);
        let key = HmacKey::new(&seed.to_be_bytes());
        let identity = (seed as i64) % 1000 - 500;

        let legacy = Envelope::seal_with(identity, &key, &cmd);
        let vectored = Envelope::seal_vectored(identity, &key, cmd);

        // Same frame HMAC, same materialized frame bytes.
        prop_assert_eq!(vectored.hmac().to_vec(), legacy.hmac.clone());
        prop_assert_eq!(vectored.encode(), legacy.encode());

        // The folded verification agrees with the full one.
        prop_assert!(vectored.verified_by(&key));
        let wrong = HmacKey::new(&(seed ^ 1).to_be_bytes());
        prop_assert!(!vectored.verified_by(&wrong));

        // A materialized vectored frame travels the legacy byte path
        // unchanged: decode, full HMAC verification, command round-trip.
        let decoded = Envelope::decode(&vectored.encode()).unwrap();
        prop_assert_eq!(decoded.identity, identity);
        prop_assert_eq!(
            decoded.open_with(&key).unwrap(),
            vectored.into_command()
        );
    }

    #[test]
    fn batches_execute_identically_on_the_bytes_and_vectored_paths(seed in any::<u64>()) {
        // The same generated batch, sealed both ways against two fresh
        // drives: same response status, same resulting drive contents.
        let mut g = Gen(seed);
        let ops: Vec<BatchOp> = (0..1 + g.next() as usize % MAX_BATCH_OPS)
            .map(|_| {
                // A small key space so sub-operations collide, CAS
                // preconditions sometimes hold and sometimes fail.
                let key = vec![b'k', g.next() as u8 % 4];
                if g.next() % 3 < 2 {
                    BatchOp::Put {
                        key,
                        value: Payload::from(g.bytes(64)),
                        db_version: if g.flag() { Vec::new() } else { b"v".to_vec() },
                        new_version: b"v".to_vec(),
                        force: g.flag(),
                    }
                } else {
                    BatchOp::Delete {
                        key,
                        db_version: b"v".to_vec(),
                        force: g.flag(),
                    }
                }
            })
            .collect();
        let mut cmd = Command::request(MessageType::Batch);
        cmd.body.batch = ops.into();
        let key = HmacKey::new(b"asdfasdf");

        let via_bytes = KineticDrive::new(DriveConfig::simulator("kd-bytes"));
        let frame = Envelope::seal_with(1, &key, &cmd).encode();
        let bytes_resp = Envelope::decode(&via_bytes.handle_frame(&frame))
            .unwrap()
            .open_with(&key)
            .unwrap();
        let via_vectored = KineticDrive::new(DriveConfig::simulator("kd-vectored"));
        let vectored_resp = via_vectored
            .handle_envelope(&Envelope::seal_vectored(1, &key, cmd))
            .into_command();

        prop_assert_eq!(&bytes_resp.status, &vectored_resp.status);
        prop_assert_eq!(via_bytes.key_count(), via_vectored.key_count());
        for k in 0..4u8 {
            prop_assert_eq!(via_bytes.peek(&[b'k', k]), via_vectored.peek(&[b'k', k]));
        }
        if !bytes_resp.status.code.is_success() {
            prop_assert_eq!(via_bytes.key_count(), 0, "a rejected batch left entries behind");
        }
    }
}
