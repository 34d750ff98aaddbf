//! Wire formats for the Pesos secure object store.
//!
//! Two independent pieces live here:
//!
//! * [`codec`] — a protobuf-compatible varint/field encoding used by the
//!   Kinetic drive protocol (the real drives speak Google Protocol Buffers;
//!   we hand-roll the subset we need so the substrate has no external
//!   dependencies).
//! * [`rest`] — the typed REST request/response model the Pesos controller
//!   exposes to clients (the original prototype embeds the Mongoose web
//!   server for the same purpose).
//!
//! Unmodelled: HTTP/1.1 framing of those REST messages and the TLS-like
//! channel that terminates inside the enclave. Clients here call the
//! dispatchers in process with typed requests, so nothing on the request
//! path crossed either.

pub mod codec;
pub mod error;
pub mod rest;

pub use codec::{FieldReader, FieldWriter, WireType};
pub use error::WireError;
pub use rest::{RestMethod, RestRequest, RestResponse, RestStatus};
