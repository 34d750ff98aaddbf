//! The Pesos declarative policy language.
//!
//! A Pesos policy controls the three operations on an object — `read`,
//! `update` and `delete` — with one permission clause each. A permission is
//! a condition in disjunctive normal form over a small set of predicates
//! (paper Table 1): relational comparisons, certified external facts
//! (`certificateSays`), the authenticated session key (`sessionKeyIs`) and
//! object state (`objId`, `currVersion`, `nextVersion`, `objSize`,
//! `objPolicy`, `objHash`, `objSays`). Arguments are literals or variables;
//! variables bind on first use, which lets later predicates constrain
//! earlier bindings (e.g. `currVersion(o, V) ∧ nextVersion(V + 1)`).
//!
//! The pipeline mirrors the paper's implementation: policy text is parsed
//! ([`parser`]), compiled into a compact binary representation
//! ([`compiler`]) that is cached and stored on the Kinetic drives, and
//! evaluated against a request by the evaluator ([`interpreter`]). The
//! [`cache`] module provides the policy cache whose behaviour Figure 8
//! measures, an instance of the [`lfu`] table the object cache also runs
//! on; each of its entries also keeps the read decisions its policy made
//! ([`ReadMemo`]), which the store answers a repeated read from while the
//! records they consulted are unchanged.
//!
//! # Evaluation model
//!
//! A policy check matches, it does not parse. Four decisions make it so:
//!
//! * **Mode analysis.** A conjunction runs left to right over a flat table
//!   of binding slots, so whether a variable is bound when a predicate runs
//!   is a static fact of the policy text. When a policy is loaded — from
//!   text or from its stored bytes, so neither the bytes nor the
//!   [`PolicyId`] depend on it — one pass per conjunction follows the bound
//!   set and emits a typed instruction per predicate: each argument is
//!   either a value the predicate *needs* or a position it *unifies* (test
//!   what is known, bind what is not, match a tuple constructor field by
//!   field). Arity and mode live in the instruction's type; the evaluator
//!   is a `match`. A variable needed before anything can have bound it
//!   would fail every request, so the policy is refused at install
//!   ([`PolicyError::UnboundVariable`], with the variable and the source
//!   range of the call). The request binds the handles `THIS` and `LOG`;
//!   one it leaves unbound fails whatever names it.
//! * **The trail.** Bindings go into a fixed array of slots (on the stack
//!   for up to sixteen variables). Each bound slot remembers the one bound
//!   before it, which threads an undo trail through the slots themselves:
//!   a candidate that fails — a log line, a certificate claim, a
//!   certificate, a conjunction — pops what it bound. Nothing is
//!   snapshotted or cloned.
//! * **In-place matching.** The view lends the bytes of a log object as it
//!   caches them (an `Arc`, no copy). `objSays` walks the lines with a
//!   borrowing tokenizer ([`TupleText`]) and compares name, arity and each
//!   tested field against the text as it scans; `certificateSays` does the
//!   same over a certificate's claims. Slots hold borrowed values
//!   ([`ValueRef`]) wherever the owner outlives the evaluation — the
//!   session key, the object key, a policy literal, a claim — and a copy is
//!   made only when a variable captures a field of a log line. A granted
//!   check of a MAL-style read policy allocates nothing, however long the
//!   log; a denied one allocates its reason.
//! * **No parsed-tuple cache.** Keeping parsed tuples beside the object
//!   cache would buy back the same time at the price of memory inside the
//!   enclave, an invalidation rule tied to every write path and a size to
//!   tune. Matching in place needs none of the three: the only cached form
//!   of a log is the bytes the object cache already holds.
//!
//! A lookup the store cannot answer (a drive fault) is a [`ViewFault`], not
//! an absence: [`CompiledPolicy::evaluate_request`] then returns no
//! decision at all. The dynamic-mode interpreter these instructions
//! replaced survives under `cfg(test)` as the oracle of a differential
//! property test (same decision, same matched conjunction, same final
//! bindings, over generated policies, requests and views).
//!
//! # Example
//!
//! ```
//! use pesos_policy::{compile, Operation, RequestContext, StaticObjectView};
//!
//! let policy = compile(
//!     "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
//!      update :- sessionKeyIs(\"alice\")\n\
//!      delete :- sessionKeyIs(\"admin\")",
//! )
//! .unwrap();
//!
//! let view = StaticObjectView::default();
//! let ctx = RequestContext::new(Operation::Read).with_session_key("bob");
//! assert!(policy.evaluate(Operation::Read, &ctx, &view).allowed);
//! let ctx = RequestContext::new(Operation::Delete).with_session_key("bob");
//! assert!(!policy.evaluate(Operation::Delete, &ctx, &view).allowed);
//! ```

pub mod ast;
pub mod cache;
pub mod compiler;
pub mod context;
pub mod error;
pub mod interpreter;
pub mod lexer;
pub mod lfu;
mod oracle;
pub mod parser;
pub mod predicates;
mod program;
pub mod sharded;
pub mod value;

pub use ast::{Condition, Conjunction, Expr, PolicyAst, PredicateCall};
pub use cache::{PolicyCache, ReadMemo};
pub use compiler::{compile, CompiledPolicy, PolicyId};
pub use context::{ObjectFacts, Operation, Request, RequestContext, StaticObjectView};
pub use error::{PolicyError, Span, ViewFault};
pub use interpreter::{Decision, ObjectStoreView};
pub use lfu::CacheStats;
pub use predicates::Predicate;
pub use sharded::{ShardKey, Sharded};
pub use value::{Tuple, TupleText, Value, ValueRef};
