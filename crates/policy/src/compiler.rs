//! The policy compiler and the compact binary policy format.
//!
//! Submitted policy text is compiled once into a [`CompiledPolicy`]:
//! predicate names are resolved to opcodes, arities are checked, and
//! variables are interned to dense indices so that evaluation uses a flat
//! binding table instead of hash lookups — this is the "compact binary
//! representation ... which allows for fast permission checking" of paper
//! §3.1. The compiled form serializes to bytes ([`CompiledPolicy::to_bytes`])
//! for storage on the Kinetic drives and is identified by the SHA-256 of
//! that encoding ([`PolicyId`]), which is also what the `objPolicy`
//! predicate compares against.
//!
//! Whenever a policy is loaded — compiled from text or decoded from its
//! stored bytes — the mode analysis (`program.rs`) turns that stored form
//! into the typed instructions the evaluator runs. The instructions are
//! derived, never stored: bytes and identifiers depend only on the form
//! above. A loaded policy keeps its bytes and identifier, not the decoded
//! tree: the tree lives only while the policy loads.

use std::collections::BTreeMap;

use pesos_wire::codec::{Field, FieldReader, FieldWriter};

use crate::ast::{Expr, PolicyAst};
use crate::context::Operation;
use crate::error::{PolicyError, Span};
use crate::parser::{parse, LOG_VAR, THIS_VAR};
use crate::predicates::Predicate;
use crate::program::{self, Instr, Program};
use crate::value::{Tuple, Value};

/// Identifier of a compiled policy: the SHA-256 of its binary encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PolicyId(pub [u8; 32]);

impl PolicyId {
    /// Hex form, used in REST requests and logs.
    pub fn to_hex(&self) -> String {
        pesos_crypto::hex_encode(&self.0)
    }

    /// Parses the hex form.
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = pesos_crypto::hex_decode(s).ok()?;
        bytes.try_into().ok().map(PolicyId)
    }
}

/// A compiled argument expression with interned variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledExpr {
    /// A literal value.
    Literal(Value),
    /// A variable slot index.
    Var(u16),
    /// Integer addition.
    Add(Box<CompiledExpr>, Box<CompiledExpr>),
    /// A tuple constructor.
    Tuple(String, Vec<CompiledExpr>),
}

/// A compiled predicate call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPredicate {
    /// The resolved predicate.
    pub predicate: Predicate,
    /// Compiled arguments.
    pub args: Vec<CompiledExpr>,
}

/// A compiled conjunction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledConjunction {
    /// Predicates evaluated left to right.
    pub predicates: Vec<CompiledPredicate>,
}

/// A compiled DNF condition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledCondition {
    /// Alternative conjunctions.
    pub conjunctions: Vec<CompiledConjunction>,
}

/// Conditions per operation.
pub(crate) type Permissions = BTreeMap<Operation, CompiledCondition>;

/// A fully compiled policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPolicy {
    /// The stored form, as the drives hold it.
    bytes: Vec<u8>,
    /// The SHA-256 of `bytes`.
    id: PolicyId,
    /// Interned variable names; index = variable slot.
    pub variables: Vec<String>,
    /// Slot of the `THIS` handle, if referenced.
    pub this_slot: Option<u16>,
    /// Slot of the `LOG` handle, if referenced.
    pub log_slot: Option<u16>,
    /// The operations whose condition references `nextVersion`.
    versioned: Vec<Operation>,
    /// What the evaluator runs: the stored conditions after mode analysis.
    pub(crate) program: Program,
}

/// Compiles policy source text.
pub fn compile(source: &str) -> Result<CompiledPolicy, PolicyError> {
    let (permissions, variables, spans) = intern(&parse(source)?)?;
    let bytes = encode(&permissions, &variables);
    CompiledPolicy::load(bytes, &permissions, variables, &spans)
}

/// The stored form of `ast` — predicate names resolved, arities checked,
/// variables interned — and the source range of each predicate call in
/// visiting order.
pub(crate) fn intern(
    ast: &PolicyAst,
) -> Result<(Permissions, Vec<String>, Vec<Span>), PolicyError> {
    let mut variables: Vec<String> = Vec::new();
    let mut permissions = BTreeMap::new();
    let mut spans = Vec::new();

    for (op, condition) in &ast.permissions {
        let mut compiled_condition = CompiledCondition::default();
        for conjunction in &condition.conjunctions {
            let mut compiled_conjunction = CompiledConjunction::default();
            for call in &conjunction.predicates {
                let predicate = Predicate::resolve(&call.name)?;
                predicate.check_arity(call.args.len())?;
                let args = call
                    .args
                    .iter()
                    .map(|a| intern_expr(a, &mut variables))
                    .collect();
                compiled_conjunction
                    .predicates
                    .push(CompiledPredicate { predicate, args });
                spans.push(call.span);
            }
            compiled_condition.conjunctions.push(compiled_conjunction);
        }
        permissions.insert(*op, compiled_condition);
    }
    Ok((permissions, variables, spans))
}

fn intern_var(name: &str, variables: &mut Vec<String>) -> u16 {
    match variables.iter().position(|v| v == name) {
        Some(i) => i as u16,
        None => {
            variables.push(name.to_string());
            (variables.len() - 1) as u16
        }
    }
}

fn intern_expr(expr: &Expr, variables: &mut Vec<String>) -> CompiledExpr {
    match expr {
        Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
        Expr::Variable(name) => CompiledExpr::Var(intern_var(name, variables)),
        Expr::Add(a, b) => CompiledExpr::Add(
            Box::new(intern_expr(a, variables)),
            Box::new(intern_expr(b, variables)),
        ),
        Expr::Tuple(name, args) => CompiledExpr::Tuple(
            name.clone(),
            args.iter().map(|a| intern_expr(a, variables)).collect(),
        ),
    }
}

impl CompiledPolicy {
    /// A policy from its stored form, `bytes` and the tree they encode:
    /// hashes the identifier, locates the handles and runs the mode
    /// analysis, which refuses a conjunction that could never hold.
    fn load(
        bytes: Vec<u8>,
        permissions: &Permissions,
        variables: Vec<String>,
        spans: &[Span],
    ) -> Result<Self, PolicyError> {
        let slot_of = |name: &str| {
            variables
                .iter()
                .position(|v| v == name)
                .and_then(|i| u16::try_from(i).ok())
        };
        let this_slot = slot_of(THIS_VAR);
        let log_slot = slot_of(LOG_VAR);
        let program = program::analyse(permissions, &variables, [this_slot, log_slot], spans)?;
        let versioned = program
            .iter()
            .filter(|(_, conjunctions)| {
                conjunctions
                    .iter()
                    .flatten()
                    .any(|instr| matches!(instr, Instr::NextVersion(_)))
            })
            .map(|(operation, _)| *operation)
            .collect();
        Ok(CompiledPolicy {
            id: PolicyId(pesos_crypto::sha256(&bytes)),
            bytes,
            variables,
            this_slot,
            log_slot,
            versioned,
            program,
        })
    }

    /// Number of variable slots the evaluation environment needs.
    pub fn slot_count(&self) -> usize {
        self.variables.len()
    }

    /// The policy identifier (hash of the binary encoding).
    pub fn id(&self) -> PolicyId {
        self.id
    }

    /// Whether the condition for `operation` constrains the version being
    /// written (references `nextVersion`). Enforcement uses this to decide
    /// if the version a policy approved must also be re-validated
    /// atomically at write time.
    pub fn constrains_version(&self, operation: Operation) -> bool {
        self.versioned.contains(&operation)
    }

    /// The stored form of the policy.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Parses a serialized compiled policy.
    pub fn from_bytes(data: &[u8]) -> Result<Self, PolicyError> {
        let (permissions, variables) = decode(data)?;
        CompiledPolicy::load(data.to_vec(), &permissions, variables, &[])
    }
}

/// The stored form of `permissions` over `variables`.
fn encode(permissions: &Permissions, variables: &[String]) -> Vec<u8> {
    let mut w = FieldWriter::new();
    for name in variables {
        w.string(1, name);
    }
    for (op, condition) in permissions {
        let mut cond_w = FieldWriter::new();
        cond_w.uint64(
            1,
            match op {
                Operation::Read => 1,
                Operation::Update => 2,
                Operation::Delete => 3,
            },
        );
        for conjunction in &condition.conjunctions {
            let mut conj_w = FieldWriter::new();
            for predicate in &conjunction.predicates {
                let mut pred_w = FieldWriter::new();
                pred_w.uint64(1, predicate.predicate.code() as u64);
                for arg in &predicate.args {
                    let mut expr_w = FieldWriter::new();
                    encode_expr(arg, &mut expr_w);
                    pred_w.message(2, &expr_w);
                }
                conj_w.message(1, &pred_w);
            }
            cond_w.message(2, &conj_w);
        }
        w.message(2, &cond_w);
    }
    w.finish()
}

/// The fields of one stored message.
fn fields_of(data: &[u8]) -> Result<Vec<Field<'_>>, PolicyError> {
    FieldReader::new(data)
        .collect_fields()
        .map_err(|e| PolicyError::CorruptBinary(e.to_string()))
}

/// A string field, `what` naming it in the error.
fn text(field: &Field<'_>, what: &str) -> Result<String, PolicyError> {
    let utf8 = field.as_str().map(str::to_string);
    utf8.map_err(|_| PolicyError::CorruptBinary(format!("{what} not UTF-8")))
}

/// The tree and variable names a stored form encodes.
pub(crate) fn decode(data: &[u8]) -> Result<(Permissions, Vec<String>), PolicyError> {
    let corrupt = |msg: &str| PolicyError::CorruptBinary(msg.to_string());
    let fields = fields_of(data)?;

    let mut variables = Vec::new();
    let mut permissions = BTreeMap::new();

    for field in fields {
        match field.number {
            1 => variables.push(text(&field, "variable name")?),
            2 => {
                let mut op = None;
                let mut condition = CompiledCondition::default();
                for f in fields_of(field.data)? {
                    match f.number {
                        1 => {
                            op = Some(match f.value {
                                1 => Operation::Read,
                                2 => Operation::Update,
                                3 => Operation::Delete,
                                other => {
                                    return Err(corrupt(&format!("unknown operation code {other}")))
                                }
                            })
                        }
                        2 => {
                            let mut conjunction = CompiledConjunction::default();
                            for pf in fields_of(f.data)? {
                                if pf.number == 1 {
                                    conjunction.predicates.push(decode_predicate(pf.data)?);
                                }
                            }
                            condition.conjunctions.push(conjunction);
                        }
                        _ => {}
                    }
                }
                let op = op.ok_or_else(|| corrupt("condition missing operation"))?;
                permissions.insert(op, condition);
            }
            _ => {}
        }
    }

    Ok((permissions, variables))
}

fn encode_expr(expr: &CompiledExpr, w: &mut FieldWriter) {
    match expr {
        CompiledExpr::Literal(v) => {
            let mut vw = FieldWriter::new();
            encode_value(v, &mut vw);
            w.message(1, &vw);
        }
        CompiledExpr::Var(slot) => {
            w.uint64(2, *slot as u64 + 1);
        }
        CompiledExpr::Add(a, b) => {
            let mut aw = FieldWriter::new();
            encode_expr(a, &mut aw);
            let mut bw = FieldWriter::new();
            encode_expr(b, &mut bw);
            w.message(3, &aw);
            w.message(4, &bw);
        }
        CompiledExpr::Tuple(name, args) => {
            w.string(5, name);
            for arg in args {
                let mut aw = FieldWriter::new();
                encode_expr(arg, &mut aw);
                w.message(6, &aw);
            }
        }
    }
}

fn decode_expr(data: &[u8]) -> Result<CompiledExpr, PolicyError> {
    let fields = fields_of(data)?;
    let mut add_lhs = None;
    let mut add_rhs = None;
    let mut tuple_name: Option<String> = None;
    let mut tuple_args = Vec::new();
    for f in &fields {
        match f.number {
            1 => return decode_value(f.data).map(CompiledExpr::Literal),
            2 => {
                return f
                    .value
                    .checked_sub(1)
                    .and_then(|slot| u16::try_from(slot).ok())
                    .map(CompiledExpr::Var)
                    .ok_or_else(|| PolicyError::CorruptBinary("variable slot".into()))
            }
            3 => add_lhs = Some(decode_expr(f.data)?),
            4 => add_rhs = Some(decode_expr(f.data)?),
            5 => tuple_name = Some(text(f, "tuple name")?),
            6 => tuple_args.push(decode_expr(f.data)?),
            _ => {}
        }
    }
    if let (Some(a), Some(b)) = (add_lhs, add_rhs) {
        return Ok(CompiledExpr::Add(Box::new(a), Box::new(b)));
    }
    if let Some(name) = tuple_name {
        return Ok(CompiledExpr::Tuple(name, tuple_args));
    }
    Err(PolicyError::CorruptBinary("empty expression".into()))
}

fn decode_predicate(data: &[u8]) -> Result<CompiledPredicate, PolicyError> {
    let fields = fields_of(data)?;
    let mut predicate = None;
    let mut args = Vec::new();
    for f in fields {
        match f.number {
            1 => predicate = Some(Predicate::from_code(f.value as u8)?),
            2 => args.push(decode_expr(f.data)?),
            _ => {}
        }
    }
    let predicate =
        predicate.ok_or_else(|| PolicyError::CorruptBinary("predicate missing opcode".into()))?;
    predicate.check_arity(args.len())?;
    Ok(CompiledPredicate { predicate, args })
}

fn encode_value(value: &Value, w: &mut FieldWriter) {
    match value {
        Value::Int(i) => {
            w.sint64(1, *i);
        }
        Value::Str(s) => {
            w.string(2, s);
        }
        Value::Hash(h) => {
            w.bytes(3, h);
        }
        Value::PubKey(k) => {
            w.string(4, k);
        }
        Value::Null => {
            w.boolean(5, true);
        }
        Value::Tuple(t) => {
            let mut tw = FieldWriter::new();
            tw.string(1, &t.name);
            for arg in &t.args {
                let mut aw = FieldWriter::new();
                encode_value(arg, &mut aw);
                tw.message(2, &aw);
            }
            w.message(6, &tw);
        }
    }
}

fn decode_value(data: &[u8]) -> Result<Value, PolicyError> {
    let fields = fields_of(data)?;
    for f in &fields {
        match f.number {
            1 => return Ok(Value::Int(f.as_sint64())),
            2 => return text(f, "string").map(Value::Str),
            3 => return Ok(Value::Hash(f.data.to_vec())),
            4 => return text(f, "key").map(Value::PubKey),
            5 => return Ok(Value::Null),
            6 => {
                let mut name = String::new();
                let mut args = Vec::new();
                for tf in fields_of(f.data)? {
                    match tf.number {
                        1 => name = text(&tf, "tuple name")?,
                        2 => args.push(decode_value(tf.data)?),
                        _ => {}
                    }
                }
                return Ok(Value::Tuple(Box::new(Tuple::new(name, args))));
            }
            _ => {}
        }
    }
    Err(PolicyError::CorruptBinary("empty value".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERSIONED: &str =
        "update :- ( objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1) ) \
         or ( objId(this, NULL) and nextVersion(0) )\n\
         read :- sessionKeyIs(U)";

    #[test]
    fn compiles_and_interns_variables() {
        let p = compile(VERSIONED).unwrap();
        assert!(p.slot_count() >= 3);
        assert!(p.this_slot.is_some());
        assert!(p.log_slot.is_none());
        assert!(p.variables.contains(&"CV".to_string()));
    }

    #[test]
    fn constrains_version_detects_next_version_use() {
        let p = compile(VERSIONED).unwrap();
        assert!(p.constrains_version(Operation::Update));
        assert!(!p.constrains_version(Operation::Read));
        let acl = compile("update :- sessionKeyIs(\"alice\")").unwrap();
        assert!(!acl.constrains_version(Operation::Update));
        assert!(!acl.constrains_version(Operation::Delete));
    }

    #[test]
    fn unknown_predicate_rejected() {
        assert!(matches!(
            compile("read :- teleport(X)"),
            Err(PolicyError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn wrong_arity_rejected() {
        assert!(matches!(
            compile("read :- sessionKeyIs(A, B)"),
            Err(PolicyError::WrongArity { .. })
        ));
        assert!(matches!(
            compile("read :- eq(1)"),
            Err(PolicyError::WrongArity { .. })
        ));
    }

    #[test]
    fn binary_round_trip() {
        let p = compile(VERSIONED).unwrap();
        let bytes = p.to_bytes();
        let decoded = CompiledPolicy::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.id(), p.id());
    }

    #[test]
    fn binary_round_trip_with_tuples_and_certs() {
        let src = "update :- certificateSays(\"ca-key\", 300, 'time'(T)) and ge(T, 1650000000)\n\
                   read :- objSays(LOG, V, 'read'(O, V2, U)) and objId(THIS, O)";
        let p = compile(src).unwrap();
        let decoded = CompiledPolicy::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(decoded, p);
        assert!(decoded.log_slot.is_some());
    }

    #[test]
    fn corrupt_binaries_rejected() {
        assert!(CompiledPolicy::from_bytes(b"garbage data here").is_err());
        let p = compile("read :- eq(1, 1)").unwrap();
        let mut bytes = p.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(CompiledPolicy::from_bytes(&bytes).is_err());
    }

    #[test]
    fn policy_id_is_stable_and_distinct() {
        let a = compile("read :- eq(1, 1)").unwrap();
        let b = compile("read :- eq(1, 1)").unwrap();
        let c = compile("read :- eq(1, 2)").unwrap();
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        let hex = a.id().to_hex();
        assert_eq!(PolicyId::from_hex(&hex).unwrap(), a.id());
        assert!(PolicyId::from_hex("zz").is_none());
        assert!(PolicyId::from_hex("abcd").is_none());
    }
}
