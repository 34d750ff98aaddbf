//! The reference evaluator: the dynamic-mode interpreter the typed
//! instructions replaced, kept as the oracle of the differential tests.
//!
//! It walks the stored form directly and decides *per evaluation* whether
//! each argument tests or binds, snapshotting the whole binding table before
//! every candidate and parsing every log line into an owned [`Tuple`] —
//! slow, and obviously the paper's compare-or-set semantics. It sees only
//! views that do not fault.
#![cfg(test)]

use pesos_crypto::Certificate;

use crate::compiler::{
    decode, CompiledConjunction, CompiledExpr, CompiledPolicy, CompiledPredicate, Permissions,
};
use crate::context::{Operation, RequestContext};
use crate::interpreter::{Decision, ObjectStoreView};
use crate::parser::{LOG_VAR, THIS_VAR};
use crate::predicates::Predicate;
use crate::value::{Tuple, Value};

/// How many historical versions `objSays` searches when its version
/// argument is unbound.
const OBJ_SAYS_SEARCH_DEPTH: u64 = 64;

/// Arithmetic over an unbound or non-integer operand: the conjunction is
/// abandoned (it does not hold).
#[derive(Debug)]
pub(crate) struct Abandon;

/// The binding table, by variable slot.
pub(crate) type Env = Vec<Option<Value>>;

/// The old, infallible lookups over a view that does not fault.
struct Infallible<'v, V>(&'v V);

impl<V: ObjectStoreView> Infallible<'_, V> {
    const NO_FAULT: &'static str = "the oracle runs over views that do not fault";

    fn exists(&self, key: &str) -> bool {
        self.0.exists(key).expect(Self::NO_FAULT)
    }
    fn current_version(&self, key: &str) -> Option<u64> {
        self.0.current_version(key).expect(Self::NO_FAULT)
    }
    fn object_size(&self, key: &str, version: u64) -> Option<u64> {
        self.0.object_size(key, version).expect(Self::NO_FAULT)
    }
    fn object_hash(&self, key: &str, version: u64) -> Option<Vec<u8>> {
        self.0.object_hash(key, version).expect(Self::NO_FAULT)
    }
    fn policy_hash(&self, key: &str, version: u64) -> Option<Vec<u8>> {
        self.0.policy_hash(key, version).expect(Self::NO_FAULT)
    }
    fn object_tuples(&self, key: &str, version: u64) -> Vec<Tuple> {
        let contents = self.0.object_contents(key, version).expect(Self::NO_FAULT);
        contents
            .and_then(|bytes| {
                let text = std::str::from_utf8(&bytes).ok()?;
                Some(text.lines().filter_map(Tuple::parse).collect())
            })
            .unwrap_or_default()
    }
}

/// The reference evaluator over one policy's stored form (which it can
/// also run when the mode analysis refuses the policy).
pub(crate) struct Oracle {
    pub permissions: Permissions,
    pub variables: Vec<String>,
}

impl Oracle {
    /// The oracle of `policy`, over the tree its stored bytes decode to.
    pub fn of(policy: &CompiledPolicy) -> Self {
        let (permissions, variables) =
            decode(&policy.to_bytes()).expect("a loaded policy's bytes decode");
        Oracle {
            permissions,
            variables,
        }
    }

    /// Evaluates the permission for `operation`; on a grant also returns
    /// the bindings the matched conjunction ended with.
    pub fn evaluate<V: ObjectStoreView>(
        &self,
        operation: Operation,
        ctx: &RequestContext,
        view: &V,
    ) -> (Decision, Option<Env>) {
        let view = &Infallible(view);
        let Some(condition) = self.permissions.get(&operation) else {
            return (
                Decision::deny(format!(
                    "policy grants no {} permission",
                    operation.as_str()
                )),
                None,
            );
        };
        if condition.conjunctions.is_empty() {
            return (
                Decision::deny(format!("policy denies {}", operation.as_str())),
                None,
            );
        }

        for (index, conjunction) in condition.conjunctions.iter().enumerate() {
            let mut env = self.initial_env(ctx);
            if let Ok(true) = self.try_conjunction(conjunction, &mut env, ctx, view) {
                return (Decision::allow(index), Some(env));
            }
        }
        (
            Decision::deny(format!("no {} condition was satisfied", operation.as_str())),
            None,
        )
    }

    fn initial_env(&self, ctx: &RequestContext) -> Env {
        let mut env: Env = vec![None; self.variables.len()];
        let handles = [(THIS_VAR, &ctx.this), (LOG_VAR, &ctx.log)];
        let handles = handles
            .into_iter()
            .filter_map(|(name, value)| Some((name, value.as_ref()?)));
        let named = ctx
            .bindings
            .iter()
            .map(|(name, value)| (name.as_str(), value));
        for (name, value) in handles.chain(named) {
            if let Some(slot) = self.variables.iter().position(|v| v == name) {
                env[slot] = Some(value.clone());
            }
        }
        env
    }

    fn try_conjunction<V: ObjectStoreView>(
        &self,
        conjunction: &CompiledConjunction,
        env: &mut Env,
        ctx: &RequestContext,
        view: &Infallible<'_, V>,
    ) -> Result<bool, Abandon> {
        for predicate in &conjunction.predicates {
            if !self.eval_predicate(predicate, env, ctx, view)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn eval_predicate<V: ObjectStoreView>(
        &self,
        call: &CompiledPredicate,
        env: &mut Env,
        ctx: &RequestContext,
        view: &Infallible<'_, V>,
    ) -> Result<bool, Abandon> {
        match call.predicate {
            Predicate::Eq => self.eval_eq(&call.args, env),
            Predicate::Le | Predicate::Lt | Predicate::Ge | Predicate::Gt => {
                self.eval_relational(call.predicate, &call.args, env)
            }
            Predicate::SessionKeyIs => {
                let Some(session) = &ctx.session_key else {
                    return Ok(false);
                };
                Ok(self.unify(&call.args[0], &Value::PubKey(session.clone()), env)?)
            }
            Predicate::NextVersion => {
                let Some(next) = ctx.next_version else {
                    return Ok(false);
                };
                Ok(self.unify(&call.args[0], &Value::Int(next as i64), env)?)
            }
            Predicate::ObjId => self.eval_obj_id(&call.args, env, view),
            Predicate::CurrVersion => self.eval_curr_version(&call.args, env, view),
            Predicate::ObjSize => self.eval_obj_fact(&call.args, env, view, FactKind::Size),
            Predicate::ObjHash => {
                self.eval_obj_fact_with_pending(&call.args, env, ctx, view, FactKind::Hash)
            }
            Predicate::ObjPolicy => self.eval_obj_fact(&call.args, env, view, FactKind::Policy),
            Predicate::ObjSays => self.eval_obj_says(&call.args, env, view),
            Predicate::CertificateSays => self.eval_certificate_says(&call.args, env, ctx),
        }
    }

    /// Evaluates an expression to a concrete value, or `Ok(None)` if it is
    /// an unbound variable (usable as a binding target).
    fn eval_expr(&self, expr: &CompiledExpr, env: &Env) -> Result<Option<Value>, Abandon> {
        match expr {
            CompiledExpr::Literal(v) => Ok(Some(v.clone())),
            CompiledExpr::Var(slot) => Ok(env[*slot as usize].clone()),
            CompiledExpr::Add(a, b) => {
                let a = self
                    .eval_expr(a, env)?
                    .and_then(|v| v.as_int())
                    .ok_or(Abandon)?;
                let b = self
                    .eval_expr(b, env)?
                    .and_then(|v| v.as_int())
                    .ok_or(Abandon)?;
                Ok(Some(Value::Int(a + b)))
            }
            CompiledExpr::Tuple(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    match self.eval_expr(arg, env)? {
                        Some(v) => values.push(v),
                        None => return Ok(None),
                    }
                }
                Ok(Some(Value::Tuple(Box::new(Tuple::new(
                    name.clone(),
                    values,
                )))))
            }
        }
    }

    /// Unifies an argument expression with a concrete value: binds an
    /// unbound variable, otherwise compares loosely. Tuple expressions unify
    /// element-wise so unbound tuple arguments pick up values.
    fn unify(&self, expr: &CompiledExpr, value: &Value, env: &mut Env) -> Result<bool, Abandon> {
        match expr {
            CompiledExpr::Var(slot) => {
                let slot = *slot as usize;
                match &env[slot] {
                    Some(bound) => Ok(bound.loosely_equals(value)),
                    None => {
                        env[slot] = Some(value.clone());
                        Ok(true)
                    }
                }
            }
            CompiledExpr::Tuple(name, args) => {
                let Value::Tuple(t) = value else {
                    return Ok(false);
                };
                if t.name != *name || t.args.len() != args.len() {
                    return Ok(false);
                }
                // Unify arguments with rollback on failure.
                let snapshot = env.clone();
                for (arg, v) in args.iter().zip(t.args.iter()) {
                    if !self.unify(arg, v, env)? {
                        *env = snapshot;
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => match self.eval_expr(expr, env)? {
                Some(v) => Ok(v.loosely_equals(value)),
                None => Ok(false),
            },
        }
    }

    fn eval_eq(&self, args: &[CompiledExpr], env: &mut Env) -> Result<bool, Abandon> {
        let a = self.eval_expr(&args[0], env)?;
        let b = self.eval_expr(&args[1], env)?;
        match (a, b) {
            (Some(a), Some(b)) => Ok(a.loosely_equals(&b)),
            (Some(a), None) => self.unify(&args[1], &a, env),
            (None, Some(b)) => self.unify(&args[0], &b, env),
            (None, None) => Ok(false),
        }
    }

    fn eval_relational(
        &self,
        predicate: Predicate,
        args: &[CompiledExpr],
        env: &Env,
    ) -> Result<bool, Abandon> {
        let a = self.eval_expr(&args[0], env)?.and_then(|v| v.as_int());
        let b = self.eval_expr(&args[1], env)?.and_then(|v| v.as_int());
        let (Some(a), Some(b)) = (a, b) else {
            return Ok(false);
        };
        Ok(match predicate {
            Predicate::Le => a <= b,
            Predicate::Lt => a < b,
            Predicate::Ge => a >= b,
            Predicate::Gt => a > b,
            _ => unreachable!("relational dispatch"),
        })
    }

    fn eval_obj_id<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &Infallible<'_, V>,
    ) -> Result<bool, Abandon> {
        let Some(handle) = self.eval_expr(&args[0], env)? else {
            return Ok(false);
        };
        let Some(key) = handle.as_str().map(str::to_string) else {
            return Ok(false);
        };
        let id_value = if view.exists(&key) {
            Value::Str(key)
        } else {
            Value::Null
        };
        self.unify(&args[1], &id_value, env)
    }

    fn eval_curr_version<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &Infallible<'_, V>,
    ) -> Result<bool, Abandon> {
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        let Some(version) = view.current_version(&key) else {
            return Ok(false);
        };
        self.unify(&args[1], &Value::Int(version as i64), env)
    }

    fn resolve_key(&self, expr: &CompiledExpr, env: &Env) -> Result<Option<String>, Abandon> {
        Ok(self
            .eval_expr(expr, env)?
            .and_then(|v| v.as_str().map(str::to_string)))
    }

    fn resolve_version<V: ObjectStoreView>(
        &self,
        expr: &CompiledExpr,
        env: &mut Env,
        view: &Infallible<'_, V>,
        key: &str,
    ) -> Result<Option<u64>, Abandon> {
        match self.eval_expr(expr, env)? {
            Some(v) => Ok(v.as_int().map(|i| i as u64)),
            None => {
                // Unbound version defaults to the current version and binds.
                match view.current_version(key) {
                    Some(current) => {
                        self.unify(expr, &Value::Int(current as i64), env)?;
                        Ok(Some(current))
                    }
                    None => Ok(None),
                }
            }
        }
    }

    fn eval_obj_fact<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &Infallible<'_, V>,
        kind: FactKind,
    ) -> Result<bool, Abandon> {
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        let Some(version) = self.resolve_version(&args[1], env, view, &key)? else {
            return Ok(false);
        };
        let fact = match kind {
            FactKind::Size => view
                .object_size(&key, version)
                .map(|s| Value::Int(s as i64)),
            FactKind::Hash => view.object_hash(&key, version).map(Value::Hash),
            FactKind::Policy => view.policy_hash(&key, version).map(Value::Hash),
        };
        match fact {
            Some(value) => self.unify(&args[2], &value, env),
            None => Ok(false),
        }
    }

    /// Like [`Self::eval_obj_fact`] but, for `objHash`, a version exactly one
    /// past the current version refers to the *incoming* value of the update
    /// being checked (as the MAL policy's `objHash(o, v+1, nH)` requires).
    fn eval_obj_fact_with_pending<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        ctx: &RequestContext,
        view: &Infallible<'_, V>,
        kind: FactKind,
    ) -> Result<bool, Abandon> {
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        let Some(version) = self.resolve_version(&args[1], env, view, &key)? else {
            return Ok(false);
        };
        let current = view.current_version(&key);
        let is_pending = match current {
            Some(c) => version == c + 1,
            None => version == 0 && !view.exists(&key),
        };
        if is_pending {
            if let Some(hash) = &ctx.new_object_hash {
                return self.unify(&args[2], &Value::Hash(hash.clone()), env);
            }
            return Ok(false);
        }
        self.eval_obj_fact_with_version(args, env, view, kind, &key, version)
    }

    fn eval_obj_fact_with_version<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &Infallible<'_, V>,
        kind: FactKind,
        key: &str,
        version: u64,
    ) -> Result<bool, Abandon> {
        let fact = match kind {
            FactKind::Size => view.object_size(key, version).map(|s| Value::Int(s as i64)),
            FactKind::Hash => view.object_hash(key, version).map(Value::Hash),
            FactKind::Policy => view.policy_hash(key, version).map(Value::Hash),
        };
        match fact {
            Some(value) => self.unify(&args[2], &value, env),
            None => Ok(false),
        }
    }

    fn eval_obj_says<V: ObjectStoreView>(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        view: &Infallible<'_, V>,
    ) -> Result<bool, Abandon> {
        let Some(key) = self.resolve_key(&args[0], env)? else {
            return Ok(false);
        };
        // If the version argument is bound, check only that version;
        // otherwise search backwards from the latest version.
        let bound_version = self.eval_expr(&args[1], env)?.and_then(|v| v.as_int());
        let versions: Vec<u64> = match bound_version {
            Some(v) if v >= 0 => vec![v as u64],
            Some(_) => return Ok(false),
            None => {
                let Some(latest) = view.current_version(&key) else {
                    return Ok(false);
                };
                let lowest = latest.saturating_sub(OBJ_SAYS_SEARCH_DEPTH);
                (lowest..=latest).rev().collect()
            }
        };

        for version in versions {
            for tuple in view.object_tuples(&key, version) {
                let snapshot = env.clone();
                if self.unify(&args[2], &Value::Tuple(Box::new(tuple)), env)? {
                    // Bind the version argument if it was unbound.
                    if self.unify(&args[1], &Value::Int(version as i64), env)? {
                        return Ok(true);
                    }
                }
                *env = snapshot;
            }
        }
        Ok(false)
    }

    fn eval_certificate_says(
        &self,
        args: &[CompiledExpr],
        env: &mut Env,
        ctx: &RequestContext,
    ) -> Result<bool, Abandon> {
        let (authority_expr, freshness_expr, tuple_expr) = match args.len() {
            2 => (&args[0], None, &args[1]),
            3 => (&args[0], Some(&args[1]), &args[2]),
            _ => unreachable!("arity checked at compile time"),
        };

        for cert in &ctx.certificates {
            if cert.verify_signature().is_err() {
                continue;
            }
            if !self.certificate_fresh(cert, freshness_expr, ctx, env)? {
                continue;
            }
            let issuer_hex = pesos_crypto::hex_encode(&cert.issuer_key.to_bytes());
            let snapshot = env.clone();
            if !self.unify(authority_expr, &Value::PubKey(issuer_hex), env)? {
                *env = snapshot;
                continue;
            }
            for claim in &cert.claims {
                let tuple = Tuple::new(
                    claim.name.clone(),
                    claim.args.iter().map(|a| Value::Str(a.clone())).collect(),
                );
                let claim_snapshot = env.clone();
                if self.unify(tuple_expr, &Value::Tuple(Box::new(tuple)), env)? {
                    return Ok(true);
                }
                *env = claim_snapshot;
            }
            *env = snapshot;
        }
        Ok(false)
    }

    fn certificate_fresh(
        &self,
        cert: &Certificate,
        freshness_expr: Option<&CompiledExpr>,
        ctx: &RequestContext,
        env: &Env,
    ) -> Result<bool, Abandon> {
        // Validity window always applies.
        if !cert.valid_at(ctx.now) {
            return Ok(false);
        }
        let Some(expr) = freshness_expr else {
            return Ok(true);
        };
        let Some(max_age) = self.eval_expr(expr, env)?.and_then(|v| v.as_int()) else {
            return Ok(false);
        };
        // A certificate is fresh if it embeds the nonce Pesos issued, or if
        // it was issued within the allowed age.
        if let (Some(nonce), Some(cert_nonce)) = (&ctx.freshness_nonce, &cert.nonce) {
            if nonce == cert_nonce {
                return Ok(true);
            }
        }
        Ok(ctx.now.saturating_sub(cert.not_before) <= max_age as u64)
    }
}

#[derive(Clone, Copy)]
enum FactKind {
    Size,
    Hash,
    Policy,
}

/// The differential tests: generated policies × generated requests and
/// views, the typed-instruction evaluator against the oracle above.
mod differential {
    use std::sync::OnceLock;

    use pesos_crypto::{CertificateBuilder, KeyPair};
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;
    use crate::compiler::{compile, intern};
    use crate::context::{ObjectFacts, StaticObjectView};
    use crate::error::PolicyError;
    use crate::interpreter::Slots;
    use crate::parser::parse;

    const VARS: [&str; 5] = ["A", "B", "C", "D", "E"];
    const STRINGS: [&str; 5] = ["doc", "doc.log", "alice", "bob", "1"];
    /// Tuple names, skewed so that patterns, log lines and claims often
    /// share one (and a scan meets several candidates before a match).
    const NAMES: [&str; 8] = [
        "grant", "grant", "grant", "grant", "grant", "read", "ts", "time",
    ];

    fn authority() -> &'static KeyPair {
        static CA: OnceLock<KeyPair> = OnceLock::new();
        CA.get_or_init(|| KeyPair::from_seed(b"differential-ca"))
    }

    /// Certificates are signed once: issuing dominates everything else here.
    fn certificates() -> &'static [Certificate] {
        static CERTS: OnceLock<Vec<Certificate>> = OnceLock::new();
        CERTS.get_or_init(|| {
            let ca = authority();
            let args = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
            let mut forged = CertificateBuilder::new("forged", ca.public())
                .claim("grant", args(&["bob"]))
                .issue("ca", ca);
            forged.claims[0].args[0] = "alice".into();
            // A second issuer first: an authority variable it binds must be
            // free again when the scan reaches the CA's certificate.
            let other = KeyPair::from_seed(b"differential-other");
            vec![
                CertificateBuilder::new("a", other.public())
                    .claim("ts", args(&["alice"]))
                    .claim("time", args(&["2"]))
                    .validity(0, 100)
                    .issue("other", &other),
                CertificateBuilder::new("b", ca.public())
                    .claim("grant", args(&["alice", "1"]))
                    .claim("grant", args(&["bob", "2"]))
                    .validity(10, 100)
                    .nonce(vec![7])
                    .issue("ca", ca),
                forged,
            ]
        })
    }

    /// The generator; `bound` are the variables the conjunction being
    /// written has mentioned so far, which value positions prefer so that
    /// most policies pass the mode analysis.
    struct Gen {
        rng: TestRng,
        bound: Vec<&'static str>,
    }

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.rng.below(n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }

        fn quoted(&mut self) -> String {
            format!("\"{}\"", self.pick(&STRINGS))
        }

        /// A variable, or in a value position usually one already mentioned
        /// (a handle if there is none yet).
        fn var(&mut self, value: bool) -> &'static str {
            if !value || self.chance(5) {
                return self.pick(&VARS);
            }
            let bound = std::mem::take(&mut self.bound);
            let var = if bound.is_empty() {
                self.pick(&["THIS", "LOG"])
            } else {
                self.pick(&bound)
            };
            self.bound = bound;
            var
        }

        fn atom(&mut self, value: bool) -> String {
            match self.below(10) {
                0..=4 => self.var(value).to_string(),
                5 | 6 => self.below(3).to_string(),
                7 | 8 => self.quoted(),
                _ => self.pick(&["THIS", "LOG", "null"]).to_string(),
            }
        }

        /// Mostly two of them.
        fn arity(&mut self) -> usize {
            self.pick(&[0, 1, 2, 2, 2, 2, 3])
        }

        fn tuple(&mut self) -> String {
            let args: Vec<_> = (0..self.arity()).map(|_| self.scalar(false)).collect();
            format!("'{}'({})", self.pick(&NAMES), args.join(", "))
        }

        /// An atom, sometimes with arithmetic (whose variable must be
        /// bound).
        fn scalar(&mut self, value: bool) -> String {
            if self.chance(15) {
                format!("{} + {}", self.atom(true), self.below(3))
            } else {
                self.atom(value)
            }
        }

        /// An argument in a unified position.
        fn expr(&mut self) -> String {
            if self.chance(12) {
                self.tuple()
            } else {
                self.scalar(false)
            }
        }

        fn key(&mut self) -> String {
            match self.below(10) {
                0..=2 => "THIS".into(),
                3..=5 => "LOG".into(),
                6..=8 => self.var(true).to_string(),
                _ => self.quoted(),
            }
        }

        /// Never a tuple constructor: as a version argument of a fact
        /// predicate the oracle takes one to mean "the current version",
        /// binding nothing; the evaluator fails it.
        fn version(&mut self) -> String {
            self.scalar(false)
        }

        fn says(&mut self) -> String {
            if self.chance(85) {
                self.tuple()
            } else {
                self.scalar(false)
            }
        }

        fn predicate(&mut self) -> String {
            let ca = format!(
                "\"{}\"",
                pesos_crypto::hex_encode(&authority().public().to_bytes())
            );
            match self.below(14) {
                0 => format!("eq({}, {})", self.expr(), self.expr()),
                1 => format!("le({}, {})", self.scalar(true), self.scalar(true)),
                2 => format!("lt({}, {})", self.scalar(true), self.scalar(true)),
                3 => format!("ge({}, {})", self.scalar(true), self.scalar(true)),
                4 => format!("gt({}, {})", self.scalar(true), self.scalar(true)),
                5 => {
                    let authority = if self.chance(50) { ca } else { self.expr() };
                    if self.chance(50) {
                        format!("certificateSays({authority}, {})", self.says())
                    } else {
                        let freshness = self.pick(&["5", "50", "A", "B"]);
                        format!("certificateSays({authority}, {freshness}, {})", self.says())
                    }
                }
                6 => format!("sessionKeyIs({})", self.expr()),
                7 => format!("objId({}, {})", self.key(), self.expr()),
                8 => format!("currVersion({}, {})", self.key(), self.expr()),
                9 => format!("nextVersion({})", self.expr()),
                10 => format!(
                    "objSize({}, {}, {})",
                    self.key(),
                    self.version(),
                    self.expr()
                ),
                11 => format!(
                    "objPolicy({}, {}, {})",
                    self.key(),
                    self.version(),
                    self.expr()
                ),
                12 => format!(
                    "objHash({}, {}, {})",
                    self.key(),
                    self.version(),
                    self.expr()
                ),
                _ => format!(
                    "objSays({}, {}, {})",
                    self.key(),
                    self.version(),
                    self.says()
                ),
            }
        }

        /// A conjunction in one of the shapes real policies have, where a
        /// scan binds a variable that a later field or predicate tests (so
        /// a candidate can fail after it has bound something).
        fn shaped(&mut self) -> Vec<String> {
            let field = self.pick(&["0", "1", "2", "\"1\"", "\"doc\""]);
            let shape: &[&str] = match self.below(4) {
                0 => &[
                    "objId(LOG, L)",
                    "sessionKeyIs(U)",
                    "objSays(L, LV, 'grant'(U, {}))",
                ],
                1 => &["objSays(LOG, V, 'grant'(U, {}))", "sessionKeyIs(U)"],
                2 => &["certificateSays(K, 'grant'(U, {}))", "sessionKeyIs(U)"],
                _ => &[
                    "objSays(LOG, 0, 'grant'(U, N))",
                    "nextVersion(N)",
                    "sessionKeyIs(U)",
                ],
            };
            shape.iter().map(|p| p.replace("{}", field)).collect()
        }

        fn conjunction(&mut self) -> Vec<String> {
            if self.chance(25) {
                return self.shaped();
            }
            self.bound.clear();
            (0..1 + self.below(4))
                .map(|_| {
                    let predicate = self.predicate();
                    // Roughly: whatever it mentions, it has bound.
                    let mentioned = VARS.iter().filter(|v| predicate.contains(**v));
                    self.bound.extend(mentioned);
                    predicate
                })
                .collect()
        }

        fn log_line(&mut self) -> String {
            match self.below(10) {
                0 => "not a tuple".into(),
                1 => "broken(1,2".into(),
                _ => {
                    let args: Vec<_> = (0..self.arity())
                        .map(|_| match self.below(3) {
                            0 => self.below(3).to_string(),
                            1 => self.quoted(),
                            _ => self.pick(&STRINGS).to_string(),
                        })
                        .collect();
                    format!(" {} ( {} ) ", self.pick(&NAMES), args.join(" , "))
                }
            }
        }

        fn view(&mut self) -> StaticObjectView {
            let mut view = StaticObjectView::new();
            for key in ["doc", "doc.log", "1"] {
                if self.chance(20) {
                    continue;
                }
                for version in 0..1 + self.below(3) as u64 {
                    let lines: Vec<_> = (0..self.below(7)).map(|_| self.log_line()).collect();
                    let contents = lines.join("\n").into_bytes();
                    view.insert(
                        key,
                        version,
                        ObjectFacts {
                            size: self.below(4) as u64,
                            hash: vec![self.below(3) as u8; 2],
                            policy_hash: vec![self.below(3) as u8; 2],
                            contents: contents.into(),
                        },
                    );
                }
            }
            view
        }

        /// Always binds both handles: one the request leaves out fails
        /// every predicate that names it, where the oracle would capture.
        fn context(&mut self, operation: Operation) -> RequestContext {
            let mut ctx = RequestContext::new(operation)
                .with_now(self.pick(&[20, 60, 200]))
                .bind(THIS_VAR, Value::Str(self.pick(&["doc", "nope"]).into()))
                .bind(LOG_VAR, Value::Str(self.pick(&["doc.log", "doc"]).into()));
            if self.chance(80) {
                ctx = ctx.with_session_key(self.pick(&["alice", "bob", "1"]));
            }
            if self.chance(70) {
                ctx = ctx.with_next_version(self.below(4) as u64);
            }
            if self.chance(50) {
                ctx = ctx.with_new_object_hash(vec![self.below(3) as u8; 2]);
            }
            if self.chance(30) {
                ctx = ctx.with_freshness_nonce(vec![7]);
            }
            if self.chance(40) {
                for cert in certificates() {
                    if self.chance(70) {
                        ctx = ctx.with_certificate(cert.clone());
                    }
                }
            }
            ctx
        }
    }

    fn source(operation: Operation, conjunctions: &[Vec<String>]) -> String {
        let groups: Vec<_> = conjunctions
            .iter()
            .map(|c| format!("( {} )", c.join(" and ")))
            .collect();
        format!("{} :- {}", operation.as_str(), groups.join(" or "))
    }

    proptest! {
        #[test]
        fn typed_instructions_decide_and_bind_as_the_oracle(seed in any::<u64>()) {
            let mut gen = Gen {
                rng: TestRng::new("differential", seed),
                bound: Vec::new(),
            };
            for _ in 0..24 {
                let operation = gen.pick(&[Operation::Read, Operation::Update]);
                let conjunctions: Vec<_> = (0..1 + gen.below(3)).map(|_| gen.conjunction()).collect();
                let text = source(operation, &conjunctions);
                let view = gen.view();
                let contexts: Vec<_> = (0..3).map(|_| gen.context(operation)).collect();

                let policy = match compile(&text) {
                    Ok(policy) => policy,
                    // A refused conjunction is one the oracle never grants.
                    Err(PolicyError::UnboundVariable { .. }) => {
                        for conjunction in &conjunctions {
                            let text = source(operation, std::slice::from_ref(conjunction));
                            if compile(&text).is_ok() {
                                continue;
                            }
                            let (permissions, variables, _) = intern(&parse(&text).unwrap()).unwrap();
                            let oracle = Oracle { permissions, variables };
                            for ctx in &contexts {
                                let (decision, _) = oracle.evaluate(operation, ctx, &view);
                                prop_assert!(!decision.allowed, "refused at install, granted by the oracle: {text}");
                            }
                        }
                        continue;
                    }
                    Err(other) => return Err(TestCaseError::fail(format!("{text}: {other}"))),
                };
                // The stored form is what it always was.
                prop_assert_eq!(&CompiledPolicy::from_bytes(&policy.to_bytes()).unwrap(), &policy);

                for ctx in &contexts {
                    let (expected, bindings) = Oracle::of(&policy).evaluate(operation, ctx, &view);
                    let mut slots = Slots::new(policy.slot_count());
                    let decision = policy
                        .decide(operation, &ctx.as_request(), &view, &mut slots)
                        .expect("a static view does not fault");
                    prop_assert_eq!(&decision, &expected, "{text}\n{ctx:?}\n{view:?}");
                    prop_assert_eq!(&policy.evaluate(operation, ctx, &view), &expected);
                    if let Some(bindings) = bindings {
                        let bound: Vec<_> = (0..policy.slot_count())
                            .map(|slot| slots.get(slot as u16).map(|v| v.as_ref().to_value()))
                            .collect();
                        prop_assert_eq!(&bound, &bindings, "{text}\n{ctx:?}\n{view:?}");
                    }
                }
            }
        }
    }
}
