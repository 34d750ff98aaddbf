//! The policy evaluator.
//!
//! Runs a [`CompiledPolicy`]'s typed instructions against a [`Request`] and
//! an [`ObjectStoreView`]. A permission is granted when at least one of its
//! conjunctions holds: predicates run left to right over a flat table of
//! binding slots, each argument either *tested* against a value the system
//! knows (the session key, the current version, a certified fact, a line of
//! a log object, ...) or *bound* to it — the compare-or-set semantics of
//! paper Table 1, with the choice made once, by the mode analysis, when the
//! policy was loaded.
//!
//! Nothing is snapshotted. A binding is threaded onto an undo trail that
//! runs through the slots themselves, and a candidate that fails (a log
//! line, a certificate claim, a whole conjunction) pops what it bound.
//! Values are borrowed from where they already live — the request, the
//! policy's literals, the bytes of the log object the view lends — and are
//! copied only when a variable captures one that will not outlive the scan.

use std::sync::Arc;

use crate::compiler::CompiledPolicy;
use crate::context::{Operation, Request, RequestContext};
use crate::error::ViewFault;
use crate::program::{Arg, Expr, Fact, Instr, Ordering, Slot, TuplePattern};
use crate::value::{Tuple, TupleText, Value, ValueRef};

/// How many historical versions `objSays` searches when its version
/// argument is unbound.
const OBJ_SAYS_SEARCH_DEPTH: u64 = 64;

/// Binding slots held on the stack; a policy with more variables spills the
/// rest to the heap.
const INLINE_SLOTS: usize = 16;

/// The facts the evaluator may look up about stored objects. `Ok(None)` is
/// an absence the store vouches for; a lookup the store could not answer is
/// a [`ViewFault`], and the evaluation has no decision.
pub trait ObjectStoreView {
    /// The latest version of `key`, if it exists.
    fn current_version(&self, key: &str) -> Result<Option<u64>, ViewFault>;
    /// Size in bytes of `key` at `version`.
    fn object_size(&self, key: &str, version: u64) -> Result<Option<u64>, ViewFault>;
    /// Content hash of `key` at `version`.
    fn object_hash(&self, key: &str, version: u64) -> Result<Option<Vec<u8>>, ViewFault>;
    /// Hash of the policy associated with `key` at `version`.
    fn policy_hash(&self, key: &str, version: u64) -> Result<Option<Vec<u8>>, ViewFault>;
    /// The contents of `key` at `version`, lent without a copy; `objSays`
    /// matches its pattern against their lines in place.
    fn object_contents(&self, key: &str, version: u64) -> Result<Option<Arc<Vec<u8>>>, ViewFault>;

    /// True if an object exists under `key`.
    fn exists(&self, key: &str) -> Result<bool, ViewFault> {
        Ok(self.current_version(key)?.is_some())
    }
}

/// The outcome of a policy check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Whether the operation is permitted.
    pub allowed: bool,
    /// Index of the conjunction that granted access, if any.
    pub matched_conjunction: Option<usize>,
    /// Human-readable reason for a denial.
    pub reason: String,
}

impl Decision {
    pub(crate) fn allow(index: usize) -> Self {
        Decision {
            allowed: true,
            matched_conjunction: Some(index),
            reason: String::new(),
        }
    }

    pub(crate) fn deny(reason: impl Into<String>) -> Self {
        Decision {
            allowed: false,
            matched_conjunction: None,
            reason: reason.into(),
        }
    }
}

impl CompiledPolicy {
    /// Evaluates the permission for `operation`; the convenience form over
    /// an owned [`RequestContext`]. A view fault denies, with the fault as
    /// the reason; callers that must tell the two apart use
    /// [`CompiledPolicy::evaluate_request`].
    pub fn evaluate<V: ObjectStoreView>(
        &self,
        operation: Operation,
        ctx: &RequestContext,
        view: &V,
    ) -> Decision {
        self.evaluate_request(operation, &ctx.as_request(), view)
            .unwrap_or_else(|fault| Decision::deny(fault.to_string()))
    }

    /// Evaluates the permission for `operation`.
    ///
    /// Evaluation is fail-closed: a conjunction that does arithmetic over a
    /// value that is not an integer, or names a handle the request left
    /// unbound, does not hold. A lookup the view could not answer ends the
    /// evaluation without a decision.
    pub fn evaluate_request<V: ObjectStoreView>(
        &self,
        operation: Operation,
        request: &Request<'_>,
        view: &V,
    ) -> Result<Decision, ViewFault> {
        let mut slots = Slots::new(self.slot_count());
        self.decide(operation, request, view, &mut slots)
    }

    /// [`CompiledPolicy::evaluate_request`] over the caller's `slots`,
    /// which on a grant hold the matched conjunction's bindings.
    pub(crate) fn decide<'a, V: ObjectStoreView>(
        &'a self,
        operation: Operation,
        request: &Request<'a>,
        view: &V,
        slots: &mut Slots<'a>,
    ) -> Result<Decision, ViewFault> {
        let Some(conjunctions) = self.program.get(&operation) else {
            return Ok(Decision::deny(format!(
                "policy grants no {} permission",
                operation.as_str()
            )));
        };
        if conjunctions.is_empty() {
            return Ok(Decision::deny(format!(
                "policy denies {}",
                operation.as_str()
            )));
        }

        let handles = [(self.this_slot, request.this), (self.log_slot, request.log)];
        for (slot, value) in handles {
            if let (Some(slot), Some(value)) = (slot, value) {
                slots.prebind(slot, Held::Ref(value));
            }
        }
        for (name, value) in request.bindings {
            let slot = self.variables.iter().position(|v| v == name);
            if let Some(slot) = slot.and_then(|i| Slot::try_from(i).ok()) {
                slots.prebind(slot, Held::Ref(value.as_ref()));
            }
        }

        let mut evaluation = Evaluation {
            request,
            view,
            slots,
        };
        for (index, conjunction) in conjunctions.iter().enumerate() {
            match evaluation.holds(conjunction) {
                Ok(true) => return Ok(Decision::allow(index)),
                Ok(false) | Err(Stop::NotAnInteger) => evaluation.slots.undo_to(None),
                Err(Stop::Fault(fault)) => return Err(fault),
            }
        }
        Ok(Decision::deny(format!(
            "no {} condition was satisfied",
            operation.as_str()
        )))
    }
}

/// A value a slot or a computation holds: borrowed for the whole evaluation
/// (from the request, the policy, a certificate), or owned because it was
/// captured from something shorter-lived or computed.
#[derive(Debug, Clone)]
pub(crate) enum Held<'a> {
    Ref(ValueRef<'a>),
    Owned(Value),
}

impl<'a> Held<'a> {
    pub(crate) fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Held::Ref(value) => *value,
            Held::Owned(value) => value.as_ref(),
        }
    }

    fn into_value(self) -> Value {
        match self {
            Held::Ref(value) => value.to_value(),
            Held::Owned(value) => value,
        }
    }

    /// The value as something to offer an argument: kept by reference if it
    /// can be, copied on capture if not.
    fn offer(&self) -> Offer<'a, '_> {
        match self {
            Held::Ref(value) => Offer::Lasting(*value),
            Held::Owned(value) => Offer::Passing(value.as_ref()),
        }
    }

    /// The same offer of the value's text as a string (an object id is a
    /// string whatever its handle was).
    fn offer_text(&self) -> Option<Offer<'a, '_>> {
        Some(match self {
            Held::Ref(value) => Offer::Lasting(ValueRef::Str(value.as_str()?)),
            Held::Owned(value) => Offer::Passing(ValueRef::Str(value.as_str()?)),
        })
    }
}

/// A value offered to an argument, and what capturing it costs.
enum Offer<'a, 'v> {
    /// Lives as long as the evaluation: a capture keeps the reference.
    Lasting(ValueRef<'a>),
    /// Lives for the scan in progress (a field of a log line): a capture
    /// copies it.
    Passing(ValueRef<'v>),
    /// The evaluator's own to give away: a capture moves it.
    Given(Value),
}

impl<'a, 'v> Offer<'a, 'v> {
    fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Offer::Lasting(value) => *value,
            Offer::Passing(value) => *value,
            Offer::Given(value) => value.as_ref(),
        }
    }

    fn keep(self) -> Held<'a> {
        match self {
            Offer::Lasting(value) => Held::Ref(value),
            Offer::Passing(value) => Held::Owned(value.to_value()),
            Offer::Given(value) => Held::Owned(value),
        }
    }
}

/// One bound slot, and its place on the undo trail.
#[derive(Debug)]
struct Cell<'a> {
    value: Held<'a>,
    /// The slot bound just before this one.
    older: Option<Slot>,
}

/// The binding slots of one evaluation. The undo trail is threaded through
/// the bound cells, newest first, so undoing needs no storage of its own;
/// what the request pre-binds is not on it and is never undone.
#[derive(Debug)]
pub(crate) struct Slots<'a> {
    inline: [Option<Cell<'a>>; INLINE_SLOTS],
    spill: Vec<Option<Cell<'a>>>,
    newest: Option<Slot>,
}

impl<'a> Slots<'a> {
    pub(crate) fn new(count: usize) -> Self {
        Slots {
            inline: std::array::from_fn(|_| None),
            spill: (INLINE_SLOTS..count).map(|_| None).collect(),
            newest: None,
        }
    }

    /// Where `slot` lives: its index on the stack, or among the spilled.
    fn place(slot: Slot) -> Result<usize, usize> {
        let index = usize::from(slot);
        index.checked_sub(INLINE_SLOTS).map_or(Ok(index), Err)
    }

    fn cell(&mut self, slot: Slot) -> Option<&mut Option<Cell<'a>>> {
        match Self::place(slot) {
            Ok(index) => self.inline.get_mut(index),
            Err(spilled) => self.spill.get_mut(spilled),
        }
    }

    /// The value bound to `slot`, if any.
    pub(crate) fn get(&self, slot: Slot) -> Option<&Held<'a>> {
        let cell = match Self::place(slot) {
            Ok(index) => self.inline.get(index),
            Err(spilled) => self.spill.get(spilled),
        };
        cell?.as_ref().map(|cell| &cell.value)
    }

    fn prebind(&mut self, slot: Slot, value: Held<'a>) {
        if let Some(cell) = self.cell(slot) {
            *cell = Some(Cell { value, older: None });
        }
    }

    /// Binds `slot` and puts it on the trail. False for a slot the policy
    /// does not have (the mode analysis checked every slot at load).
    fn bind(&mut self, slot: Slot, value: Held<'a>) -> bool {
        let older = self.newest;
        let Some(cell) = self.cell(slot) else {
            return false;
        };
        *cell = Some(Cell { value, older });
        self.newest = Some(slot);
        true
    }

    /// The trail's position: what to hand [`Slots::undo_to`] later.
    fn mark(&self) -> Option<Slot> {
        self.newest
    }

    /// Unbinds everything bound since `mark` was taken.
    fn undo_to(&mut self, mark: Option<Slot>) {
        while self.newest != mark {
            let Some(slot) = self.newest else { break };
            let undone = self.cell(slot).and_then(Option::take);
            self.newest = undone.and_then(|cell| cell.older);
        }
    }
}

/// Why a conjunction stopped before its last predicate answered.
enum Stop {
    /// Arithmetic met an operand that is unbound or not an integer: the
    /// conjunction does not hold.
    NotAnInteger,
    /// The view could not answer: the evaluation has no decision.
    Fault(ViewFault),
}

impl From<ViewFault> for Stop {
    fn from(fault: ViewFault) -> Self {
        Stop::Fault(fault)
    }
}

type Step<T> = Result<T, Stop>;

/// Evaluates `expr`, reading variables through `var`; `None` if one of them
/// is unbound.
fn eval_expr<'r>(
    expr: &'r Expr,
    var: &impl Fn(Slot) -> Option<Held<'r>>,
) -> Step<Option<Held<'r>>> {
    Ok(match expr {
        Expr::Literal(value) => Some(Held::Ref(value.as_ref())),
        Expr::Var(slot) => var(*slot),
        Expr::Add(a, b) => {
            let mut sum = Some(0i64);
            for operand in [a, b] {
                let operand = eval_expr(operand, var)?.and_then(|v| v.as_ref().as_int());
                sum = sum.zip(operand).and_then(|(sum, n)| sum.checked_add(n));
            }
            Some(Held::Ref(ValueRef::Int(sum.ok_or(Stop::NotAnInteger)?)))
        }
        Expr::Tuple(name, args) => {
            let mut values = Vec::with_capacity(args.len());
            for arg in args {
                match eval_expr(arg, var)? {
                    Some(value) => values.push(value.into_value()),
                    None => return Ok(None),
                }
            }
            let tuple = Tuple::new(name.clone(), values);
            Some(Held::Owned(Value::Tuple(Box::new(tuple))))
        }
    })
}

/// One evaluation: the request, the view and the binding slots.
struct Evaluation<'e, 'a, V> {
    request: &'e Request<'a>,
    view: &'e V,
    slots: &'e mut Slots<'a>,
}

impl<'a, V: ObjectStoreView> Evaluation<'_, 'a, V> {
    fn holds(&mut self, conjunction: &'a [Instr]) -> Step<bool> {
        for instr in conjunction {
            if !self.step(instr)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The value of `expr` for a comparison, borrowed from the slots.
    fn eval<'s>(&'s self, expr: &'s Expr) -> Step<Option<Held<'s>>> {
        eval_expr(expr, &|slot| {
            self.slots.get(slot).map(|held| Held::Ref(held.as_ref()))
        })
    }

    /// The value of `expr` to keep while the slots change: a captured
    /// (owned) variable is copied, anything else is still borrowed.
    fn capture(&self, expr: &'a Expr) -> Step<Option<Held<'a>>> {
        eval_expr(expr, &|slot| self.slots.get(slot).cloned())
    }

    fn int(&self, expr: &Expr) -> Step<Option<i64>> {
        Ok(self.eval(expr)?.and_then(|v| v.as_ref().as_int()))
    }

    /// Unifies `arg` with the offered value: compares if the argument is
    /// known, captures if it is a variable nothing bound, matches element
    /// by element if it is a tuple constructor.
    fn unify(&mut self, arg: &'a Arg, offer: Offer<'a, '_>) -> Step<bool> {
        Ok(match arg {
            Arg::Test(expr) => self
                .eval(expr)?
                .is_some_and(|known| known.as_ref().loosely_equals(offer.as_ref())),
            // The request may have pre-bound a name the analysis took for
            // free: then this compares too.
            Arg::Bind(slot) => match self.slots.get(*slot) {
                Some(bound) => bound.as_ref().loosely_equals(offer.as_ref()),
                None => self.slots.bind(*slot, offer.keep()),
            },
            Arg::Pattern(pattern) => {
                let ValueRef::Tuple(tuple) = offer.as_ref() else {
                    return Ok(false);
                };
                let args = tuple.args.iter().map(|v| Offer::Passing(v.as_ref()));
                self.matches(pattern, &tuple.name, || tuple.args.len(), args)?
            }
        })
    }

    /// Matches a tuple constructor against a tuple given as its parts; the
    /// arity is only asked for once the name has matched. Like
    /// [`Self::unify`], a failed match may have bound some of its variables:
    /// whoever goes on to another candidate pops them.
    fn matches<'v>(
        &mut self,
        pattern: &'a TuplePattern,
        name: &str,
        arity: impl FnOnce() -> usize,
        args: impl Iterator<Item = Offer<'a, 'v>>,
    ) -> Step<bool> {
        if pattern.name != name || pattern.args.len() != arity() {
            return Ok(false);
        }
        for (arg, offer) in pattern.args.iter().zip(args) {
            if !self.unify(arg, offer)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The value an argument already has, if it has one.
    fn known<'s>(&'s self, arg: &'s Arg) -> Step<Option<Held<'s>>> {
        Ok(match arg {
            Arg::Test(expr) => self.eval(expr)?,
            Arg::Bind(slot) => self.slots.get(*slot).map(|v| Held::Ref(v.as_ref())),
            Arg::Pattern(_) => None,
        })
    }

    fn step(&mut self, instr: &'a Instr) -> Step<bool> {
        match instr {
            Instr::Eq { lhs, rhs } => Ok(match (self.eval(lhs)?, self.eval(rhs)?) {
                (Some(lhs), Some(rhs)) => lhs.as_ref().loosely_equals(rhs.as_ref()),
                _ => false,
            }),
            Instr::Unify { value, target } => match self.capture(value)? {
                Some(value) => self.unify(target, value.offer()),
                None => Ok(false),
            },
            Instr::Compare { ordering, lhs, rhs } => {
                let (Some(lhs), Some(rhs)) = (self.int(lhs)?, self.int(rhs)?) else {
                    return Ok(false);
                };
                Ok(match ordering {
                    Ordering::Le => lhs <= rhs,
                    Ordering::Lt => lhs < rhs,
                    Ordering::Ge => lhs >= rhs,
                    Ordering::Gt => lhs > rhs,
                })
            }
            Instr::SessionKeyIs(key) => match self.request.session_key {
                Some(session) => self.unify(key, Offer::Lasting(ValueRef::PubKey(session))),
                None => Ok(false),
            },
            Instr::NextVersion(version) => match self.request.next_version {
                Some(next) => self.unify(version, Offer::Lasting(ValueRef::Int(next as i64))),
                None => Ok(false),
            },
            Instr::ObjId { handle, id } => {
                let Some(handle) = self.capture(handle)? else {
                    return Ok(false);
                };
                let Some((key, as_id)) = handle.as_ref().as_str().zip(handle.offer_text()) else {
                    return Ok(false);
                };
                let id_value = if self.view.exists(key)? {
                    as_id
                } else {
                    Offer::Lasting(ValueRef::Null)
                };
                self.unify(id, id_value)
            }
            Instr::CurrVersion { key, version } => {
                let current = match self.eval(key)?.as_ref().and_then(|k| k.as_ref().as_str()) {
                    Some(key) => self.view.current_version(key)?,
                    None => return Ok(false),
                };
                match current {
                    Some(current) => {
                        self.unify(version, Offer::Lasting(ValueRef::Int(current as i64)))
                    }
                    None => Ok(false),
                }
            }
            Instr::ObjFact {
                fact,
                key,
                version,
                value,
            } => self.obj_fact(*fact, key, version, value),
            Instr::ObjSays { key, version, says } => self.obj_says(key, version, says),
            Instr::CertificateSays {
                authority,
                freshness,
                says,
            } => self.certificate_says(authority, freshness.as_ref(), says),
        }
    }

    fn obj_fact(
        &mut self,
        fact: Fact,
        key: &'a Expr,
        version: &'a Arg,
        value: &'a Arg,
    ) -> Step<bool> {
        let Some(key) = self.capture(key)? else {
            return Ok(false);
        };
        let Some(key) = key.as_ref().as_str() else {
            return Ok(false);
        };
        let known = self.known(version)?.map(|v| v.as_ref().as_int());
        let version = match known {
            Some(known) => match known.map(u64::try_from) {
                Some(Ok(version)) => version,
                _ => return Ok(false),
            },
            // A version nothing bound means the current one, and binds.
            None => {
                let Some(current) = self.view.current_version(key)? else {
                    return Ok(false);
                };
                if !self.unify(version, Offer::Lasting(ValueRef::Int(current as i64)))? {
                    return Ok(false);
                }
                current
            }
        };
        let found = match fact {
            Fact::Size => self
                .view
                .object_size(key, version)?
                .map(|size| Value::Int(size as i64)),
            Fact::Policy => self.view.policy_hash(key, version)?.map(Value::Hash),
            // The version one past the current one is the *incoming* value
            // of the update being checked (the MAL policy's
            // `objHash(o, v+1, nH)`).
            Fact::Hash => {
                let current = self.view.current_version(key)?;
                let pending = match current {
                    Some(current) => current.checked_add(1) == Some(version),
                    None => version == 0,
                };
                if pending {
                    return match self.request.new_object_hash {
                        Some(hash) => self.unify(value, Offer::Lasting(ValueRef::Hash(hash))),
                        None => Ok(false),
                    };
                }
                self.view.object_hash(key, version)?.map(Value::Hash)
            }
        };
        match found {
            Some(found) => self.unify(value, Offer::Given(found)),
            None => Ok(false),
        }
    }

    fn obj_says(&mut self, key: &'a Expr, version: &'a Arg, says: &'a Arg) -> Step<bool> {
        let Some(key) = self.capture(key)? else {
            return Ok(false);
        };
        let Some(key) = key.as_ref().as_str() else {
            return Ok(false);
        };
        // A version that is known is the only one checked; otherwise search
        // backwards from the latest.
        let wanted = self.known(version)?.and_then(|v| v.as_ref().as_int());
        let versions = match wanted {
            Some(wanted) => match u64::try_from(wanted) {
                Ok(wanted) => wanted..=wanted,
                Err(_) => return Ok(false),
            },
            None => {
                let Some(latest) = self.view.current_version(key)? else {
                    return Ok(false);
                };
                latest.saturating_sub(OBJ_SAYS_SEARCH_DEPTH)..=latest
            }
        };

        for candidate in versions.rev() {
            let Some(contents) = self.view.object_contents(key, candidate)? else {
                continue;
            };
            let Ok(text) = std::str::from_utf8(&contents) else {
                continue;
            };
            for line in text.lines().filter_map(TupleText::parse) {
                let mark = self.slots.mark();
                let said = match says {
                    Arg::Pattern(pattern) => {
                        let args = line.args().map(Offer::Passing);
                        self.matches(pattern, line.name, || line.arity(), args)?
                    }
                    whole => {
                        let args = line.args().map(ValueRef::to_value).collect();
                        let tuple = Tuple::new(line.name, args);
                        self.unify(whole, Offer::Given(Value::Tuple(Box::new(tuple))))?
                    }
                };
                let at = Offer::Lasting(ValueRef::Int(candidate as i64));
                if said && self.unify(version, at)? {
                    return Ok(true);
                }
                self.slots.undo_to(mark);
            }
        }
        Ok(false)
    }

    fn certificate_says(
        &mut self,
        authority: &'a Arg,
        freshness: Option<&'a Expr>,
        says: &'a Arg,
    ) -> Step<bool> {
        let request = self.request;
        for cert in request.certificates {
            if cert.verify_signature().is_err() || !cert.valid_at(request.now) {
                continue;
            }
            if let Some(max_age) = freshness {
                let Some(max_age) = self.int(max_age)? else {
                    continue;
                };
                // Fresh if it embeds the nonce Pesos issued, or was issued
                // within the allowed age.
                let nonced = request.freshness_nonce.is_some()
                    && request.freshness_nonce == cert.nonce.as_deref();
                if !nonced && request.now.saturating_sub(cert.not_before) > max_age as u64 {
                    continue;
                }
            }
            let issuer = pesos_crypto::hex_encode(&cert.issuer_key.to_bytes());
            let mark = self.slots.mark();
            if self.unify(authority, Offer::Given(Value::PubKey(issuer)))? {
                for claim in &cert.claims {
                    let claim_mark = self.slots.mark();
                    let said = match says {
                        Arg::Pattern(pattern) => {
                            let args = claim.args.iter();
                            let args = args.map(|arg| Offer::Lasting(ValueRef::Str(arg)));
                            self.matches(pattern, &claim.name, || claim.args.len(), args)?
                        }
                        whole => {
                            let args = claim.args.iter().cloned().map(Value::Str).collect();
                            let tuple = Tuple::new(claim.name.clone(), args);
                            self.unify(whole, Offer::Given(Value::Tuple(Box::new(tuple))))?
                        }
                    };
                    if said {
                        return Ok(true);
                    }
                    self.slots.undo_to(claim_mark);
                }
            }
            self.slots.undo_to(mark);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::context::{ObjectFacts, StaticObjectView};
    use crate::error::PolicyError;
    use crate::parser::{LOG_VAR, THIS_VAR};
    use pesos_crypto::{CertificateBuilder, KeyPair};

    fn acl_policy() -> CompiledPolicy {
        compile(
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"admin\")",
        )
        .unwrap()
    }

    #[test]
    fn content_server_acl() {
        let p = acl_policy();
        let view = StaticObjectView::new();

        let read_bob = RequestContext::new(Operation::Read).with_session_key("bob");
        assert!(p.evaluate(Operation::Read, &read_bob, &view).allowed);

        let update_bob = RequestContext::new(Operation::Update).with_session_key("bob");
        let d = p.evaluate(Operation::Update, &update_bob, &view);
        assert!(!d.allowed);
        assert!(!d.reason.is_empty());

        let update_alice = RequestContext::new(Operation::Update).with_session_key("alice");
        assert!(p.evaluate(Operation::Update, &update_alice, &view).allowed);

        let delete_admin = RequestContext::new(Operation::Delete).with_session_key("admin");
        assert!(p.evaluate(Operation::Delete, &delete_admin, &view).allowed);

        // No session key at all: denied.
        let anon = RequestContext::new(Operation::Read);
        assert!(!p.evaluate(Operation::Read, &anon, &view).allowed);
    }

    #[test]
    fn missing_permission_denies() {
        let p = compile("read :- sessionKeyIs(\"alice\")").unwrap();
        let view = StaticObjectView::new();
        let ctx = RequestContext::new(Operation::Delete).with_session_key("alice");
        assert!(!p.evaluate(Operation::Delete, &ctx, &view).allowed);
    }

    #[test]
    fn session_key_binding_variable() {
        // A policy with an unbound session variable grants access to any
        // authenticated client and binds the variable.
        let p = compile("read :- sessionKeyIs(U)").unwrap();
        let view = StaticObjectView::new();
        let ctx = RequestContext::new(Operation::Read).with_session_key("carol");
        assert!(p.evaluate(Operation::Read, &ctx, &view).allowed);
        let anon = RequestContext::new(Operation::Read);
        assert!(!p.evaluate(Operation::Read, &anon, &view).allowed);
    }

    fn versioned_policy() -> CompiledPolicy {
        compile(
            "update :- ( objId(this, O) and currVersion(O, CV) and nextVersion(CV + 1) ) \
             or ( objId(this, NULL) and nextVersion(0) )\n\
             read :- sessionKeyIs(U)",
        )
        .unwrap()
    }

    fn view_with_object(key: &str, version: u64) -> StaticObjectView {
        let mut view = StaticObjectView::new();
        view.insert(
            key,
            version,
            ObjectFacts {
                size: 10,
                hash: vec![1; 32],
                policy_hash: vec![2; 32],
                ..ObjectFacts::default()
            },
        );
        view
    }

    #[test]
    fn versioned_store_policy_enforced() {
        let p = versioned_policy();
        let view = view_with_object("obj-1", 4);

        let this = Value::Str("obj-1".to_string());

        // Correct next version accepted.
        let ok = RequestContext::new(Operation::Update)
            .with_next_version(5)
            .bind(THIS_VAR, this.clone());
        assert!(p.evaluate(Operation::Update, &ok, &view).allowed);

        // Wrong next version rejected.
        for bad in [4u64, 6, 0] {
            let ctx = RequestContext::new(Operation::Update)
                .with_next_version(bad)
                .bind(THIS_VAR, this.clone());
            assert!(
                !p.evaluate(Operation::Update, &ctx, &view).allowed,
                "v={bad}"
            );
        }

        // Creation of a new object starts at version 0.
        let empty = StaticObjectView::new();
        let create = RequestContext::new(Operation::Update)
            .with_next_version(0)
            .bind(THIS_VAR, Value::Str("new-obj".into()));
        assert!(p.evaluate(Operation::Update, &create, &empty).allowed);
        let create_bad = RequestContext::new(Operation::Update)
            .with_next_version(3)
            .bind(THIS_VAR, Value::Str("new-obj".into()));
        assert!(!p.evaluate(Operation::Update, &create_bad, &empty).allowed);
    }

    #[test]
    fn obj_size_and_policy_hash_predicates() {
        let p = compile(
            "read :- objId(THIS, O) and objSize(O, V, S) and le(S, 100) and objPolicy(O, V, PH)",
        )
        .unwrap();
        let view = view_with_object("obj", 2);
        let ctx = RequestContext::new(Operation::Read).bind(THIS_VAR, Value::Str("obj".into()));
        assert!(p.evaluate(Operation::Read, &ctx, &view).allowed);

        // A size bound that fails.
        let p2 = compile("read :- objId(THIS, O) and objSize(O, V, S) and le(S, 5)").unwrap();
        assert!(!p2.evaluate(Operation::Read, &ctx, &view).allowed);
    }

    #[test]
    fn mandatory_access_logging_policy() {
        let p = compile(
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- objId(THIS, O) and objId(LOG, L) and sessionKeyIs(U) and \
                     currVersion(O, V) and nextVersion(V + 1) and objHash(O, V, CH) and \
                     objHash(O, V + 1, NH) and objSays(L, LV, 'write'(O, V, CH, NH, U))",
        )
        .unwrap();

        // The protected object at version 2 with a known hash.
        let current_hash = pesos_crypto::sha256(b"current contents").to_vec();
        let new_contents = b"new contents".to_vec();
        let new_hash = pesos_crypto::sha256(&new_contents).to_vec();

        let mut view = StaticObjectView::new();
        view.insert(
            "doc",
            2,
            ObjectFacts {
                size: 16,
                hash: current_hash.clone(),
                policy_hash: vec![],
                ..ObjectFacts::default()
            },
        );
        // The log object: declares the intended read and write.
        let log_contents = format!(
            "read(\"doc\",2,\"alice\")\nwrite(\"doc\",2,\"{}\",\"{}\",\"alice\")",
            pesos_crypto::hex_encode(&current_hash),
            pesos_crypto::hex_encode(&new_hash),
        );
        view.insert_contents("doc.log", 5, log_contents.as_bytes());

        let base = || {
            RequestContext::new(Operation::Read)
                .with_session_key("alice")
                .bind(THIS_VAR, Value::Str("doc".into()))
                .bind(LOG_VAR, Value::Str("doc.log".into()))
        };

        // Read with a matching log entry is allowed.
        assert!(p.evaluate(Operation::Read, &base(), &view).allowed);

        // Read by a client without a log entry is denied.
        let bob = RequestContext::new(Operation::Read)
            .with_session_key("bob")
            .bind(THIS_VAR, Value::Str("doc".into()))
            .bind(LOG_VAR, Value::Str("doc.log".into()));
        assert!(!p.evaluate(Operation::Read, &bob, &view).allowed);

        // Update with the logged intent (correct hashes and version) allowed.
        let update = RequestContext::new(Operation::Update)
            .with_session_key("alice")
            .with_next_version(3)
            .with_new_object_hash(new_hash.clone())
            .bind(THIS_VAR, Value::Str("doc".into()))
            .bind(LOG_VAR, Value::Str("doc.log".into()));
        assert!(p.evaluate(Operation::Update, &update, &view).allowed);

        // Update whose incoming contents do not match the logged hash denied.
        let tampered = RequestContext::new(Operation::Update)
            .with_session_key("alice")
            .with_next_version(3)
            .with_new_object_hash(pesos_crypto::sha256(b"something else").to_vec())
            .bind(THIS_VAR, Value::Str("doc".into()))
            .bind(LOG_VAR, Value::Str("doc.log".into()));
        assert!(!p.evaluate(Operation::Update, &tampered, &view).allowed);
    }

    #[test]
    fn time_based_policy_with_certificate_chain() {
        let ca = KeyPair::from_seed(b"time-ca");
        let ts = KeyPair::from_seed(b"time-service");
        let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());

        let policy_src = format!(
            "update :- certificateSays(\"{ca_hex}\", 'ts'(TSKEY)) and \
             certificateSays(TSKEY, 'time'(T)) and ge(T, 1650000000)\n\
             read :- sessionKeyIs(U)"
        );
        let p = compile(&policy_src).unwrap();
        let view = StaticObjectView::new();

        let ts_hex = pesos_crypto::hex_encode(&ts.public().to_bytes());
        let endorsement = CertificateBuilder::new("svc:time", ts.public())
            .claim("ts", vec![ts_hex.clone()])
            .issue("ca", &ca);
        let after = CertificateBuilder::new("stmt:time", ts.public())
            .claim("time", vec!["1650000100".to_string()])
            .issue("svc:time", &ts);
        let before = CertificateBuilder::new("stmt:time", ts.public())
            .claim("time", vec!["1640000000".to_string()])
            .issue("svc:time", &ts);

        // Time after the release date: allowed.
        let ok = RequestContext::new(Operation::Update)
            .with_now(100)
            .with_certificate(endorsement.clone())
            .with_certificate(after);
        assert!(p.evaluate(Operation::Update, &ok, &view).allowed);

        // Time before the release date: denied.
        let early = RequestContext::new(Operation::Update)
            .with_now(100)
            .with_certificate(endorsement.clone())
            .with_certificate(before);
        assert!(!p.evaluate(Operation::Update, &early, &view).allowed);

        // Missing the CA endorsement: denied even with a time statement.
        let rogue_ts = KeyPair::from_seed(b"rogue");
        let rogue_time = CertificateBuilder::new("stmt:time", rogue_ts.public())
            .claim("time", vec!["1650000100".to_string()])
            .issue("rogue", &rogue_ts);
        let no_chain = RequestContext::new(Operation::Update)
            .with_now(100)
            .with_certificate(rogue_time);
        assert!(!p.evaluate(Operation::Update, &no_chain, &view).allowed);
    }

    #[test]
    fn certificate_freshness_bound() {
        let ca = KeyPair::from_seed(b"fresh-ca");
        let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());
        let p = compile(&format!(
            "read :- certificateSays(\"{ca_hex}\", 60, 'status'(\"ok\"))"
        ))
        .unwrap();
        let view = StaticObjectView::new();

        let cert = CertificateBuilder::new("stmt", ca.public())
            .claim("status", vec!["ok".into()])
            .validity(1000, 10_000)
            .issue("ca", &ca);

        // Within the freshness window.
        let fresh = RequestContext::new(Operation::Read)
            .with_now(1030)
            .with_certificate(cert.clone());
        assert!(p.evaluate(Operation::Read, &fresh, &view).allowed);

        // Too old.
        let stale = RequestContext::new(Operation::Read)
            .with_now(2000)
            .with_certificate(cert.clone());
        assert!(!p.evaluate(Operation::Read, &stale, &view).allowed);

        // Stale by age but carrying the nonce Pesos issued: accepted.
        let nonce_cert = CertificateBuilder::new("stmt", ca.public())
            .claim("status", vec!["ok".into()])
            .validity(1000, 10_000)
            .nonce(vec![7, 7, 7])
            .issue("ca", &ca);
        let nonced = RequestContext::new(Operation::Read)
            .with_now(2000)
            .with_freshness_nonce(vec![7, 7, 7])
            .with_certificate(nonce_cert);
        assert!(p.evaluate(Operation::Read, &nonced, &view).allowed);
    }

    #[test]
    fn tampered_certificate_rejected() {
        let ca = KeyPair::from_seed(b"ca2");
        let ca_hex = pesos_crypto::hex_encode(&ca.public().to_bytes());
        let p = compile(&format!(
            "read :- certificateSays(\"{ca_hex}\", 'role'(\"admin\"))"
        ))
        .unwrap();
        let view = StaticObjectView::new();
        let mut cert = CertificateBuilder::new("stmt", ca.public())
            .claim("role", vec!["user".into()])
            .issue("ca", &ca);
        // Attacker upgrades the claim without re-signing.
        cert.claims[0].args[0] = "admin".into();
        let ctx = RequestContext::new(Operation::Read).with_certificate(cert);
        assert!(!p.evaluate(Operation::Read, &ctx, &view).allowed);
    }

    #[test]
    fn relational_predicates() {
        let view = StaticObjectView::new();
        let cases = [
            ("read :- eq(3, 3)", true),
            ("read :- eq(3, 4)", false),
            ("read :- eq(\"a\", \"a\")", true),
            (
                "read :- le(3, 3) and lt(3, 4) and ge(4, 4) and gt(5, 4)",
                true,
            ),
            ("read :- lt(4, 3)", false),
            ("read :- eq(X, 7) and eq(X, 7)", true),
            ("read :- eq(X, 7) and eq(X, 8)", false),
        ];
        for (src, expected) in cases {
            let p = compile(src).unwrap();
            let ctx = RequestContext::new(Operation::Read);
            assert_eq!(
                p.evaluate(Operation::Read, &ctx, &view).allowed,
                expected,
                "{src}"
            );
        }
        // Unbound in an ordering: could never hold, refused at install.
        assert!(matches!(
            compile("read :- gt(X, 1)"),
            Err(PolicyError::UnboundVariable { variable, .. }) if variable == "X"
        ));
    }

    #[test]
    fn disjunction_falls_through_to_later_conjunctions() {
        let p = compile("read :- eq(1, 2) or eq(2, 2) or eq(3, 4)").unwrap();
        let view = StaticObjectView::new();
        let d = p.evaluate(
            Operation::Read,
            &RequestContext::new(Operation::Read),
            &view,
        );
        assert!(d.allowed);
        assert_eq!(d.matched_conjunction, Some(1));
    }

    #[test]
    fn a_failed_candidate_leaves_no_binding_behind() {
        // Line 1 binds U before its second field fails; line 2 must find U
        // free again, and so must the next version searched.
        let mut view = StaticObjectView::new();
        view.insert_contents("doc.log", 0, b"grant(\"carol\",3)");
        view.insert_contents("doc.log", 1, b"grant(\"alice\",1)\ngrant(\"bob\",2)");
        let ctx = |session: &str| {
            RequestContext::new(Operation::Read)
                .with_session_key(session)
                .bind(LOG_VAR, Value::Str("doc.log".into()))
        };
        let p = compile("read :- objSays(LOG, V, 'grant'(U, 2)) and sessionKeyIs(U)").unwrap();
        assert!(p.evaluate(Operation::Read, &ctx("bob"), &view).allowed);
        assert!(!p.evaluate(Operation::Read, &ctx("alice"), &view).allowed);
        let p = compile("read :- objSays(LOG, V, 'grant'(U, 3)) and sessionKeyIs(U)").unwrap();
        assert!(p.evaluate(Operation::Read, &ctx("carol"), &view).allowed);

        // The same over the claims of one certificate and over several
        // certificates: the authority a rejected certificate bound is free
        // again for the next.
        let (ca, other) = (KeyPair::from_seed(b"ca"), KeyPair::from_seed(b"other"));
        let claims = CertificateBuilder::new("stmt", ca.public())
            .claim("grant", vec!["alice".into(), "1".into()])
            .claim("grant", vec!["bob".into(), "2".into()])
            .issue("ca", &ca);
        let stranger = CertificateBuilder::new("stmt", other.public())
            .claim("role", vec!["user".into()])
            .issue("other", &other);
        let p = compile(
            "read :- certificateSays(K, 'grant'(U, 2)) and sessionKeyIs(U) and \
                     certificateSays(K, 'grant'(\"alice\", 1))",
        )
        .unwrap();
        let with_certs = ctx("bob")
            .with_certificate(stranger)
            .with_certificate(claims);
        assert!(p.evaluate(Operation::Read, &with_certs, &view).allowed);
    }

    #[test]
    fn a_name_the_request_pre_binds_is_compared_not_captured() {
        let p = compile("read :- sessionKeyIs(X)").unwrap();
        let view = StaticObjectView::new();
        let ctx = |x: &str| {
            RequestContext::new(Operation::Read)
                .with_session_key("alice")
                .bind("X", Value::Str(x.into()))
        };
        assert!(p.evaluate(Operation::Read, &ctx("alice"), &view).allowed);
        assert!(!p.evaluate(Operation::Read, &ctx("mallory"), &view).allowed);
    }

    #[test]
    fn a_handle_the_request_leaves_unbound_fails_what_names_it() {
        let view = view_with_object("obj", 2);
        let ctx = RequestContext::new(Operation::Read).with_session_key("obj");
        for src in [
            "read :- objId(THIS, O)",
            "read :- sessionKeyIs(THIS)",
            "read :- eq(THIS, \"obj\")",
        ] {
            let p = compile(src).unwrap();
            assert!(!p.evaluate(Operation::Read, &ctx, &view).allowed, "{src}");
        }
    }

    #[test]
    fn policies_that_could_never_hold_are_refused_at_install() {
        for (src, variable, call) in [
            ("read :- le(T, 100)", "T", "le(T, 100)"),
            (
                "read :- eq(1, 1) and nextVersion(CV + 1)",
                "CV",
                "nextVersion(CV + 1)",
            ),
            (
                "read :- objSays(L, V, 'read'(U))",
                "L",
                "objSays(L, V, 'read'(U))",
            ),
            ("read :- currVersion(O, V)", "O", "currVersion(O, V)"),
            ("read :- eq(X, Y)", "X", "eq(X, Y)"),
            (
                "read :- certificateSays(K, F, 'time'(T))",
                "F",
                "certificateSays(K, F, 'time'(T))",
            ),
            // Bound only in another conjunction.
            ("read :- sessionKeyIs(U) or le(U, 1)", "U", "le(U, 1)"),
        ] {
            match compile(src) {
                Err(PolicyError::UnboundVariable {
                    variable: v, span, ..
                }) => {
                    assert_eq!(v, variable, "{src}");
                    assert_eq!(&src[span.start..span.end], call, "{src}");
                }
                other => panic!("{src}: {other:?}"),
            }
        }
        // What an earlier predicate or the request binds is fine.
        for src in [
            "read :- sessionKeyIs(T) and le(T, 100)",
            "read :- objId(THIS, O) and currVersion(O, V) and nextVersion(V + 1)",
            "read :- objSays(LOG, V, 'read'(U))",
        ] {
            assert!(compile(src).is_ok(), "{src}");
        }
    }

    #[test]
    fn a_view_fault_is_no_decision() {
        struct Faulty;
        impl ObjectStoreView for Faulty {
            fn current_version(&self, _: &str) -> Result<Option<u64>, ViewFault> {
                Ok(Some(0))
            }
            fn object_size(&self, _: &str, _: u64) -> Result<Option<u64>, ViewFault> {
                Ok(Some(1))
            }
            fn object_hash(&self, _: &str, _: u64) -> Result<Option<Vec<u8>>, ViewFault> {
                Ok(None)
            }
            fn policy_hash(&self, _: &str, _: u64) -> Result<Option<Vec<u8>>, ViewFault> {
                Ok(None)
            }
            fn object_contents(&self, _: &str, _: u64) -> Result<Option<Arc<Vec<u8>>>, ViewFault> {
                Err(ViewFault("drive offline".into()))
            }
        }
        // The second conjunction would grant, but the first has no answer.
        let p = compile("read :- objSays(LOG, V, 'read'(U)) or eq(1, 1)").unwrap();
        let ctx = RequestContext::new(Operation::Read).bind(LOG_VAR, Value::Str("log".into()));
        assert_eq!(
            p.evaluate_request(Operation::Read, &ctx.as_request(), &Faulty),
            Err(ViewFault("drive offline".into()))
        );
        let folded = p.evaluate(Operation::Read, &ctx, &Faulty);
        assert!(!folded.allowed && folded.reason.contains("drive offline"));
    }
}
