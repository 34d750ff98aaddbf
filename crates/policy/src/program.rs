//! Mode analysis: from the stored form of a policy to typed instructions.
//!
//! A conjunction is evaluated left to right over a flat binding table, so
//! whether a variable is bound when a predicate runs is a static fact of
//! the policy text: the request context binds the `THIS` and `LOG` handles,
//! and every predicate binds what it unifies. One pass per conjunction
//! follows that bound set and emits, per predicate, an [`Instr`] whose
//! fields say what each argument *does* — an [`Expr`] the predicate needs
//! the value of, or an [`Arg`] it unifies with a value it knows — so the
//! evaluator neither counts arguments nor asks whether a variable is bound.
//!
//! A variable in a value position that nothing earlier can have bound
//! would fail every request; the analysis refuses such a conjunction
//! ([`PolicyError::UnboundVariable`]) when the policy is installed.
//!
//! The analysis runs at load, on the decoded stored form, so the bytes a
//! policy is stored as and the [`crate::PolicyId`] hashed from them do not
//! depend on it.

use std::collections::BTreeMap;

use crate::compiler::{CompiledPredicate, Permissions};
use crate::context::Operation;
use crate::error::{PolicyError, Span};
use crate::predicates::Predicate;

/// An argument expression; the stored form's, variables already interned.
pub(crate) use crate::compiler::CompiledExpr as Expr;

/// Index of a variable's binding slot.
pub(crate) type Slot = u16;

/// An argument a predicate unifies with a value it knows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Arg {
    /// Every variable in it is bound by now: evaluate and compare.
    Test(Expr),
    /// A variable nothing has bound yet: capture the value.
    Bind(Slot),
    /// A tuple constructor: match name and arity, then each argument.
    Pattern(TuplePattern),
}

/// A tuple constructor in a unified position, e.g. `'read'(O, V, U)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TuplePattern {
    pub name: String,
    pub args: Vec<Arg>,
}

/// The ordering a relational predicate tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ordering {
    Le,
    Lt,
    Ge,
    Gt,
}

/// The per-version fact an `objSize` / `objHash` / `objPolicy` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fact {
    Size,
    Hash,
    Policy,
}

/// One predicate, its arity and the mode of each argument in the type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Instr {
    /// `eq` with both sides known.
    Eq {
        lhs: Expr,
        rhs: Expr,
    },
    /// `eq` with one side known: the other is unified with it.
    Unify {
        value: Expr,
        target: Arg,
    },
    /// `le`, `lt`, `ge`, `gt`.
    Compare {
        ordering: Ordering,
        lhs: Expr,
        rhs: Expr,
    },
    SessionKeyIs(Arg),
    NextVersion(Arg),
    ObjId {
        handle: Expr,
        id: Arg,
    },
    CurrVersion {
        key: Expr,
        version: Arg,
    },
    ObjFact {
        fact: Fact,
        key: Expr,
        version: Arg,
        value: Arg,
    },
    ObjSays {
        key: Expr,
        version: Arg,
        says: Arg,
    },
    CertificateSays {
        authority: Arg,
        freshness: Option<Expr>,
        says: Arg,
    },
}

/// The instructions of every conjunction of every permission.
pub(crate) type Program = BTreeMap<Operation, Vec<Vec<Instr>>>;

/// Analyses every conjunction of `permissions`. `handles` are the slots the
/// request context binds; `spans` are the predicate calls' source ranges in
/// visiting order (empty for a policy decoded from bytes).
pub(crate) fn analyse(
    permissions: &Permissions,
    variables: &[String],
    handles: [Option<Slot>; 2],
    spans: &[Span],
) -> Result<Program, PolicyError> {
    let mut spans = spans.iter().copied();
    let mut program = Program::new();
    for (operation, condition) in permissions {
        let mut conjunctions = Vec::with_capacity(condition.conjunctions.len());
        for conjunction in &condition.conjunctions {
            let mut modes = Modes {
                variables,
                bound: vec![false; variables.len()],
                predicate: Predicate::Eq,
                span: Span::default(),
            };
            for slot in handles.into_iter().flatten() {
                modes.bind(slot)?;
            }
            let mut instrs = Vec::with_capacity(conjunction.predicates.len());
            for call in &conjunction.predicates {
                modes.predicate = call.predicate;
                modes.span = spans.next().unwrap_or_default();
                instrs.push(modes.instr(call)?);
            }
            conjunctions.push(instrs);
        }
        program.insert(*operation, conjunctions);
    }
    Ok(program)
}

/// The bound set at one point of one conjunction.
struct Modes<'p> {
    variables: &'p [String],
    bound: Vec<bool>,
    /// The call being analysed, for error reports.
    predicate: Predicate,
    span: Span,
}

impl Modes<'_> {
    fn is_bound(&self, slot: Slot) -> Result<bool, PolicyError> {
        self.bound
            .get(usize::from(slot))
            .copied()
            .ok_or_else(|| no_such_slot(slot))
    }

    fn bind(&mut self, slot: Slot) -> Result<(), PolicyError> {
        *self
            .bound
            .get_mut(usize::from(slot))
            .ok_or_else(|| no_such_slot(slot))? = true;
        Ok(())
    }

    /// The first variable of `expr` nothing has bound, if any.
    fn first_unbound(&self, expr: &Expr) -> Result<Option<Slot>, PolicyError> {
        Ok(match expr {
            Expr::Literal(_) => None,
            Expr::Var(slot) => (!self.is_bound(*slot)?).then_some(*slot),
            Expr::Add(a, b) => match self.first_unbound(a)? {
                Some(slot) => Some(slot),
                None => self.first_unbound(b)?,
            },
            Expr::Tuple(_, args) => {
                for arg in args {
                    if let Some(slot) = self.first_unbound(arg)? {
                        return Ok(Some(slot));
                    }
                }
                None
            }
        })
    }

    fn unbound(&self, slot: Slot) -> PolicyError {
        PolicyError::UnboundVariable {
            variable: self
                .variables
                .get(usize::from(slot))
                .cloned()
                .unwrap_or_default(),
            predicate: format!("{:?}", self.predicate),
            span: self.span,
        }
    }

    /// An argument the predicate needs the value of.
    fn value(&self, expr: &Expr) -> Result<Expr, PolicyError> {
        match self.first_unbound(expr)? {
            Some(slot) => Err(self.unbound(slot)),
            None => Ok(expr.clone()),
        }
    }

    /// An argument the predicate unifies with a value it knows; what it
    /// captures is bound from here on.
    fn unified(&mut self, expr: &Expr) -> Result<Arg, PolicyError> {
        Ok(match expr {
            Expr::Var(slot) if !self.is_bound(*slot)? => {
                self.bind(*slot)?;
                Arg::Bind(*slot)
            }
            Expr::Tuple(name, args) => Arg::Pattern(TuplePattern {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|arg| self.unified(arg))
                    .collect::<Result<_, _>>()?,
            }),
            // A literal, a bound variable, or arithmetic (which binds
            // nothing, so all of it must be known).
            known => Arg::Test(self.value(known)?),
        })
    }

    fn instr(&mut self, call: &CompiledPredicate) -> Result<Instr, PolicyError> {
        Ok(match (call.predicate, call.args.as_slice()) {
            (Predicate::Eq, [a, b]) => match (self.first_unbound(a)?, self.first_unbound(b)?) {
                (None, None) => Instr::Eq {
                    lhs: a.clone(),
                    rhs: b.clone(),
                },
                (None, Some(_)) => Instr::Unify {
                    value: a.clone(),
                    target: self.unified(b)?,
                },
                (Some(_), None) => Instr::Unify {
                    value: b.clone(),
                    target: self.unified(a)?,
                },
                (Some(slot), Some(_)) => return Err(self.unbound(slot)),
            },
            (Predicate::Le, [a, b]) => self.compare(Ordering::Le, a, b)?,
            (Predicate::Lt, [a, b]) => self.compare(Ordering::Lt, a, b)?,
            (Predicate::Ge, [a, b]) => self.compare(Ordering::Ge, a, b)?,
            (Predicate::Gt, [a, b]) => self.compare(Ordering::Gt, a, b)?,
            (Predicate::SessionKeyIs, [key]) => Instr::SessionKeyIs(self.unified(key)?),
            (Predicate::NextVersion, [version]) => Instr::NextVersion(self.unified(version)?),
            (Predicate::ObjId, [handle, id]) => Instr::ObjId {
                handle: self.value(handle)?,
                id: self.unified(id)?,
            },
            (Predicate::CurrVersion, [key, version]) => Instr::CurrVersion {
                key: self.value(key)?,
                version: self.unified(version)?,
            },
            (Predicate::ObjSize, [key, version, value]) => {
                self.fact(Fact::Size, key, version, value)?
            }
            (Predicate::ObjHash, [key, version, value]) => {
                self.fact(Fact::Hash, key, version, value)?
            }
            (Predicate::ObjPolicy, [key, version, value]) => {
                self.fact(Fact::Policy, key, version, value)?
            }
            // A match binds the tuple's captures before the version's, as
            // the evaluator does.
            (Predicate::ObjSays, [key, version, says]) => {
                let key = self.value(key)?;
                let says = self.unified(says)?;
                Instr::ObjSays {
                    key,
                    version: self.unified(version)?,
                    says,
                }
            }
            (Predicate::CertificateSays, [authority, says]) => Instr::CertificateSays {
                authority: self.unified(authority)?,
                freshness: None,
                says: self.unified(says)?,
            },
            (Predicate::CertificateSays, [authority, freshness, says]) => {
                let freshness = Some(self.value(freshness)?);
                Instr::CertificateSays {
                    authority: self.unified(authority)?,
                    freshness,
                    says: self.unified(says)?,
                }
            }
            // Both load paths have checked the arity (`check_arity`).
            (predicate, args) => {
                return Err(PolicyError::CorruptBinary(format!(
                    "{predicate:?} with {} arguments",
                    args.len()
                )))
            }
        })
    }

    fn compare(&self, ordering: Ordering, lhs: &Expr, rhs: &Expr) -> Result<Instr, PolicyError> {
        Ok(Instr::Compare {
            ordering,
            lhs: self.value(lhs)?,
            rhs: self.value(rhs)?,
        })
    }

    fn fact(
        &mut self,
        fact: Fact,
        key: &Expr,
        version: &Expr,
        value: &Expr,
    ) -> Result<Instr, PolicyError> {
        Ok(Instr::ObjFact {
            fact,
            key: self.value(key)?,
            version: self.unified(version)?,
            value: self.unified(value)?,
        })
    }
}

fn no_such_slot(slot: Slot) -> PolicyError {
    PolicyError::CorruptBinary(format!("variable slot {slot} is not in the variable table"))
}
