//! Abstract syntax of the policy language.
//!
//! A [`PolicyAst`] holds one [`Condition`] per permission (`read`, `update`,
//! `delete`). Conditions are kept in disjunctive normal form: a disjunction
//! of [`Conjunction`]s, each a list of [`PredicateCall`]s evaluated left to
//! right so that variable bindings established by earlier predicates are
//! visible to later ones.

use std::collections::BTreeMap;

use crate::context::Operation;
use crate::error::Span;
use crate::value::Value;

/// An argument expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A variable reference (binds on first use).
    Variable(String),
    /// Integer addition, used for version arithmetic such as `V + 1`.
    Add(Box<Expr>, Box<Expr>),
    /// A tuple constructor whose arguments are themselves expressions.
    Tuple(String, Vec<Expr>),
}

impl Expr {
    /// Collects the names of all variables referenced by the expression.
    pub fn variables(&self, out: &mut Vec<String>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Variable(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            Expr::Add(a, b) => {
                a.variables(out);
                b.variables(out);
            }
            Expr::Tuple(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
        }
    }
}

/// A single predicate invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateCall {
    /// Predicate name as written (e.g. `sessionKeyIs`).
    pub name: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
    /// Where the call stands in the source text.
    pub span: Span,
}

/// A conjunction of predicates; all must hold.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Conjunction {
    /// The predicates, evaluated in order.
    pub predicates: Vec<PredicateCall>,
}

/// A condition in disjunctive normal form; at least one conjunction must
/// hold for the permission to be granted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Condition {
    /// The alternative conjunctions.
    pub conjunctions: Vec<Conjunction>,
}

impl Condition {
    /// A condition that never grants access (no satisfiable conjunction).
    pub fn deny_all() -> Self {
        Condition {
            conjunctions: Vec::new(),
        }
    }

    /// True if the condition can never be satisfied.
    pub fn is_deny_all(&self) -> bool {
        self.conjunctions.is_empty()
    }
}

/// A parsed policy: one condition per operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyAst {
    /// Conditions keyed by operation; a missing entry denies the operation.
    pub permissions: BTreeMap<Operation, Condition>,
}

impl PolicyAst {
    /// Returns the condition for `op`, or a deny-all condition if the policy
    /// does not mention it (closed-world default, as in Guardat).
    pub fn condition(&self, op: Operation) -> Condition {
        self.permissions
            .get(&op)
            .cloned()
            .unwrap_or_else(Condition::deny_all)
    }

    /// Total number of predicate calls across all permissions; a rough
    /// complexity measure used by cache sizing heuristics and tests.
    pub fn predicate_count(&self) -> usize {
        self.permissions
            .values()
            .flat_map(|c| &c.conjunctions)
            .map(|c| c.predicates.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_variable_collection() {
        let e = Expr::Add(
            Box::new(Expr::Variable("V".into())),
            Box::new(Expr::Tuple(
                "t".into(),
                vec![Expr::Variable("W".into()), Expr::Variable("V".into())],
            )),
        );
        let mut vars = Vec::new();
        e.variables(&mut vars);
        assert_eq!(vars, vec!["V".to_string(), "W".to_string()]);
    }

    #[test]
    fn missing_permission_denies() {
        let ast = PolicyAst::default();
        assert!(ast.condition(Operation::Read).is_deny_all());
        assert_eq!(ast.predicate_count(), 0);
    }

    #[test]
    fn predicate_count_sums_all_permissions() {
        let mut ast = PolicyAst::default();
        let call = PredicateCall {
            name: "eq".into(),
            args: vec![Expr::Literal(Value::Int(1)), Expr::Literal(Value::Int(1))],
            span: Span::default(),
        };
        ast.permissions.insert(
            Operation::Read,
            Condition {
                conjunctions: vec![Conjunction {
                    predicates: vec![call.clone(), call.clone()],
                }],
            },
        );
        ast.permissions.insert(
            Operation::Update,
            Condition {
                conjunctions: vec![Conjunction {
                    predicates: vec![call],
                }],
            },
        );
        assert_eq!(ast.predicate_count(), 3);
    }
}
