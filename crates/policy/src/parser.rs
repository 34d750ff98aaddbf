//! Recursive-descent parser for the policy language.
//!
//! The grammar (one permission clause per line or simply in sequence):
//!
//! ```text
//! policy      := clause+
//! clause      := permission ":-" condition
//! permission  := "read" | "update" | "delete" | "destroy"
//! condition   := group ( OR group )*
//! group       := "(" conjunction ")" | conjunction
//! conjunction := predicate ( AND predicate )*
//! predicate   := IDENT "(" [ expr ( "," expr )* ] ")"
//! expr        := atom ( "+" atom )*
//! atom        := INT | STRING | VARIABLE | IDENT [ "(" args ")" ]
//! ```
//!
//! Bare lowercase identifiers in argument position are treated as variables
//! (the paper's examples freely use `o`, `cV`, `tskey`, …), with three
//! exceptions: `null` is the null literal, and `this` / `log` are the
//! context-bound handles of the accessed object and its associated log.

use crate::ast::{Condition, Conjunction, Expr, PolicyAst, PredicateCall};
use crate::context::Operation;
use crate::error::{PolicyError, Span};
use crate::lexer::{tokenize_spanned, Token};
use crate::value::Value;

/// Special variable bound to the accessed object's key.
pub const THIS_VAR: &str = "THIS";
/// Special variable bound to the object's associated log key.
pub const LOG_VAR: &str = "LOG";

/// Parses policy source text into an AST.
pub fn parse(input: &str) -> Result<PolicyAst, PolicyError> {
    let tokens = tokenize_spanned(input)?;
    Parser { tokens, pos: 0 }.parse_policy()
}

struct Parser {
    tokens: Vec<(Token, Span)>,
    pos: usize,
}

impl Parser {
    fn error(&self, message: impl Into<String>) -> PolicyError {
        PolicyError::ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn token(&self, pos: usize) -> Option<&Token> {
        self.tokens.get(pos).map(|(token, _)| token)
    }

    fn peek(&self) -> Option<&Token> {
        self.token(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.peek().cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The source range from the token at `first` to the last one consumed.
    fn span_since(&self, first: usize) -> Span {
        let edge = |pos: usize| self.tokens.get(pos).map(|(_, span)| *span);
        match (edge(first), self.pos.checked_sub(1).and_then(edge)) {
            (Some(first), Some(last)) => Span {
                start: first.start,
                end: last.end,
            },
            _ => Span::default(),
        }
    }

    fn expect(&mut self, expected: &Token) -> Result<(), PolicyError> {
        match self.next() {
            Some(ref t) if t == expected => Ok(()),
            other => Err(self.error(format!("expected {expected:?}, found {other:?}"))),
        }
    }

    fn parse_policy(&mut self) -> Result<PolicyAst, PolicyError> {
        let mut ast = PolicyAst::default();
        while self.peek().is_some() {
            let (op, condition) = self.parse_clause()?;
            // Multiple clauses for the same permission OR together.
            let entry = ast
                .permissions
                .entry(op)
                .or_insert_with(Condition::deny_all);
            entry.conjunctions.extend(condition.conjunctions);
        }
        if ast.permissions.is_empty() {
            return Err(self.error("policy defines no permissions"));
        }
        Ok(ast)
    }

    fn parse_clause(&mut self) -> Result<(Operation, Condition), PolicyError> {
        let op = match self.next() {
            Some(Token::Ident(name)) => Operation::parse(&name)
                .ok_or_else(|| self.error(format!("unknown permission {name:?}")))?,
            other => return Err(self.error(format!("expected permission name, found {other:?}"))),
        };
        self.expect(&Token::Turnstile)?;
        let condition = self.parse_condition()?;
        Ok((op, condition))
    }

    fn at_clause_boundary(&self) -> bool {
        // A clause ends when the next tokens are `<permission> :-` or input
        // is exhausted.
        match (self.token(self.pos), self.token(self.pos + 1)) {
            (Some(Token::Ident(name)), Some(Token::Turnstile)) => Operation::parse(name).is_some(),
            (None, _) => true,
            _ => false,
        }
    }

    fn parse_condition(&mut self) -> Result<Condition, PolicyError> {
        let mut conjunctions = vec![self.parse_group()?];
        while let Some(Token::Or) = self.peek() {
            self.next();
            conjunctions.push(self.parse_group()?);
        }
        Ok(Condition { conjunctions })
    }

    fn parse_group(&mut self) -> Result<Conjunction, PolicyError> {
        // A parenthesised conjunction: "( pred AND pred ... )". We must
        // distinguish it from a predicate call, which always starts with an
        // identifier.
        if matches!(self.peek(), Some(Token::LParen)) {
            self.next();
            let conj = self.parse_conjunction()?;
            self.expect(&Token::RParen)?;
            return Ok(conj);
        }
        self.parse_conjunction()
    }

    fn parse_conjunction(&mut self) -> Result<Conjunction, PolicyError> {
        let mut predicates = vec![self.parse_predicate()?];
        // A clause is a conjunction until a token other than `and` (the
        // implicit end of the clause) or a clause boundary appears.
        while let Some(Token::And) = self.peek() {
            self.next();
            predicates.push(self.parse_predicate()?);
            if self.at_clause_boundary() {
                break;
            }
        }
        Ok(Conjunction { predicates })
    }

    fn parse_predicate(&mut self) -> Result<PredicateCall, PolicyError> {
        let first = self.pos;
        let name = match self.next() {
            Some(Token::Ident(name)) => name,
            other => return Err(self.error(format!("expected predicate name, found {other:?}"))),
        };
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if !matches!(self.peek(), Some(Token::RParen)) {
            args.push(self.parse_expr()?);
            while matches!(self.peek(), Some(Token::Comma)) {
                self.next();
                args.push(self.parse_expr()?);
            }
        }
        self.expect(&Token::RParen)?;
        Ok(PredicateCall {
            name,
            args,
            span: self.span_since(first),
        })
    }

    fn parse_expr(&mut self) -> Result<Expr, PolicyError> {
        let mut expr = self.parse_atom()?;
        while matches!(self.peek(), Some(Token::Plus)) {
            self.next();
            let rhs = self.parse_atom()?;
            expr = Expr::Add(Box::new(expr), Box::new(rhs));
        }
        Ok(expr)
    }

    fn parse_atom(&mut self) -> Result<Expr, PolicyError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Str(s)) => {
                // A quoted name followed by '(' is a tuple constructor, e.g.
                // 'read'(o, v, u).
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.next();
                    let args = self.parse_tuple_args()?;
                    Ok(Expr::Tuple(s, args))
                } else {
                    Ok(Expr::Literal(Value::Str(s)))
                }
            }
            Some(Token::Variable(name)) => match name.to_ascii_lowercase().as_str() {
                "null" | "nil" => Ok(Expr::Literal(Value::Null)),
                "this" => Ok(Expr::Variable(THIS_VAR.to_string())),
                "log" => Ok(Expr::Variable(LOG_VAR.to_string())),
                _ => Ok(Expr::Variable(name)),
            },
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.next();
                    let args = self.parse_tuple_args()?;
                    return Ok(Expr::Tuple(name, args));
                }
                match name.to_ascii_lowercase().as_str() {
                    "null" | "nil" => Ok(Expr::Literal(Value::Null)),
                    "this" => Ok(Expr::Variable(THIS_VAR.to_string())),
                    "log" => Ok(Expr::Variable(LOG_VAR.to_string())),
                    // Bare lowercase identifiers act as variables, matching
                    // the paper's example notation (o, cV, tskey, ...).
                    _ => Ok(Expr::Variable(name)),
                }
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    fn parse_tuple_args(&mut self) -> Result<Vec<Expr>, PolicyError> {
        let mut args = Vec::new();
        if !matches!(self.peek(), Some(Token::RParen)) {
            args.push(self.parse_expr()?);
            while matches!(self.peek(), Some(Token::Comma)) {
                self.next();
                args.push(self.parse_expr()?);
            }
        }
        self.expect(&Token::RParen)?;
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_access_control_policy() {
        let ast = parse(
            "read :- sessionKeyIs(\"alice\") or sessionKeyIs(\"bob\")\n\
             update :- sessionKeyIs(\"alice\")\n\
             delete :- sessionKeyIs(\"admin\")",
        )
        .unwrap();
        assert_eq!(ast.permissions.len(), 3);
        assert_eq!(ast.condition(Operation::Read).conjunctions.len(), 2);
        assert_eq!(ast.condition(Operation::Update).conjunctions.len(), 1);
    }

    #[test]
    fn parses_destroy_as_delete() {
        let ast = parse("destroy :- sessionKeyIs(\"admin\")").unwrap();
        assert!(!ast.condition(Operation::Delete).is_deny_all());
    }

    #[test]
    fn parses_versioned_store_policy() {
        let ast = parse(
            "update :- ( objId(this, O) ∧ currVersion(O, CV) ∧ nextVersion(CV + 1) ) \
             ∨ ( objId(this, NULL) ∧ nextVersion(0) )",
        )
        .unwrap();
        let cond = ast.condition(Operation::Update);
        assert_eq!(cond.conjunctions.len(), 2);
        assert_eq!(cond.conjunctions[0].predicates.len(), 3);
        // The THIS handle is normalised.
        assert_eq!(
            cond.conjunctions[0].predicates[0].args[0],
            Expr::Variable(THIS_VAR.into())
        );
        // CV + 1 parses as an addition.
        assert!(matches!(
            cond.conjunctions[0].predicates[2].args[0],
            Expr::Add(_, _)
        ));
        // NULL literal.
        assert_eq!(
            cond.conjunctions[1].predicates[0].args[1],
            Expr::Literal(Value::Null)
        );
    }

    #[test]
    fn parses_time_policy_with_tuples() {
        let ast = parse(
            "update :- certificateSays(Kca, 'ts'(Tskey)) and certificateSays(Tskey, 'time'(T)) \
             and ge(T, 1650000000)",
        )
        .unwrap();
        let cond = ast.condition(Operation::Update);
        let preds = &cond.conjunctions[0].predicates;
        assert_eq!(preds.len(), 3);
        assert!(matches!(&preds[0].args[1], Expr::Tuple(name, _) if name == "ts"));
        assert!(matches!(&preds[1].args[1], Expr::Tuple(name, _) if name == "time"));
    }

    #[test]
    fn parses_mal_policy() {
        let ast = parse(
            "read :- objId(THIS, O) and objId(LOG, L) and currVersion(O, V) and \
                     sessionKeyIs(U) and objSays(L, LV, 'read'(O, V, U))\n\
             update :- objId(THIS, O) and objId(LOG, L) and sessionKeyIs(U) and \
                     currVersion(O, V) and nextVersion(V + 1) and objHash(O, V, CH) and \
                     objHash(O, V + 1, NH) and objSays(L, LV, 'write'(O, V, CH, NH, U))",
        )
        .unwrap();
        assert_eq!(
            ast.condition(Operation::Read).conjunctions[0]
                .predicates
                .len(),
            5
        );
        assert_eq!(
            ast.condition(Operation::Update).conjunctions[0]
                .predicates
                .len(),
            8
        );
    }

    #[test]
    fn multiple_clauses_for_same_permission_or_together() {
        let ast = parse(
            "read :- sessionKeyIs(\"a\")\nread :- sessionKeyIs(\"b\")\nupdate :- sessionKeyIs(\"a\")",
        )
        .unwrap();
        assert_eq!(ast.condition(Operation::Read).conjunctions.len(), 2);
    }

    #[test]
    fn rejects_malformed_policies() {
        assert!(parse("").is_err());
        assert!(parse("read sessionKeyIs(X)").is_err());
        assert!(parse("fly :- eq(1, 1)").is_err());
        assert!(parse("read :- eq(1, 1").is_err());
        assert!(parse("read :- 42").is_err());
        assert!(parse("read :- eq(1,)").is_err());
    }

    #[test]
    fn lowercase_bare_identifiers_are_variables() {
        let ast = parse("read :- currVersion(o, cV) and eq(cV, 3)").unwrap();
        let preds = &ast.condition(Operation::Read).conjunctions[0].predicates;
        assert_eq!(preds[0].args[0], Expr::Variable("o".into()));
        assert_eq!(preds[0].args[1], Expr::Variable("cV".into()));
    }
}
