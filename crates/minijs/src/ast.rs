//! The abstract syntax tree.

use std::rc::Rc;

use crate::ic::PropIc;

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinaryOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `==` (implemented as strict equality; the subset has no coercing
    /// equality).
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&` with `ToInt32` semantics.
    BitAnd,
    /// `|`.
    BitOr,
    /// `^`.
    BitXor,
    /// `<<`.
    Shl,
    /// `>>` (sign-propagating).
    Shr,
    /// `>>>` (zero-fill).
    UShr,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
    /// Bitwise not (`ToInt32`).
    BitNot,
    /// `typeof`.
    TypeOf,
    /// Unary plus (`ToNumber`).
    Plus,
}

/// Assignment operators (`=`, `+=`, ...).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssignOp {
    /// Plain assignment.
    Assign,
    /// Compound assignment via a binary operator.
    Compound(BinaryOp),
}

/// Where a variable lives. The resolver (`resolve.rs`) fills one in for
/// every variable reference and declaration before the program runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// Slot `slot` of the runtime scope `hops` parent links out from the
    /// current one.
    Local {
        /// Scopes to walk out.
        hops: u32,
        /// Index into that scope's slots.
        slot: u32,
    },
    /// Slot of the engine's global table.
    Global(u32),
}

impl Loc {
    /// What the parser leaves behind: a global slot that never exists,
    /// so an unresolved read is a `ReferenceError`, never another
    /// variable's value.
    pub(crate) const UNRESOLVED: Loc = Loc::Global(u32::MAX);
}

/// A variable reference or declaration.
#[derive(Clone, Debug)]
pub struct Ident {
    /// The source name (for error messages and the global table).
    pub name: Rc<str>,
    /// Where it lives.
    pub loc: Loc,
}

impl Ident {
    /// An unresolved identifier, as the parser produces it.
    pub(crate) fn new(name: Rc<str>) -> Ident {
        Ident { name, loc: Loc::UNRESOLVED }
    }
}

/// Assignment targets.
#[derive(Clone, Debug)]
pub enum Target {
    /// A variable.
    Ident(Ident),
    /// `obj.prop`, with the site's inline cache.
    Member(Box<Expr>, Rc<str>, PropIc),
    /// `obj[index]`.
    Index(Box<Expr>, Box<Expr>),
}

/// A function definition (declaration or expression).
#[derive(Debug)]
pub struct FuncDef {
    /// The function's name (empty for anonymous expressions).
    pub name: Rc<str>,
    /// Parameter names. A call fills slot `i` with argument `i` and
    /// slot `params.len()` with `this`.
    pub params: Vec<Rc<str>>,
    /// The body.
    pub body: Vec<Stmt>,
    /// Slots of a call's scope: parameters, `this`, then the body's
    /// declarations (set by the resolver).
    pub frame: u32,
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr {
    /// A number literal.
    Num(f64),
    /// A string literal.
    Str(Rc<str>),
    /// A boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// `this` (the method receiver): the `this` slot of the innermost
    /// function scope. The resolver turns a top-level `this` into
    /// [`Expr::Undefined`].
    This(Loc),
    /// A variable reference.
    Ident(Ident),
    /// `[a, b, c]`.
    ArrayLit(Vec<Expr>),
    /// `{k: v, ...}`; each property definition carries an inline cache
    /// for its add-transition.
    ObjectLit(Vec<(Rc<str>, Expr, PropIc)>),
    /// A function expression.
    Function(Rc<FuncDef>),
    /// `f(args)`; when `callee` is a member expression the receiver
    /// becomes `this`.
    Call {
        /// The callee expression.
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `obj.prop`, with the site's inline cache.
    Member(Box<Expr>, Rc<str>, PropIc),
    /// `obj[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// A binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Short-circuit `&&`.
    And(Box<Expr>, Box<Expr>),
    /// Short-circuit `||`.
    Or(Box<Expr>, Box<Expr>),
    /// A unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// An assignment (expression-valued).
    Assign(Target, AssignOp, Box<Expr>),
    /// `++x` / `x++` / `--x` / `x--`; `is_incr` selects ±1, `prefix`
    /// selects the returned value.
    IncrDecr {
        /// The mutated target.
        target: Target,
        /// `true` for `++`.
        is_incr: bool,
        /// `true` for prefix form.
        prefix: bool,
    },
}

/// Statements.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `var`/`let` declaration list. A declaration belongs to the
    /// innermost function call, `for` statement or bare `{}` block around
    /// it (`if`/`while`/`do` bodies share their enclosing scope), or to
    /// the global table at the top level. A local is hoisted: it reads
    /// `undefined` from the start of its scope. Executing the statement
    /// assigns the initializer, or `undefined` when there is none.
    Var(Vec<(Ident, Option<Expr>)>),
    /// A function declaration, scoped like `var` and bound to its closure
    /// when the enclosing statement list is entered.
    Func(Rc<FuncDef>, Loc),
    /// An expression statement.
    Expr(Expr),
    /// `if`/`else`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while`.
    While(Expr, Vec<Stmt>),
    /// `do ... while`.
    DoWhile(Vec<Stmt>, Expr),
    /// `for (init; cond; update) body`.
    For {
        /// The initializer (a statement so declarations work).
        init: Option<Box<Stmt>>,
        /// The loop condition (missing = `true`).
        cond: Option<Expr>,
        /// The update expression.
        update: Option<Expr>,
        /// The body (a boxed slice keeps `Stmt` at 144 bytes).
        body: Box<[Stmt]>,
        /// Slots of the statement's scope (set by the resolver).
        frame: u32,
    },
    /// `return [expr]`.
    Return(Option<Expr>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// A `{ ... }` block and the slot count of its scope (set by the
    /// resolver).
    Block(Vec<Stmt>, u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_nodes_keep_their_size() {
        assert_eq!(std::mem::size_of::<Expr>(), 56);
        assert!(std::mem::size_of::<Stmt>() <= 144, "{}", std::mem::size_of::<Stmt>());
    }
}
