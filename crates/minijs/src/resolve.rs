//! Scope resolution: every variable becomes a `(hops, slot)` or a global
//! slot before the program runs.
//!
//! Static scopes mirror, one for one, the runtime scopes the evaluator
//! creates: one per function call, per `for` statement and per bare `{}`
//! block; `if`/`while`/`do` bodies share their enclosing scope. A scope's
//! slots are its declarations (`var` and hoisted function declarations,
//! plus parameters and `this` for a function), collected before any name
//! inside it is resolved, so a declaration binds from the start of its
//! scope. A name that no enclosing scope declares lives in the engine's
//! global table.
//!
//! The global table is append-only, and resolution reads nothing but the
//! source and that table, so a resolved program stays valid for the
//! engine's lifetime.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{Expr, FuncDef, Ident, Loc, Stmt, Target};
use crate::Value;

/// The engine's globals: an append-only name → slot table and the slots.
///
/// A slot exists once any resolved program or embedder call names it; it
/// holds `None` until something declares or assigns it. Reading a `None`
/// slot is a `ReferenceError`; writing one is the implicit global.
#[derive(Default)]
pub(crate) struct Globals {
    slots: HashMap<Rc<str>, u32>,
    /// Slot values, indexed by [`Loc::Global`].
    pub(crate) values: Vec<Option<Value>>,
}

impl Globals {
    /// The slot of `name`, appending one if it has none yet.
    pub(crate) fn slot(&mut self, name: &Rc<str>) -> u32 {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.values.len() as u32;
        self.slots.insert(Rc::clone(name), slot);
        self.values.push(None);
        slot
    }

    /// The value of global `name`, if declared.
    pub(crate) fn get(&self, name: &str) -> Option<Value> {
        let slot = *self.slots.get(name)?;
        self.values[slot as usize].clone()
    }

    /// Declares (or overwrites) global `name`.
    pub(crate) fn set(&mut self, name: &str, value: Value) {
        let slot = self.slot(&name.into());
        self.values[slot as usize] = Some(value);
    }
}

/// Resolves a freshly parsed top-level program against `globals`.
pub(crate) fn resolve_program(program: &mut [Stmt], globals: &mut Globals) {
    Resolver { globals, scopes: Vec::new() }.stmts(program);
}

/// One static scope.
#[derive(Default)]
struct Scope {
    /// Declared name → slot.
    names: HashMap<Rc<str>, u32>,
    /// Slots in use.
    size: u32,
    /// The `this` slot, in a function scope.
    this: Option<u32>,
}

impl Scope {
    fn declare(&mut self, name: &Rc<str>) {
        if !self.names.contains_key(name) {
            self.names.insert(Rc::clone(name), self.size);
            self.size += 1;
        }
    }

    /// Declares everything `stmts` declares in this scope: `var`s and
    /// function declarations, including those in `if`/`while`/`do`
    /// bodies, but not those of nested `for`s, blocks or functions.
    fn collect(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Var(decls) => decls.iter().for_each(|(id, _)| self.declare(&id.name)),
                Stmt::Func(def, _) => self.declare(&def.name),
                Stmt::If(_, then, alt) => {
                    self.collect(then);
                    self.collect(alt);
                }
                Stmt::While(_, body) | Stmt::DoWhile(body, _) => self.collect(body),
                Stmt::Expr(_)
                | Stmt::For { .. }
                | Stmt::Return(_)
                | Stmt::Break
                | Stmt::Continue
                | Stmt::Block(..) => {}
            }
        }
    }
}

struct Resolver<'g> {
    globals: &'g mut Globals,
    /// Local scopes, innermost last; empty at the top level.
    scopes: Vec<Scope>,
}

impl Resolver<'_> {
    /// Where `name` lives, seen from the innermost scope.
    fn lookup(&mut self, name: &Rc<str>) -> Loc {
        for (hops, scope) in self.scopes.iter().rev().enumerate() {
            if let Some(&slot) = scope.names.get(name) {
                return Loc::Local { hops: hops as u32, slot };
            }
        }
        Loc::Global(self.globals.slot(name))
    }

    /// Leaves the innermost scope, returning its slot count.
    fn leave(&mut self) -> u32 {
        self.scopes.pop().expect("every entered scope is left once").size
    }

    fn function(&mut self, def: &mut Rc<FuncDef>) {
        let def = Rc::get_mut(def).expect("a freshly parsed function has one owner");
        let mut scope = Scope::default();
        // Parameter `i` owns slot `i`; a repeated name binds its last slot.
        for (i, param) in def.params.iter().enumerate() {
            scope.names.insert(Rc::clone(param), i as u32);
        }
        let this = def.params.len() as u32;
        scope.this = Some(this);
        scope.size = this + 1;
        scope.collect(&def.body);
        self.scopes.push(scope);
        self.stmts(&mut def.body);
        def.frame = self.leave();
    }

    fn stmts(&mut self, stmts: &mut [Stmt]) {
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &mut Stmt) {
        match stmt {
            Stmt::Var(decls) => {
                for (id, init) in decls {
                    if let Some(init) = init {
                        self.expr(init);
                    }
                    self.ident(id);
                }
            }
            Stmt::Func(def, loc) => {
                *loc = self.lookup(&def.name);
                self.function(def);
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => self.expr(e),
            Stmt::If(cond, then, alt) => {
                self.expr(cond);
                self.stmts(then);
                self.stmts(alt);
            }
            Stmt::While(cond, body) | Stmt::DoWhile(body, cond) => {
                self.expr(cond);
                self.stmts(body);
            }
            Stmt::For { init, cond, update, body, frame } => {
                let mut scope = Scope::default();
                if let Some(init) = init {
                    scope.collect(std::slice::from_ref(init));
                }
                scope.collect(body);
                self.scopes.push(scope);
                if let Some(init) = init {
                    self.stmt(init);
                }
                for e in cond.iter_mut().chain(update.iter_mut()) {
                    self.expr(e);
                }
                self.stmts(body);
                *frame = self.leave();
            }
            Stmt::Block(body, frame) => {
                let mut scope = Scope::default();
                scope.collect(body);
                self.scopes.push(scope);
                self.stmts(body);
                *frame = self.leave();
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }

    fn ident(&mut self, id: &mut Ident) {
        id.loc = self.lookup(&id.name);
    }

    fn expr(&mut self, expr: &mut Expr) {
        match expr {
            Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Undefined => {}
            Expr::This(loc) => {
                let this = self.scopes.iter().rev().enumerate().find_map(|(hops, scope)| {
                    scope.this.map(|slot| Loc::Local { hops: hops as u32, slot })
                });
                match this {
                    Some(this) => *loc = this,
                    // No function around it: top-level `this` is undefined.
                    None => *expr = Expr::Undefined,
                }
            }
            Expr::Ident(id) => self.ident(id),
            Expr::ArrayLit(items) => items.iter_mut().for_each(|e| self.expr(e)),
            Expr::ObjectLit(props) => props.iter_mut().for_each(|(_, e, _)| self.expr(e)),
            Expr::Function(def) => self.function(def),
            Expr::Call { callee, args } => {
                self.expr(callee);
                args.iter_mut().for_each(|e| self.expr(e));
            }
            Expr::Member(obj, _, _) | Expr::Unary(_, obj) => self.expr(obj),
            Expr::Index(a, b) | Expr::Binary(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Ternary(cond, a, b) => {
                self.expr(cond);
                self.expr(a);
                self.expr(b);
            }
            Expr::Assign(target, _, value) => {
                self.target(target);
                self.expr(value);
            }
            Expr::IncrDecr { target, .. } => self.target(target),
        }
    }

    fn target(&mut self, target: &mut Target) {
        match target {
            Target::Ident(id) => self.ident(id),
            Target::Member(obj, _, _) => self.expr(obj),
            Target::Index(obj, idx) => {
                self.expr(obj);
                self.expr(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// The location of every identifier read in `stmts`, in source order.
    fn reads(stmts: &[Stmt], out: &mut Vec<(String, Loc)>) {
        fn expr(e: &Expr, out: &mut Vec<(String, Loc)>) {
            match e {
                Expr::Ident(id) => out.push((id.name.to_string(), id.loc)),
                Expr::This(loc) => out.push(("this".into(), *loc)),
                Expr::Binary(_, a, b) => {
                    expr(a, out);
                    expr(b, out);
                }
                Expr::Function(def) => reads(&def.body, out),
                _ => {}
            }
        }
        for stmt in stmts {
            match stmt {
                Stmt::Expr(e) | Stmt::Return(Some(e)) => expr(e, out),
                Stmt::Var(decls) => decls.iter().flat_map(|(_, e)| e).for_each(|e| expr(e, out)),
                Stmt::Func(def, _) => reads(&def.body, out),
                Stmt::For { body, .. } => reads(body, out),
                Stmt::Block(body, _) => reads(body, out),
                _ => {}
            }
        }
    }

    #[test]
    fn names_resolve_to_the_innermost_declaring_scope() {
        let src = "function f(a, b) {
                var c;
                for (var i = 0; ; ) { { var d; return a + c + i + d + this + g; } }
            }";
        let mut program = parse_program(src).unwrap();
        let mut globals = Globals::default();
        globals.slot(&"g0".into());
        resolve_program(&mut program, &mut globals);
        let Stmt::Func(def, loc) = &program[0] else { panic!("not a function") };
        assert_eq!(*loc, Loc::Global(1));
        // a, b, this, c.
        assert_eq!(def.frame, 4);
        let Stmt::For { frame, .. } = &def.body[1] else { panic!("not a for") };
        assert_eq!(*frame, 1);
        let mut got = Vec::new();
        reads(&program, &mut got);
        let local = |hops, slot| Loc::Local { hops, slot };
        let want = [
            ("a", local(2, 0)),
            ("c", local(2, 3)),
            ("i", local(1, 0)),
            ("d", local(0, 0)),
            ("this", local(2, 2)),
            ("g", Loc::Global(2)),
        ];
        let want: Vec<(String, Loc)> = want.iter().map(|&(n, l)| (n.to_string(), l)).collect();
        assert_eq!(got, want);
    }
}
