//! Scope semantics of resolved variables.
//!
//! Every variable is resolved to a `(hops, slot)` or a global slot before
//! the program runs. A local is bound from the start of its scope, as JS
//! `var` hoisting has it (the first two tests).

use std::rc::Rc;

use lir::{FaultPolicy, Machine};
use minijs::{Engine, EngineError, Value};

fn setup() -> (Machine, Engine) {
    let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
    let engine = Engine::new(&mut machine).unwrap();
    (machine, engine)
}

fn eval(src: &str) -> Result<Value, EngineError> {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, src)
}

fn num(v: Result<Value, EngineError>) -> f64 {
    match v {
        Ok(Value::Num(n)) => n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn is_undefined(v: Result<Value, EngineError>) -> bool {
    matches!(v, Ok(Value::Undefined))
}

#[test]
fn a_local_is_undefined_before_its_declaration_not_the_outer_binding() {
    let v = eval("var x = 1; function f() { var y = x; var x = 2; return y; } return f();");
    assert!(is_undefined(v));
}

#[test]
fn assigning_a_local_before_its_declaration_creates_no_global() {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, "function g() { z = 5; var z; } g();").unwrap();
    assert!(engine.global("z").is_none());
    let read = engine.eval(&mut machine, "return z;");
    assert!(matches!(read, Err(EngineError::Reference(name)) if name == "z"));
}

#[test]
fn a_for_scope_var_is_gone_after_the_loop() {
    let v = eval("for (var i = 0; i < 3; i++) {} return i;");
    assert!(matches!(v, Err(EngineError::Reference(name)) if name == "i"));
}

#[test]
fn a_for_scope_var_shadows_the_outer_one() {
    assert_eq!(num(eval("var i = 7; for (var i = 0; i < 3; i++) {} return i;")), 7.0);
    assert_eq!(num(eval("var v = 1; { var v = 2; } return v;")), 1.0);
}

#[test]
fn closures_made_in_one_for_share_its_scope() {
    let src = "var fs = [];
        for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); }
        return fs[0]() * 100 + fs[1]() * 10 + fs[2]();";
    assert_eq!(num(eval(src)), 333.0);
}

#[test]
fn a_repeated_parameter_takes_the_last_argument() {
    assert_eq!(num(eval("function p(a, a) { return a; } return p(1, 2);")), 2.0);
    assert!(is_undefined(eval("function p(a, a) { return a; } return p(1);")));
}

#[test]
fn redeclaring_a_parameter_without_initializer_makes_it_undefined() {
    assert!(is_undefined(eval("function r(a) { var a; return a; } return r(5);")));
}

#[test]
fn a_function_declared_in_an_if_body_hoists_to_the_enclosing_scope() {
    let src = "function outer() { if (true) { function h() { return 4; } } return h(); }
        return outer();";
    assert_eq!(num(eval(src)), 4.0);
    let (mut machine, mut engine) = setup();
    let v = engine.eval(&mut machine, "if (true) { function h2() { return 5; } } return h2();");
    assert_eq!(num(v), 5.0);
    assert!(matches!(engine.global("h2"), Some(Value::Fun(_))));
}

#[test]
fn top_level_this_is_undefined_and_methods_see_their_receiver() {
    assert!(is_undefined(eval("return this;")));
    assert!(is_undefined(eval("for (var i = 0; i < 1; i++) { return this; }")));
    let src = "var o = {v: 3, m: function() {
            var s = 0;
            for (var i = 0; i < 2; i++) { { s += this.v; } }
            return s;
        }};
        return o.m();";
    assert_eq!(num(eval(src)), 6.0);
    // A plain call passes no receiver, whatever encloses the callee.
    let src = "var o = {m: function() { var f = function() { return this; }; return f(); }};
        return o.m();";
    assert!(is_undefined(eval(src)));
}

#[test]
fn closures_reach_across_function_for_and_block_scopes() {
    let src = "function outer() {
            var a = 1, r;
            { var b = 2; for (var i = 0; i < 1; i++) { r = function() { return a * 100 + b * 10 + i; }; } }
            return r();
        }
        return outer();";
    assert_eq!(num(eval(src)), 121.0);
}

#[test]
fn set_global_after_an_eval_is_seen_by_functions_compiled_earlier() {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, "function read() { return late; }").unwrap();
    let before = engine.call(&mut machine, "read", &[]);
    assert!(matches!(before, Err(EngineError::Reference(name)) if name == "late"));
    engine.set_global("late", Value::Num(9.0));
    assert_eq!(num(engine.call(&mut machine, "read", &[])), 9.0);
}

#[test]
fn a_native_calls_back_into_a_closure_with_its_scope_and_receiver() {
    let (mut machine, mut engine) = setup();
    engine.register_native(
        "invoke",
        Rc::new(|ctx, _this, args| {
            let arg = |i: usize| args.get(i).cloned().unwrap_or(Value::Undefined);
            ctx.call_value(&arg(0), arg(1), &[arg(2)])
        }),
    );
    let src = "function make() { var base = 10; return function(x) { return base + x + this.k; }; }
        return invoke(make(), {k: 100}, 5);";
    assert_eq!(num(engine.eval(&mut machine, src)), 115.0);
}

#[test]
fn re_evaluating_a_source_reruns_its_top_level_with_one_function_definition() {
    let (mut machine, mut engine) = setup();
    engine.set_global("count", Value::Num(0.0));
    let src = "count = count + 1; function f() { return count; }";
    let closure = |engine: &mut Engine| match engine.global("f") {
        Some(Value::Fun(handle)) => {
            (handle, Rc::clone(&engine.heap_mut().closure(handle).unwrap().def))
        }
        other => panic!("f is {other:?}"),
    };
    engine.eval(&mut machine, src).unwrap();
    let (first, first_def) = closure(&mut engine);
    engine.eval(&mut machine, src).unwrap();
    let (second, second_def) = closure(&mut engine);
    assert_eq!(num(engine.call(&mut machine, "f", &[])), 2.0);
    assert_ne!(first, second, "each eval hoists a fresh closure");
    assert!(Rc::ptr_eq(&first_def, &second_def), "both closures share one definition");
}
