"""Expression engine: parsing, evaluation, exact differentiation,
simplification, the printer round trip and node interning."""

import dataclasses
import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import count_compiles, float_fn, general_instances
from test_expr_reference import build, raw, ref_eval, ref_lambdify
from vdplin import expr, odesolve
from vdplin.colehopf import (bundle_from_json, bundle_to_json, solve_chain,
                             verify_annihilation, verify_printed_coeffs)
from vdplin.expr import (ONE, Add, Const, Div, Fun, Mul, Neg, Param,
                         ParseError, Pow, Sub, UnboundParameterError, Var, X,
                         diff, free_params, lambdify, lambdify_ode, parse,
                         simplify, subst, to_str)
from vdplin.odesolve import Grid, integrate_linear, integrate_vdp
from vdplin.wcalc import vdp_chain


def test_parse_variable_identity():
    assert parse("x") == X


def test_parse_structure():
    e = parse("mu*(beta - x^2)")
    assert e == Mul(Param("mu"), Sub(Param("beta"), Pow(X, Const(2.0))))


def test_parse_exp_factor_matches_closed_form():
    # oracle: evaluate both sides at sample points
    e = parse("exp(mu*beta*x/2)")
    assert isinstance(e, Fun) and e.name == "exp"
    for x in (0.0, 0.7, 2.3, -1.1):
        want = math.exp(2.0 * 1.0 * x / 2.0)
        got = float(lambdify(subst(e, {"mu": 2.0, "beta": 1.0}))(x))
        assert got == pytest.approx(want, rel=1e-15)


def test_eval_power():
    assert float(lambdify(parse("x^2"))(3.0)) == 9.0


def test_eval_params():
    e = subst(parse("mu*beta"), {"mu": 2.0, "beta": 1.0})
    assert float(lambdify(e)(0.0)) == 2.0


def test_eval_constant_shift_value():
    # (mu*beta - k)/4 at mu=2, beta=1, alpha=0.75 has k = 1 and value 0.25
    k = math.sqrt((2.0 * 1.0) ** 2 - 4 * 0.75)
    env = {"mu": 2, "beta": 1, "k": k}
    got = float(lambdify(subst(parse("(mu*beta - k)/4"), env))(1.234))
    assert got == pytest.approx(0.25, abs=1e-15)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("x + $")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("foo(x)")
    with pytest.raises(ParseError):
        parse("x + ")
    with pytest.raises(ParseError):
        parse("x) + 1")


def test_diff_basics():
    assert simplify(diff(Const(5.0))) == Const(0.0)
    assert simplify(diff(parse("x^2"))) == parse("2*x")
    assert simplify(diff(parse("x^3"))) == parse("3*x^2")


def test_diff_tan_matches_finite_difference():
    e = parse("tan(x)")
    x = 0.7
    h = (2.0 ** -52) ** (1 / 3) * max(1.0, abs(x))
    f = lambdify(e)
    fd = float(f(x + h) - f(x - h)) / (2 * h)
    sym = float(lambdify(diff(e))(x))
    assert abs(sym - fd) / max(1.0, abs(fd)) <= 1e-6


def test_simplify_identities():
    assert simplify(parse("x*0 + y")) == Param("y")
    assert simplify(parse("2*3")) == Const(6.0)
    assert simplify(parse("x^1")) == X
    assert simplify(parse("x^0")) == Const(1.0)
    assert simplify(Neg(Neg(X))) == X
    assert simplify(parse("(x+0)*1")) == X
    assert simplify(parse("exp(0)")) == Const(1.0)


def test_subst_and_free_params():
    e = parse("a*x + b")
    assert free_params(e) == {"a", "b"}
    e2 = subst(e, {"a": 2.0})
    assert free_params(e2) == {"b"}
    assert float(lambdify(subst(e2, {"b": 1.0}))(3.0)) == 7.0


def test_every_pass_runs_on_a_20000_deep_chain():
    # a left-leaning sum a*x + 0.5 + x*x + 0.5 + ..., built in a loop far
    # deeper than the recursion limit allows a recursive walk to go
    n = 20000
    assert sys.getrecursionlimit() < n
    e = Mul(Param("a"), X)
    for k in range(n):
        e = Add(e, Mul(X, X) if k % 2 else Const(0.5))
    f = subst(e, {"a": 1.0})  # 1*x is born x: every Add above is rebuilt
    assert free_params(f) == frozenset()
    g = simplify(f)
    assert simplify(f) is g
    d = simplify(diff(f))
    # printed and parsed back through the constructors, with no recursion
    assert parse(to_str(e)) is e
    assert parse(to_str(f)) is f
    xs = np.array([-1.5, 0.0, 0.5, 2.0])
    want = xs + (n // 2) * (xs * xs + 0.5)
    for h in (f, g):
        np.testing.assert_allclose(lambdify(h)(xs), want, rtol=1e-12)
    np.testing.assert_allclose([float_fn(g)(x) for x in xs], want,
                               rtol=1e-12)
    np.testing.assert_allclose(lambdify(d)(xs), 1.0 + n * xs, rtol=1e-12)


def test_lambdify_matches_interpreter():
    e = parse("sin(x)*exp(-x/3) + x^2/(1+x^2)")
    xs = np.linspace(-2, 2, 41)
    fast = lambdify(e)(xs)
    slow = np.array([ref_eval(e, float(x)) for x in xs])
    # numpy and libm elementary functions may differ in the last ulp
    assert np.max(np.abs(fast - slow)) <= 4 * np.max(np.spacing(np.abs(slow)))
    fscalar = float_fn(e)
    assert fscalar(0.7) == ref_eval(e, 0.7)
    assert all(fscalar(float(x)) == ref_eval(e, float(x)) for x in xs)


def test_parameters_are_bound_only_by_subst():
    e = parse("a*x")
    assert float(lambdify(subst(e, {"a": 2.0}))(3.0)) == 6.0
    with pytest.raises(UnboundParameterError):
        lambdify(e)
    with pytest.raises(UnboundParameterError):
        lambdify_ode(e, "u", "du")
    # compiling takes no values for the parameters and has no scalar switch
    with pytest.raises(TypeError):
        lambdify(e, {"a": 1.0})
    with pytest.raises(TypeError):
        lambdify(subst(e, {"a": 2.0}), scalar=True)


def test_lambdify_constant_broadcasts():
    vals = lambdify(parse("3"))(np.linspace(0, 1, 5))
    assert vals.shape == (5,) and np.all(vals == 3.0)


# ---------------------------------------------------------------------------
# property tests

def _raw_exprs(max_leaves=10):
    """Random raw trees (``test_expr_reference.build``) over x and
    constants."""
    constants = st.floats(min_value=-2.0, max_value=2.0,
                          allow_nan=False).map(lambda v: (Const, round(v, 3)))
    leaves = st.one_of(st.just((Var,)), constants)
    fun_names = st.sampled_from(("exp", "sin", "cos", "sinh", "cosh",
                                 "tan", "log", "sqrt"))
    exponents = st.integers(min_value=0, max_value=3).map(
        lambda k: (Const, float(k)))
    return st.recursive(
        leaves,
        lambda ch: st.one_of(
            ch.map(lambda a: (Neg, a)),
            *(st.tuples(st.just(t), ch, ch) for t in (Add, Sub, Mul, Div)),
            st.tuples(st.just(Pow), ch, exponents),
            st.tuples(st.just(Fun), fun_names, ch),
        ),
        max_leaves=max_leaves,
    )


def _exprs(max_leaves=10):
    """Random trees over x and constants."""
    return _raw_exprs(max_leaves).map(build)


def _try_eval(e, x):
    v = float(lambdify(e)(x))
    return v if math.isfinite(v) else None


@settings(max_examples=100, deadline=None)
@given(_exprs(), st.lists(st.floats(min_value=-2.0, max_value=2.0,
                                    allow_nan=False), min_size=10, max_size=10))
def test_derivative_matches_finite_difference(e, xs):
    de = diff(e)
    for x in xs:
        h = (2.0 ** -52) ** (1 / 3) * max(1.0, abs(x))
        stencil = [_try_eval(e, x + k * h) for k in (-2, -1, 0, 1, 2)]
        assume(all(v is not None and abs(v) < 1e4 for v in stencil))
        sym = _try_eval(de, x)
        assume(sym is not None and abs(sym) < 1e4)
        fd = (stencil[3] - stencil[1]) / (2 * h)
        # skip points where curvature makes the central difference itself
        # inaccurate at this step size
        curv = abs(stencil[3] - 2 * stencil[2] + stencil[1]) / h ** 2
        assume(curv < 1e4)
        # skip points where evaluating the derivative tree hits catastrophic
        # cancellation: a wrong derivative is smoothly wrong and still fails
        # at the locally consistent points, so this masks no real defect
        nbhd = [_try_eval(de, x - h), _try_eval(de, x + h)]
        assume(all(v is not None for v in nbhd))
        smooth = (nbhd[0] + nbhd[1]) / 2
        assume(abs(sym - smooth) <= 1e-5 * max(1.0, abs(sym), abs(smooth)))
        assert abs(sym - fd) / max(1.0, abs(fd)) <= 1e-5


def _try_scalar(e, x):
    """e at x through the scalar code, None where a math function raises or
    the value is not finite."""
    try:
        v = float_fn(e)(x)
    except (ArithmeticError, ValueError):
        return None
    return v if math.isfinite(v) else None


@settings(max_examples=200, deadline=None)
@given(_raw_exprs(), st.floats(min_value=-3.0, max_value=3.0,
                               allow_nan=False))
# sinh(0.625) folds through math.sinh one ulp away from np.sinh, and the sum
# with tan(0.5) cancels three bits of it
@example(t=(Add, (Neg, (Fun, "sinh", (Const, 0.625))),
            (Neg, (Neg, (Fun, "tan", (Var,))))), x=0.5)
def test_simplify_preserves_values_to_ulps(t, x):
    # the raw tree against the one the constructors build of it, both read
    # through the scalar code, whose math functions are the ones the
    # constructors fold constant calls with
    before = _try_scalar(raw(t), x)
    assume(before is not None)
    after = _try_scalar(build(t), x)
    assume(after is not None)
    assert abs(after - before) <= 4 * math.ulp(max(abs(before), abs(after)))


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_printer_round_trip(e):
    s1 = to_str(e)
    t1 = parse(s1)
    # parse . print . parse == parse, and printing preserves values exactly
    assert parse(to_str(t1)) == t1
    for x in (-1.5, 0.0, 0.8):
        v1 = _try_eval(e, x)
        v2 = _try_eval(t1, x)
        if v1 is None or v2 is None:
            continue
        assert v1 == v2


@settings(max_examples=100, deadline=None)
@given(_exprs())
def test_diff_twice_total(e):
    # closure under differentiation: the second derivative always exists
    assert diff(diff(e)) is not None


def test_simplify_ulp_budget_over_thousand_points():
    # a few fixed raw shapes with random constants, the raw tree against
    # the one the constructors build of it, sampled until the budget covers
    # a thousand points
    rng = np.random.default_rng(5)
    x, n = (Var,), (lambda v: (Const, v))
    shapes = [
        # (a + x)*(b - x) + c
        lambda a, b, c: (Add, (Mul, (Add, n(a), x), (Sub, n(b), x)), n(c)),
        # sin(a*x) + x^2*b - c
        lambda a, b, c: (Sub, (Add, (Fun, "sin", (Mul, n(a), x)),
                                   (Mul, (Pow, x, n(2.0)), n(b))), n(c)),
        # exp(x/3)*a + x/(b*b + 1) + 0*x
        lambda a, b, c: (Add, (Add, (Mul, (Fun, "exp", (Div, x, n(3.0))),
                                         n(a)),
                                   (Div, x, (Add, (Mul, n(b), n(b)), n(1.0)))),
                         (Mul, n(0.0), x)),
        # (x + 0)*1 + a*(x - b)^2
        lambda a, b, c: (Add, (Mul, (Add, x, n(0.0)), n(1.0)),
                         (Mul, n(a), (Pow, (Sub, x, n(b)), n(2.0)))),
    ]
    checked = 0
    while checked < 1000:
        a, b, c = (round(float(v), 3) for v in rng.uniform(-2, 2, 3))
        t = rng.choice(shapes)(a, b, c)
        e, se = raw(t), build(t)
        for point in rng.uniform(-3, 3, 10):
            before = _try_eval(e, float(point))
            after = _try_eval(se, float(point))
            if before is None or after is None:
                continue
            budget = 4 * math.ulp(max(abs(before), abs(after), 1e-300))
            assert abs(after - before) <= budget
            checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------------------
# interning

def _dag(e) -> dict:
    """Distinct node objects reachable from e, by id."""
    seen = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(getattr(node, f.name) for f in dataclasses.fields(node)
                     if isinstance(getattr(node, f.name), expr.Expr))
    return seen


def _rebuild(e):
    """An equal tree built node by node through the constructors."""
    args = [getattr(e, f.name) for f in dataclasses.fields(e)]
    return type(e)(*(_rebuild(a) if isinstance(a, expr.Expr) else a
                     for a in args))


def test_equal_trees_are_the_same_object():
    def build():
        return Add(Mul(Const(2), X), Fun("sin", Pow(X, Const(3.0))))

    assert build() is build()
    assert parse("2*x + sin(x^3)") is build()
    text = "mu*(beta - x^2)/(1 + exp(-x))"
    assert parse(text) is parse(text)
    assert Const(1) is Const(1.0)


def test_signed_zero_constants_stay_apart():
    assert Const(0.0) is not Const(-0.0)
    assert lambdify(X / Const(-0.0))(1.0) == -np.inf
    assert lambdify(X / Const(0.0))(1.0) == np.inf


def test_negative_zero_prints_with_its_sign():
    # "-0" is born the constant -0.0, which must print back as "-0"
    for text in ("-0", "x/-0", "(-0)^x"):
        e = parse(text)
        assert to_str(e) == text and parse(to_str(e)) is e
    assert parse("-0") is Const(-0.0)
    assert lambdify(parse("x/-0"))(1.0) == -np.inf


def test_nan_constants_are_interned():
    nan = float("nan")
    held = [Const(nan)]
    before = len(expr._NODES)
    for _ in range(100):
        assert Const(float("nan")) is held[0]
    assert len(expr._NODES) == before
    q = parse("a*x")
    assert subst(q, {"a": nan}) is subst(q, {"a": nan})
    assert Const(-nan) is not held[0]  # another bit pattern


def test_constant_subtrees_give_inf_or_nan():
    # a constant-only subtree follows numpy semantics like any other
    # point: no ZeroDivisionError or OverflowError
    xs = np.linspace(0.0, 1.0, 5)
    for text in ("x + 1/0", "x + 0^(-1)", "1/0 - 1/0", "x*(1e300*1e300)",
                 "x + log(0)", "sqrt(-1) + x"):
        vals = lambdify(parse(text))(xs)
        assert vals.shape == xs.shape
        assert not np.isfinite(vals).any(), text
    assert np.all(lambdify(parse("x + 1/0"))(xs) == np.inf)
    assert np.all(lambdify(parse("x + 0^(-1)"))(xs) == np.inf)
    assert np.all(np.isnan(lambdify(parse("1/0 - 1/0"))(xs)))


def test_invalid_names_enter_no_table_entry():
    before = len(expr._NODES)
    for build in (lambda: Param("x"), lambda: Param("1a"),
                  lambda: Param("a-b"), lambda: Fun("erf", X)):
        with pytest.raises(ValueError) as err:
            build()
        # the traceback in err keeps the failed call's frame, and so any
        # half-built node, alive: the table must not hold one
        assert err.tb is not None
        assert len(expr._NODES) == before


def test_field_checks_run_before_any_rule():
    # exp of a constant folds, so the name is refused before a rule reads
    # it, and no node or key is made
    before = len(expr._NODES)
    with pytest.raises(ValueError, match="unknown function 'bogus'"):
        Fun("bogus", Const(1.0))
    with pytest.raises(ValueError, match="invalid parameter name 'x'"):
        Param("x")
    assert len(expr._NODES) == before


def test_a_rewritten_call_leaves_no_table_entry():
    # the rule's result is returned, and the node asked for gets no key
    neg = Neg(X)
    for call, key, out in (((Mul, X, ONE), (Mul, X, ONE), X),
                           ((Neg, neg), (Neg, neg), X),
                           ((Fun, "exp", Const(0.0)),
                            (Fun, "exp", Const(0.0)), ONE)):
        assert call[0](*call[1:]) is out
        assert key not in expr._NODES
    assert (Neg, X) in expr._NODES  # no rule: interned


def test_intern_table_drains_without_collection():
    # with the cyclic collector off, the table can only drain if no node
    # is kept alive by a reference cycle; the right-hand sides compiled
    # for the adaptive integrators outlive the bundle, so they must hold
    # no node either, and neither may the jet and chain memos, the printer
    # nor the exact path of verify_annihilation
    gc.collect()
    gc.disable()
    try:
        before, rhs_before = len(expr._NODES), len(odesolve._RHS)
        (params, P), = general_instances(1, seed=3)
        b = solve_chain(P, params)
        b = b.with_entries(verify_printed_coeffs(b.P, b.U, params, b.v, b.h,
                                                 b.g, b.f))
        lambdify(b.f)(np.linspace(0.0, 1.0, 5))
        grid = Grid(0.0, 0.01, 3)
        integrate_vdp(b, grid, 1.0, 0.0)
        integrate_linear(b.U, grid, 1.0, 0.0)
        rhs = [odesolve._RHS[b][1], odesolve._RHS[b.U][1]]
        # the chain memo hands back the bundle's own nodes, and the
        # printer's memo of text dies with the document
        chain = vdp_chain(P, params)
        assert all(chain[name] is getattr(b, name) for name in chain)
        assert vdp_chain(P, params) == chain
        back = bundle_from_json(bundle_to_json(b))
        assert verify_annihilation(b, grid).note == "exact"
        assert verify_annihilation(back, grid).note == "exact"
        # a derivative can hold its own node, as that of exp(2*x)*2 is
        # (exp(2*x)*2)*2
        grows = solve_chain(parse("exp(2*x)*2"), params)
        assert verify_annihilation(grows, grid).note == "exact"
        assert len(expr._NODES) > before + 100
        del b, P, back, grows, chain
        assert len(expr._NODES) == before
        assert len(odesolve._RHS) == rhs_before
        for fn in rhs:
            assert len(fn(0.0, (1.0, 0.0))) == 2
    finally:
        gc.enable()


def test_cached_results_match_a_fresh_compile():
    def build():
        return parse("(x + 0)*1*sin(x)*exp(-x/3) + x^2/(1 + x^2) + 0*x")

    xs = np.linspace(-2.0, 2.0, 41)
    e = build()
    vector = lambdify(e)
    # a tree built in another call is the same node, with the same results;
    # born simplified, it is its own simplified form
    assert lambdify(build()) is vector
    assert simplify(build()) is e

    alive = weakref.ref(e)
    del e
    assert alive() is None
    e2 = build()  # a new node: nothing cached on it yet
    fresh = lambdify(e2)
    assert fresh is not vector
    assert np.array_equal(fresh(xs), vector(xs))
    assert simplify(e2) is e2


def test_lambdify_cache_follows_the_bound_values():
    e = parse("a*x + sin(x)")
    two = lambdify(subst(e, {"a": 2.0}))
    three = lambdify(subst(e, {"a": 3.0}))
    assert float(two(1.0)) == 2.0 + np.sin(1.0)
    assert float(three(1.0)) == 3.0 + np.sin(1.0)
    with pytest.raises(UnboundParameterError):
        lambdify(e)


def test_round_trip_keeps_sharing():
    for params, P in general_instances(4, seed=11):
        b = solve_chain(P, params)
        n_f = len(_dag(b.f))
        assert len(_dag(parse(to_str(b.f)))) <= 1.1 * n_f
        for name in ("P", "U", "v", "h", "f"):
            e = getattr(b, name)
            nodes = _dag(e)
            back = parse(to_str(e))
            # equal up to how negative constants print: -0.5 re-parses as
            # Neg(Const(0.5)), at most two new nodes per constant
            negative = sum(isinstance(n, Const) and n.value < 0
                           for n in nodes.values())
            assert len(_dag(back)) <= len(nodes) + 2 * negative, name
            assert parse(to_str(back)) is back


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_interned_trees_and_round_trip_values(e):
    assert _rebuild(e) is e
    s = to_str(e)
    back = parse(s)
    assert parse(s) is back
    for x in (-1.5, 0.0, 0.8):
        v1 = _try_eval(e, x)
        v2 = _try_eval(back, x)
        if v1 is None or v2 is None:
            continue
        assert v1 == v2


def test_subst_tells_signed_zeros_apart():
    # signed zeros are different bindings
    q = parse("x/a")
    assert lambdify(subst(q, {"a": 0.0}))(1.0) == np.inf
    assert lambdify(subst(q, {"a": -0.0}))(1.0) == -np.inf
    # the scalar code raises on the division; a*x at either zero is born 0
    for a in (0.0, -0.0):
        with pytest.raises(ZeroDivisionError):
            float_fn(subst(q, {"a": a}))(1.0)
        assert subst(parse("a*x"), {"a": a}) is Const(0.0)


def _bits(fn, x):
    """fn(x) as float.hex, or the type of the error it raises."""
    try:
        return fn(x).hex()
    except (ArithmeticError, ValueError) as err:
        return type(err)


def test_integer_valued_parameter_exponent_matches_substitution():
    # an exponent bound by subst goes through _pow, which takes an
    # integer-valued exponent as a ** int(b), signed zero included
    e = parse("(x - 2)^n")
    for n in (-1.0, 0.0, 2.0, 3.0, -0.0, 0.5, 1e20):
        f = float_fn(subst(e, {"n": n}))
        for x in (0.5, 3.0, 4.0):
            if n.is_integer():
                want = _bits(lambda x: (x - 2) ** int(n), x)
            elif x > 2:
                want = _bits(lambda x: math.exp(n * math.log(x - 2)), x)
            else:
                want = ValueError
            assert _bits(f, x) == want
    assert float_fn(subst(e, {"n": 2.0}))(0.5) == 2.25
    with pytest.raises(ZeroDivisionError):
        float_fn(subst(e, {"n": -1.0}))(2.0)


def test_alternating_bindings_compile_once(monkeypatch):
    # while a bound tree is held, subst returns that interned tree for the
    # same binding, so its cached code is found again instead of compiled
    e = parse("a*x^2 + sin(b*x)/(1+x^2) + exp(-a*x)")
    one, two = {"a": 0.5, "b": 1.0}, {"a": 0.5, "b": 2.0}
    bound = [subst(e, one), subst(e, two)]
    calls = count_compiles(monkeypatch, "_vectorized")
    for _ in range(100):
        for values in (one, two):
            lambdify(subst(e, values))(0.3)
    assert calls[0] <= 2  # none if an earlier test compiled both
    assert subst(e, one) is bound[0] and subst(e, two) is bound[1]
    assert float(lambdify(subst(e, two))(0.3)) == ref_lambdify(bound[1])(0.3)


def test_overflowing_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="number 1e400 overflows a float"):
        parse("1e400*x")
    assert parse("1e308").value == 1e308


def test_non_finite_folds_are_left_unfolded():
    # folding 1e300*1e300 would give inf, which no literal can print
    e = simplify(parse("1e300*1e300*x"))
    assert e is parse("1e300*1e300*x")
    assert to_str(e) == "1e+300*1e+300*x"
    assert parse(to_str(e)) is e
    assert to_str(simplify(parse("1/0 + x"))) == "1/0+x"
    # finite folds are unchanged
    assert simplify(parse("2*3*x + 6/4")) is parse("6*x+1.5")


def test_scalar_code_binds_non_finite_constants():
    assert float_fn(Const(math.inf) * X)(1.0) == math.inf
    assert math.isnan(float_fn(Const(math.nan) + X)(1.0))
    assert math.copysign(1.0, float_fn(Const(-0.0) - X)(0.0)) == -1.0
