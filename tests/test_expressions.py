import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckgraph as ck
from ckgraph.errors import ParameterError
from ckgraph.expressions import (_along, _parse, compile_expression,
                                 compile_flow_derivatives, compile_gradient,
                                 compile_univariate)
from conftest import central_difference

# expression corpus with independent reference evaluations
CORPUS = [
    ("x + y", lambda x, y: x + y),
    ("x*y - 2", lambda x, y: x * y - 2),
    ("x**2 + y**2", lambda x, y: x**2 + y**2),
    ("exp(-(x**2 + y**2))", lambda x, y: np.exp(-(x**2 + y**2))),
    ("sin(x)*cos(y)", lambda x, y: np.sin(x) * np.cos(y)),
    ("sqrt(x**2 + y**2 + 1)", lambda x, y: np.sqrt(x**2 + y**2 + 1)),
    ("log(2 + x)", lambda x, y: np.log(2 + x)),
    ("atan2(y, x + 3)", lambda x, y: np.arctan2(y, x + 3)),
    ("-x / (1 + y**2)", lambda x, y: -x / (1 + y**2)),
    ("pi * x + e", lambda x, y: math.pi * x + math.e),
    ("tanh(x) + sinh(y) - cosh(x*y)",
     lambda x, y: np.tanh(x) + np.sinh(y) - np.cosh(x * y)),
    ("min(x, y) + max(x, -y)",
     lambda x, y: np.minimum(x, y) + np.maximum(x, -y)),
    ("abs(x - y) % 2", lambda x, y: np.abs(x - y) % 2),
    ("0.5", lambda x, y: np.full_like(x, 0.5)),
    # integer constants compute in floating point
    ("2**-1 + x", lambda x, y: 0.5 + x),
    ("2**70 * x", lambda x, y: 2.0**70 * x),
]


@pytest.mark.parametrize("text,ref", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_matches_reference(text, ref):
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.9, 0.9, size=(200, 2))
    got = compile_expression(text)(pts)
    want = ref(pts[:, 0], pts[:, 1])
    assert got.shape == (200,)
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


# refused expression -> its message
_REJECTED = {
    "t + 1": "flow-time dependence is not part of the data model",  # not a data coordinate
    "z": "unknown name 'z'",
    "__import__('os')": "unknown function",
    "x.real": "construct Attribute not allowed",
    "x[0]": "construct Subscript not allowed",
    "lambda x: x": "construct Lambda not allowed",
    "open('f')": "unknown function",
    "x if y else 0": "construct IfExp not allowed",
    "'str'": "only numeric constants allowed",
    "True": "only numeric constants allowed",
    "x*False": "only numeric constants allowed",
    "x; y": "bad expression",
    # one-argument ufuncs take a second positional argument as ``out``
    "exp(x, y)": "exp takes 1 argument, got 2",
    "min(x)": "min takes 2 arguments, got 1",
    "exp()": "exp takes 1 argument, got 0",
    "atan2(x)": "atan2 takes 2 arguments, got 1",
    "x // y": "operator FloorDiv not allowed",
    "~x": "only unary +/- allowed",
    "not x": "only unary +/- allowed",
    "exp(x=1)": "keyword arguments not allowed",
}


@pytest.mark.parametrize("bad", list(_REJECTED))
def test_rejected_constructs(bad):
    with pytest.raises(ParameterError, match=re.escape(_REJECTED[bad])):
        compile_expression(bad)


def test_scalar_broadcast():
    fn = compile_expression("3.5")
    out = fn(np.zeros((7, 2)))
    assert out.shape == (7,)
    assert np.all(out == 3.5)


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_polynomial_property(x, y):
    fn = compile_expression("(x + y)**2 - x**2 - 2*x*y - y**2")
    val = float(fn(np.array([x, y])))
    assert abs(val) < 1e-9


def test_univariate():
    fn = compile_univariate("exp(t)")
    assert float(fn(0.3)) == pytest.approx(math.exp(0.3), rel=1e-15)
    arr = fn(np.array([0.0, 1.0]))
    assert np.allclose(arr, [1.0, math.e])
    with pytest.raises(ParameterError):
        compile_univariate("x + t")


def test_univariate_arity_checked():
    t = np.array([0.1, 0.2])
    with pytest.raises(ParameterError, match="exp takes 1 argument, got 2"):
        compile_univariate("exp(t, t)")(t)
    assert t.tolist() == [0.1, 0.2]


# -- exact derivatives from jets ----------------------------------------------

# function -> (domain of the argument, f', f''), written independently of
# the jet rules
_FUNCTION_DERIVATIVES = {
    "exp": ((-5, 5), np.exp, np.exp),
    "log": ((0.1, 10), lambda u: 1 / u, lambda u: -1 / u**2),
    "sqrt": ((0.1, 10), lambda u: 0.5 / np.sqrt(u), lambda u: -0.25 * u**-1.5),
    "abs": ((-3, 3), np.sign, lambda u: 0.0 * u),
    "sin": ((-4, 4), np.cos, lambda u: -np.sin(u)),
    "cos": ((-4, 4), lambda u: -np.sin(u), lambda u: -np.cos(u)),
    "tan": ((-1.2, 1.2), lambda u: 1 / np.cos(u) ** 2,
            lambda u: 2 * np.sin(u) / np.cos(u) ** 3),
    "asin": ((-0.9, 0.9), lambda u: 1 / np.sqrt(1 - u**2), lambda u: u / (1 - u**2) ** 1.5),
    "acos": ((-0.9, 0.9), lambda u: -1 / np.sqrt(1 - u**2),
             lambda u: -u / (1 - u**2) ** 1.5),
    "atan": ((-4, 4), lambda u: 1 / (1 + u**2), lambda u: -2 * u / (1 + u**2) ** 2),
    "sinh": ((-5, 5), np.cosh, np.sinh),
    "cosh": ((-5, 5), np.sinh, np.cosh),
    "tanh": ((-3, 3), lambda u: 1 / np.cosh(u) ** 2,
             lambda u: -2 * np.tanh(u) / np.cosh(u) ** 2),
}

_COEF = st.floats(-3, 3, allow_nan=False)


def _close(got, want, scale):
    return abs(got - want) <= 1e-12 * max(scale, 1e-300)


@pytest.mark.parametrize("name", sorted(_FUNCTION_DERIVATIVES))
@given(where=st.floats(0, 1), t0=_COEF, u1=_COEF, u2=_COEF)
@settings(max_examples=40, deadline=None)
def test_function_jets_match_closed_forms(name, where, t0, u1, u2):
    # f(u(t)) at t = t0 with u(t0) = u0, u'(t0) = u1, u''(t0) = u2 exactly,
    # so the chain rule gives f' u1 and f'' u1^2 + f' u2
    (lo, hi), f1, f2 = _FUNCTION_DERIVATIVES[name]
    u0 = lo + where * (hi - lo)
    text = f"{name}({u0!r} + {u1!r}*(t - {t0!r}) + {u2 / 2!r}*(t - {t0!r})**2)"
    d1, d2 = compile_flow_derivatives(text)
    a, b = float(f1(u0)), float(f2(u0))
    assert _close(d1(t0), a * u1, abs(a * u1))
    assert _close(d2(t0), b * u1**2 + a * u2, abs(b) * u1**2 + abs(a * u2))


# expression -> (t domain, first and second derivative in closed form)
_OPERATOR_DERIVATIVES = {
    "exp(t) * sin(t)": ((-3, 3), lambda t: np.exp(t) * (np.sin(t) + np.cos(t)),
                        lambda t: 2 * np.exp(t) * np.cos(t)),
    "sin(t) / (2 + cos(t))": ((-4, 4), lambda t: (2 * np.cos(t) + 1) / (2 + np.cos(t)) ** 2,
                              lambda t: 2 * np.sin(t) * (np.cos(t) - 1) / (2 + np.cos(t)) ** 3),
    "t*t - (3 - t)": ((-3, 3), lambda t: 2 * t + 1, lambda t: 2 + 0 * t),
    "-t**3 + (+t)": ((-3, 3), lambda t: 1 - 3 * t**2, lambda t: -6 * t),
    "2**t": ((-3, 3), lambda t: math.log(2) * 2**t, lambda t: math.log(2) ** 2 * 2**t),
    "t**0.5": ((0.1, 4), lambda t: 0.5 * t**-0.5, lambda t: -0.25 * t**-1.5),
    "(1 + t**2)**t": (
        (-2, 2),
        lambda t: (1 + t**2) ** t * (np.log(1 + t**2) + 2 * t**2 / (1 + t**2)),
        lambda t: (1 + t**2) ** t * ((np.log(1 + t**2) + 2 * t**2 / (1 + t**2)) ** 2
                                     + 2 * t / (1 + t**2) + 4 * t / (1 + t**2) ** 2)),
    # the angle of (e^t sin t, e^t cos t) from the y axis is t itself
    "atan2(exp(t)*sin(t), exp(t)*cos(t))": ((-1.5, 1.5), lambda t: 1 + 0 * t,
                                            lambda t: 0 * t),
    # (3t) mod (1 + t^2) = 3t - k (1 + t^2) with k = floor(3t / (1 + t^2))
    "(3*t) % (1 + t**2)": ((-3, 3),
                           lambda t: 3 - 2 * t * np.floor(3 * t / (1 + t**2)),
                           lambda t: -2 * np.floor(3 * t / (1 + t**2))),
    "min(t, t**2)": ((-3, 3), lambda t: np.where(t <= t**2, 1, 2 * t),
                     lambda t: np.where(t <= t**2, 0, 2)),
    "max(sin(t), cos(t))": ((-3, 3), lambda t: np.where(np.sin(t) >= np.cos(t),
                                                        np.cos(t), -np.sin(t)),
                            lambda t: -np.maximum(np.sin(t), np.cos(t))),
}


@pytest.mark.parametrize("text", sorted(_OPERATOR_DERIVATIVES))
@given(where=st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_operator_jets_match_closed_forms(text, where):
    (lo, hi), f1, f2 = _OPERATOR_DERIVATIVES[text]
    t = np.array([lo + where * (hi - lo)])
    d1, d2 = compile_flow_derivatives(text)
    want1, want2 = f1(t), f2(t)
    assert np.all(np.abs(d1(t) - want1) <= 1e-12 * np.maximum(np.abs(want1), 1.0))
    assert np.all(np.abs(d2(t) - want2) <= 1e-12 * np.maximum(np.abs(want2), 1.0))


@pytest.mark.parametrize("text, t, d1, d2", [
    ("abs(t)", 0.0, 0.0, 0.0),             # sign(0)
    ("abs(t - 1)", 0.5, -1.0, 0.0),
    ("min(t, 2*t - 1)", 1.0, 1.0, 0.0),    # a tie: the first argument
    ("max(2*t - 1, t)", 1.0, 2.0, 0.0),
    ("t % 1.5", 1.5, 1.0, 0.0),            # the floor held constant
    ("t**1", 0.0, 1.0, 0.0),
    ("t**2", 0.0, 0.0, 2.0),
    ("t**0", 0.0, 0.0, 0.0),
    ("3", 0.2, 0.0, 0.0),
])
def test_jets_at_kinks_and_zero(text, t, d1, d2):
    first, second = compile_flow_derivatives(text)
    assert (first(t), second(t)) == (d1, d2)
    arr = np.array([t, t])
    assert first(arr).tolist() == [d1, d1] and second(arr).tolist() == [d2, d2]


def test_gradient_exact_and_finite_at_zero():
    grad = compile_gradient("x**2 + x*y + sin(y)*exp(x)")
    pts = np.array([[0.0, 0.0], [0.3, -0.7], [-1.1, 2.0]])
    x, y = pts.T
    want = np.stack([2 * x + y + np.sin(y) * np.exp(x), x + np.cos(y) * np.exp(x)], axis=1)
    assert np.abs(grad(pts) - want).max() <= 1e-15 * np.abs(want).max()
    assert grad(np.zeros((3, 4, 2))).shape == (3, 4, 2)
    assert np.array_equal(compile_gradient("y")(pts), np.tile([0.0, 1.0], (3, 1)))
    assert np.array_equal(compile_gradient("2.5")(pts), np.zeros((3, 2)))


@pytest.mark.parametrize("gamma", ["1 + 0.2*x*x", "exp(x - y**2)", "1 + 0.3*x + 0.2*y**2",
                                   "2 + sin(3*x)*cos(2*y)"])
def test_gradient_agrees_with_central_differences(gamma):
    # a step of 1e-6 loses about 1e-10 to rounding
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.5, 0.5, (200, 2))
    fn, step = compile_expression(gamma), 1e-6
    fd = np.stack([central_difference(fn, pts, step, e) for e in np.eye(2)], axis=1)
    assert np.abs(compile_gradient(gamma)(pts) - fd).max() < 1e-8


@pytest.mark.parametrize("text,ref", CORPUS, ids=[c[0] for c in CORPUS])
def test_jet_values_have_the_plain_bits(text, ref):
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.9, 0.9, size=(200, 2))
    expr = _parse(text, ("x", "y"))
    env = {"x": pts[:, 0], "y": pts[:, 1]}
    plain = compile_expression(text)(pts)
    for name in env:
        value = np.broadcast_to(_along(expr, env, name).v, plain.shape)
        assert np.array_equal(value, plain)


def test_log_of_exp_compiles_to_its_argument():
    # log(exp(u)) is u where exp(u) underflows (t = -800) or overflows
    # (t = 800); without the rewrite, as in log(1*exp(t) + 0), both are lost
    ts = np.array([-800.0, 0.5, 800.0])
    assert np.array_equal(compile_univariate("log(exp(t))")(ts), ts)
    d1, d2 = compile_flow_derivatives("log(exp(2*t))")
    assert np.array_equal(d1(ts), [2.0, 2.0, 2.0]) and np.array_equal(d2(ts), [0.0] * 3)
    assert not np.any(np.isfinite(compile_flow_derivatives("log(1*exp(t) + 0)")[0](ts[[0, 2]])))
    with pytest.raises(ParameterError, match="exp takes 1 argument, got 2"):
        compile_univariate("log(exp(t, t))")


def test_example_c_lambda_jets_match_hand_derivatives():
    # an independent cross-check: example_c's lambda = 2 s / (1 - s^2),
    # s = (sqrt(2) - 1) e^t, written as an expression, against its
    # hand-derived lambda_t = 2 s (1 + s^2) / (1 - s^2)^2 and
    # lambda_tt = 2 s (1 + 6 s^2 + s^4) / (1 - s^2)^3 on the sampled flow
    # times; lambda_t / lambda is the preset's closed-form rho
    amb = ck.preset_ambient("example_c")
    s = f"({math.sqrt(2.0) - 1.0!r}*exp(t))"
    d1, d2 = compile_flow_derivatives(f"2*{s}/(1 - {s}**2)")
    ts = np.linspace(-4.0, 0.5 * amb.interval_end, 512)
    sv = (math.sqrt(2.0) - 1.0) * np.exp(ts)
    lam_t = 2.0 * sv * (1.0 + sv**2) / (1.0 - sv**2) ** 2
    lam_tt = 2.0 * sv * (1.0 + 6.0 * sv**2 + sv**4) / (1.0 - sv**2) ** 3
    for got, want in ((d1(ts), lam_t), (d2(ts), lam_tt)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    rho = np.asarray(amb.rho(ts))
    assert np.all(np.abs(lam_t / np.asarray(amb.lam(ts)) - rho) <= 1e-12 * np.abs(rho))
