import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgraph.errors import ParameterError
from ckgraph.expressions import compile_expression, compile_univariate

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


@pytest.mark.parametrize("bad", [
    "t + 1",                      # flow time is not a data coordinate
    "z",
    "__import__('os')",
    "x.real",
    "x[0]",
    "lambda x: x",
    "open('f')",
    "x if y else 0",
    "'str'",
    "x; y",
    # one-argument ufuncs take a second positional argument as ``out``
    "exp(x, y)",
    "min(x)",
    "exp()",
    "atan2(x)",
])
def test_rejected_constructs(bad):
    with pytest.raises(ParameterError):
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
