"""Safe arithmetic expressions over the chart coordinates ``x`` and ``y``.

Each expression is parsed once and compiled into closures, node by node:
binary arithmetic, powers, a fixed function table, and the variable names.
Anything else (attributes, calls by value, subscripts, names like ``t``, a
function called with the wrong number of arguments) is rejected while the
closures are built, before any value is computed, and so is an expression
that nests more than ``MAX_DEPTH`` levels.  ``log(exp(u))`` compiles
to ``u``, which stays finite where ``exp(u)`` under- or overflows.

The same closures give exact derivatives: every ufunc of the grammar acts
on a :class:`Jet`, a value with its first and second derivative along one
direction, by its Taylor rule (Griewank & Walther, *Evaluating
Derivatives*, SIAM 2008, ch. 13), so a variable seeded with a unit
derivative yields the derivatives along it.  The value part is the plain
ufunc call, with the same bits.  At a kink the rule is one-sided: ``abs``
takes ``sign(u)``, ``min`` and ``max`` the jet they select (the first
argument on a tie), and ``a % b`` is ``a - b floor(a / b)`` with the floor
held constant.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ParameterError

__all__ = ["Jet", "MAX_DEPTH", "compile_expression", "compile_gradient",
           "compile_univariate", "compile_flow_derivatives"]

# The most levels an expression may nest, a call counting two: compiling and
# evaluating it take a frame per level, and Python's recursion limit of 1000
# frames also holds the callers'.  The parser itself fails near 3000 levels.
MAX_DEPTH = 900
_TOO_DEEP = f"bad expression: more than {MAX_DEPTH} nested levels"

# NumPy ufuncs of ``nin`` arguments (a further one would be ``out``)
_FUNCTIONS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "atan2": np.arctan2, "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "min": np.minimum, "max": np.maximum,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
    ast.Div: np.divide, ast.Pow: np.power, ast.Mod: np.mod,
}


# -- jets -------------------------------------------------------------------

# one-argument ufunc -> (f'(u), f''(u)) from the argument u and the value y
_UNARY = {
    np.exp: lambda u, y: (y, y),
    np.log: lambda u, y: (1.0 / u, -1.0 / (u * u)),
    np.sqrt: lambda u, y: (0.5 / y, -0.25 / (y * u)),
    np.abs: lambda u, y: (np.sign(u), 0.0),
    np.sin: lambda u, y: (np.cos(u), -y),
    np.cos: lambda u, y: (-np.sin(u), -y),
    np.tan: lambda u, y: (1.0 + y * y, 2.0 * y * (1.0 + y * y)),
    np.arcsin: lambda u, y: (1.0 / np.sqrt(1.0 - u * u), u / (1.0 - u * u) ** 1.5),
    np.arccos: lambda u, y: (-1.0 / np.sqrt(1.0 - u * u), -u / (1.0 - u * u) ** 1.5),
    np.arctan: lambda u, y: (1.0 / (1.0 + u * u), -2.0 * u / (1.0 + u * u) ** 2),
    np.sinh: lambda u, y: (np.cosh(u), y),
    np.cosh: lambda u, y: (np.sinh(u), y),
    np.tanh: lambda u, y: (1.0 - y * y, -2.0 * y * (1.0 - y * y)),
}


def _chain(rule):
    def apply(a, y):
        f1, f2 = rule(a.v, y)
        return f1 * a.d1, f2 * a.d1 * a.d1 + f1 * a.d2
    return apply


def _quotient(n1, m, den, q):
    """``d1 = n1 / den`` and ``d2 = (m - 2 d1 q) / den``, the form of both
    ``a / b`` and ``atan2(a, b)``."""
    d1 = n1 / den
    return d1, (m - 2.0 * d1 * q) / den


def _power(a, b, y):
    """``a ** b``: a constant exponent ``c`` gives ``c a^(c-1)`` and
    ``c (c-1) a^(c-2)``, each 0 where its factor in ``c`` is (``t**1`` and
    ``x**2`` are finite at 0); a varying one adds the terms in ``log a``,
    which are not finite where ``a <= 0``."""
    c = b.v
    p1 = np.where(c == 0, 0.0, c * a.v ** (c - 1.0))
    p2 = np.where(c * (c - 1.0) == 0, 0.0, c * (c - 1.0) * a.v ** (c - 2.0))
    d1, d2 = p1 * a.d1, p2 * a.d1 * a.d1 + p1 * a.d2
    if np.any(b.d1) or np.any(b.d2):
        L = np.log(a.v)
        d1 = d1 + y * L * b.d1
        d2 = d2 + y * L * (L * b.d1 * b.d1 + b.d2) \
            + 2.0 * a.v ** (c - 1.0) * (1.0 + c * L) * a.d1 * b.d1
    return d1, d2


def _mod(a, b, y):
    k = np.floor_divide(a.v, b.v)       # held constant
    return a.d1 - k * b.d1, a.d2 - k * b.d2


def _select(first, a, b):
    return np.where(first, a.d1, b.d1), np.where(first, a.d2, b.d2)


# ufunc -> (d1, d2) of its value y from the argument jets
_RULES = {
    np.add: lambda a, b, y: (a.d1 + b.d1, a.d2 + b.d2),
    np.subtract: lambda a, b, y: (a.d1 - b.d1, a.d2 - b.d2),
    np.multiply: lambda a, b, y: (a.d1 * b.v + a.v * b.d1,
                                  a.d2 * b.v + 2.0 * a.d1 * b.d1 + a.v * b.d2),
    np.divide: lambda a, b, y: _quotient(a.d1 - y * b.d1, a.d2 - y * b.d2, b.v, b.d1),
    np.arctan2: lambda a, b, y: _quotient(
        b.v * a.d1 - a.v * b.d1, b.v * a.d2 - a.v * b.d2, a.v * a.v + b.v * b.v,
        a.v * a.d1 + b.v * b.d1),
    np.power: _power,
    np.mod: _mod,
    np.minimum: lambda a, b, y: _select(a.v <= b.v, a, b),
    np.maximum: lambda a, b, y: _select(a.v >= b.v, a, b),
    np.negative: lambda a, y: (-a.d1, -a.d2),
    np.positive: lambda a, y: (a.d1, a.d2),
    **{ufunc: _chain(rule) for ufunc, rule in _UNARY.items()},
}


class Jet:
    """A value ``v`` with its first and second derivative along one
    direction, 0 for a constant.  The derivatives are not finite where a
    rule divides by zero, with no warning."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    def __neg__(self):
        return np.negative(self)

    def __pos__(self):
        return np.positive(self)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _RULES:
            return NotImplemented
        args = [x if isinstance(x, Jet) else Jet(x) for x in inputs]
        with np.errstate(all="ignore"):
            y = ufunc(*(a.v for a in args))
            return Jet(y, *_RULES[ufunc](*args, y))


def _along(expr, env, name):
    """The jet of ``expr`` along the variable ``name`` of ``env``."""
    v = env[name]
    out = expr({**env, name: Jet(v, np.ones_like(v), np.zeros_like(v))})
    return out if isinstance(out, Jet) else Jet(out)


def _compile(node, names, depth=0):
    """A closure of the variable environment (a dict over ``names``) that
    evaluates ``node``, found ``depth`` levels down; ParameterError for any
    construct outside the grammar, or nested deeper than ``MAX_DEPTH``."""
    if depth > MAX_DEPTH:
        raise ParameterError(_TOO_DEEP)
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ParameterError(f"operator {type(node.op).__name__} not allowed")
        op = _BINOPS[type(node.op)]
        left, right = (_compile(node.left, names, depth + 1),
                       _compile(node.right, names, depth + 1))
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise ParameterError("only unary +/- allowed")
        operand = _compile(node.operand, names, depth + 1)
        if isinstance(node.op, ast.USub):
            return lambda env: -operand(env)
        return lambda env: +operand(env)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ParameterError("unknown function in expression")
        if node.keywords:
            raise ParameterError("keyword arguments not allowed")
        fn = _FUNCTIONS[node.func.id]
        if len(node.args) != fn.nin:
            raise ParameterError(f"{node.func.id} takes {fn.nin} argument"
                                 f"{'s' if fn.nin > 1 else ''}, got {len(node.args)}")
        if fn is np.log and _is_call(node.args[0], "exp"):
            return _compile(node.args[0].args[0], names, depth + 1)
        # two levels: the comprehensions take a frame each
        args = [_compile(arg, names, depth + 2) for arg in node.args]
        return lambda env: fn(*[arg(env) for arg in args])
    if isinstance(node, ast.Name):
        name = node.id
        if name in names:
            return lambda env: env[name]
        if name == "t":
            raise ParameterError(
                "expressions are functions of the chart coordinates only; "
                "flow-time dependence is not part of the data model")
        if name not in _CONSTANTS:
            raise ParameterError(f"unknown name '{name}' in expression")
        value = _CONSTANTS[name]
        return lambda env: value
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):     # bool is a subclass of int
            raise ParameterError("only numeric constants allowed")
        # as a float: NumPy's integer power wraps (2**70 is 0) or refuses 2**-1
        value = float(node.value)       # OverflowError beyond the float range
        return lambda env: value
    raise ParameterError(
        f"construct {type(node).__name__} not allowed in expressions")


def _is_call(node, name):
    """Whether ``node`` calls the function ``name`` on one argument."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name and len(node.args) == 1 and not node.keywords)


def _split_log(node):
    """``log(a * b)`` as ``log(a) + log(b)``, ``log(a / b)`` as ``log(a) -
    log(b)``, recursively: the same derivatives, exact where a factor is
    negative or under- or overflows (``1*exp(t)``), but not the same values."""
    arg = node.args[0] if _is_call(node, "log") else None
    if not (isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Mult, ast.Div))):
        return node
    left = _split_log(ast.Call(node.func, [arg.left], []))
    right = _split_log(ast.Call(node.func, [arg.right], []))
    return ast.BinOp(left, ast.Add() if isinstance(arg.op, ast.Mult) else ast.Sub(), right)


def _parse(text: str, names, rewrite=lambda node: node):
    try:
        return _compile(rewrite(ast.parse(text, mode="eval").body), names)
    except (SyntaxError, OverflowError) as exc:
        raise ParameterError(f"bad expression: {exc}") from exc
    except (RecursionError, MemoryError):     # nested beyond the parser's limits
        raise ParameterError(_TOO_DEEP) from None


def compile_expression(text: str):
    """Parse and validate; returns a vectorized callable of points (..., 2)."""
    expr = _parse(text, ("x", "y"))

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        out = expr({"x": pts[..., 0], "y": pts[..., 1]})
        return np.broadcast_to(np.asarray(out, dtype=float),
                               pts.shape[:-1]).copy()

    return fn


def compile_gradient(text: str):
    """The value and the exact chart gradient ``(..., 2)`` at points
    ``(..., 2)``: one jet pass seeded in ``x``, one in ``y``, the value
    taken from the ``x`` pass, with the bits of ``compile_expression``."""
    expr = _parse(text, ("x", "y"))

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        env = {"x": pts[..., 0], "y": pts[..., 1]}
        jx, jy = (_along(expr, env, name) for name in env)
        shape = pts.shape[:-1]
        return (np.broadcast_to(np.asarray(jx.v, dtype=float), shape).copy(),
                np.stack([np.broadcast_to(j.d1, shape) for j in (jx, jy)], axis=-1))

    return fn


def _shaped(out, v):
    return np.broadcast_to(np.asarray(out, dtype=float), v.shape).copy() \
        if v.shape else float(np.asarray(out))


def compile_univariate(text: str):
    """A variant in the flow time ``t`` alone (used for custom conformal
    factors)."""
    expr = _parse(text, ("t",))

    def fn(v):
        v = np.asarray(v, dtype=float)
        return _shaped(expr({"t": v}), v)

    return fn


def compile_flow_derivatives(text: str):
    """The exact first and second flow-time derivatives of
    ``compile_univariate(text)``, both from one jet pass seeded in ``t``;
    ``log`` of a product or quotient is split first (``_split_log``)."""
    expr = _parse(text, ("t",), _split_log)

    def fn(v):
        v = np.asarray(v, dtype=float)
        jet = _along(expr, {"t": v}, "t")
        return _shaped(jet.d1, v), _shaped(jet.d2, v)

    return fn
