"""Safe arithmetic expressions over the chart coordinates ``x`` and ``y``.

Each expression is parsed once and compiled into closures, node by node:
binary arithmetic, powers, a fixed function table, and the variable names.
Anything else (attributes, calls by value, subscripts, names like ``t``, a
function called with the wrong number of arguments) is rejected while the
closures are built, before any value is computed.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ParameterError

__all__ = ["compile_expression", "compile_univariate"]

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


def _compile(node, names):
    """A closure of the variable environment (a dict over ``names``) that
    evaluates ``node``; ParameterError for any construct outside the
    grammar."""
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ParameterError(f"operator {type(node.op).__name__} not allowed")
        op = _BINOPS[type(node.op)]
        left, right = _compile(node.left, names), _compile(node.right, names)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise ParameterError("only unary +/- allowed")
        operand = _compile(node.operand, names)
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
        args = [_compile(arg, names) for arg in node.args]
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
        if not isinstance(node.value, (int, float)):
            raise ParameterError("only numeric constants allowed")
        # as a float: NumPy's integer power wraps (2**70 is 0) or refuses 2**-1
        value = float(node.value)
        return lambda env: value
    raise ParameterError(
        f"construct {type(node).__name__} not allowed in expressions")


def _parse(text: str, names):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParameterError(f"bad expression: {exc}") from exc
    return _compile(tree.body, names)


def compile_expression(text: str):
    """Parse and validate; returns a vectorized callable of points (..., 2)."""
    expr = _parse(text, ("x", "y"))

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        out = expr({"x": pts[..., 0], "y": pts[..., 1]})
        return np.broadcast_to(np.asarray(out, dtype=float),
                               pts.shape[:-1]).copy()

    return fn


def compile_univariate(text: str):
    """A variant in the flow time ``t`` alone (used for custom conformal
    factors)."""
    expr = _parse(text, ("t",))

    def fn(v):
        v = np.asarray(v, dtype=float)
        out = expr({"t": v})
        return np.broadcast_to(np.asarray(out, dtype=float), v.shape).copy() \
            if v.shape else float(np.asarray(out))

    return fn
