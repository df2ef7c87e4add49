"""Safe arithmetic expressions over the chart coordinates ``x`` and ``y``.

A restricted AST walk: binary arithmetic, powers, a fixed function table,
and the two coordinate names.  Anything else (attributes, calls by value,
subscripts, names like ``t``) is rejected at parse time.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ParameterError

__all__ = ["compile_expression", "compile_univariate"]

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


def _check(node, names=("x", "y")):
    if isinstance(node, ast.Expression):
        _check(node.body, names)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ParameterError(f"operator {type(node.op).__name__} not allowed")
        _check(node.left, names)
        _check(node.right, names)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise ParameterError("only unary +/- allowed")
        _check(node.operand, names)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ParameterError("unknown function in expression")
        if node.keywords:
            raise ParameterError("keyword arguments not allowed")
        for arg in node.args:
            _check(arg, names)
    elif isinstance(node, ast.Name):
        if node.id == "t" and "t" not in names:
            raise ParameterError(
                "expressions are functions of the chart coordinates only; "
                "flow-time dependence is not part of the data model")
        if node.id not in names and node.id not in _CONSTANTS:
            raise ParameterError(f"unknown name '{node.id}' in expression")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ParameterError("only numeric constants allowed")
    else:
        raise ParameterError(
            f"construct {type(node).__name__} not allowed in expressions")


def _eval(node, env):
    if isinstance(node, ast.Expression):
        return _eval(node.body, env)
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_eval(node.left, env),
                                      _eval(node.right, env))
    if isinstance(node, ast.UnaryOp):
        v = _eval(node.operand, env)
        return -v if isinstance(node.op, ast.USub) else +v
    if isinstance(node, ast.Call):
        args = [_eval(a, env) for a in node.args]
        return _FUNCTIONS[node.func.id](*args)
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        return _CONSTANTS[node.id]
    if isinstance(node, ast.Constant):
        return node.value
    raise ParameterError(f"unexpected node {type(node).__name__}")


def compile_expression(text: str):
    """Parse and validate; returns a vectorized callable of points (..., 2)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParameterError(f"bad expression: {exc}") from exc
    _check(tree)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        env = {"x": pts[..., 0], "y": pts[..., 1]}
        out = _eval(tree, env)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               pts.shape[:-1]).copy()

    return fn


def compile_univariate(text: str):
    """A variant in the flow time ``t`` alone (used for custom conformal
    factors)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParameterError(f"bad expression: {exc}") from exc
    _check(tree, names=("t",))

    def fn(v):
        v = np.asarray(v, dtype=float)
        out = _eval(tree, {"t": v})
        return np.broadcast_to(np.asarray(out, dtype=float), v.shape).copy() \
            if v.shape else float(np.asarray(out))

    return fn
