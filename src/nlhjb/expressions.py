"""Tiny expression language for user-defined coefficient fields in configs.

Supports sums, products, powers, unary minus and the functions sin, cos, exp,
sqrt, abs, min, max over the coordinate names ``x1``, ``x2`` (and ``y1``,
``y2`` for kernels), plus ``r`` = |x| and ``ry`` = |y|.  Anything else is
rejected at parse time.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .problem import x_kernel

__all__ = ["compile_scalar_field", "compile_kernel_field"]

_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs,
    "min": np.minimum, "max": np.maximum,
}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Load,
)


def _validate(tree: ast.AST, names: set[str]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed syntax in expression: {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ValueError("only sin/cos/exp/sqrt/abs/min/max calls are allowed")
            if node.keywords:
                raise ValueError("keyword arguments are not allowed in expressions")
        if isinstance(node, ast.Name) and node.id not in names and node.id not in _FUNCS:
            raise ValueError(f"unknown name {node.id!r} in expression")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError("only numeric constants are allowed")


def _compile(expr: str, names: set[str]):
    """Code object for ``expr`` and the coordinate names it reads."""
    tree = ast.parse(expr, mode="eval")
    _validate(tree, names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} - set(_FUNCS)
    return compile(tree, "<field-expression>", "eval"), used


def _names(d: int, prefix: str, radius: str) -> set[str]:
    """Coordinate names ``{prefix}1`` .. ``{prefix}d`` and the radius name."""
    return {f"{prefix}{i + 1}" for i in range(d)} | {radius}


def _coordinates(pts, d: int, prefix: str, radius: str) -> dict:
    """The names of :func:`_names` bound to the columns and norm of ``pts``."""
    pts = np.asarray(pts, dtype=float)
    return {radius: np.linalg.norm(pts, axis=-1),
            **{f"{prefix}{i + 1}": pts[..., i] for i in range(d)}}


def _evaluate(code, env: dict, shape: tuple) -> np.ndarray:
    """Evaluate ``code`` over ``env`` and broadcast the value to ``shape``."""
    out = eval(code, {"__builtins__": {}}, {**_FUNCS, **env})
    return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()


def compile_scalar_field(expr: str, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression of x1..xd, r into a vectorised field over (n,d) points."""
    code, _ = _compile(expr, _names(d, "x", "r"))

    def field(x: np.ndarray) -> np.ndarray:
        return _evaluate(code, _coordinates(x, d, "x", "r"), np.shape(x)[:-1])

    return field


def compile_kernel_field(expr: str, d: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile an expression of x1..xd, y1..yd, r, ry into a kernel k(x, y).

    An expression that reads none of ``y1`` .. ``yd``, ``ry`` (a constant
    included) is returned as a tagged :func:`~nlhjb.problem.x_kernel`.
    """
    y_names = _names(d, "y", "ry")
    code, used = _compile(expr, _names(d, "x", "r") | y_names)
    if not used & y_names:
        return x_kernel(compile_scalar_field(expr, d))

    def kern(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        env = {**_coordinates(x, d, "x", "r"), **_coordinates(y, d, "y", "ry")}
        return _evaluate(code, env, np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))

    return kern
