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


def compile_scalar_field(expr: str, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression of x1[,x2],r into a vectorised field over (n,d) points."""
    names = {"x1", "r"} | ({"x2"} if d == 2 else set())
    code, _ = _compile(expr, names)

    def field(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        env = {"x1": x[..., 0], "r": np.linalg.norm(x, axis=-1)}
        if d == 2:
            env["x2"] = x[..., 1]
        out = eval(code, {"__builtins__": {}}, {**_FUNCS, **env})
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape[:-1]).copy()

    return field


def compile_kernel_field(expr: str, d: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile an expression of x1[,x2],y1[,y2],r,ry into a kernel k(x, y).

    An expression that reads none of ``y1``, ``y2``, ``ry`` (a constant
    included) is returned as a tagged :func:`~nlhjb.problem.x_kernel`.
    """
    names = {"x1", "y1", "r", "ry"} | ({"x2", "y2"} if d == 2 else set())
    code, used = _compile(expr, names)
    if not used & {"y1", "y2", "ry"}:
        return x_kernel(compile_scalar_field(expr, d))

    def kern(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        env = {
            "x1": x[..., 0], "y1": y[..., 0],
            "r": np.linalg.norm(x, axis=-1), "ry": np.linalg.norm(y, axis=-1),
        }
        if d == 2:
            env["x2"] = x[..., 1]
            env["y2"] = y[..., 1]
        out = eval(code, {"__builtins__": {}}, {**_FUNCS, **env})
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

    return kern
