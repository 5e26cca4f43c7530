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
            arity = 2 if node.func.id in ("min", "max") else 1
            if len(node.args) != arity:
                raise ValueError(f"{node.func.id} takes {arity} argument(s), "
                                 f"got {len(node.args)}")
        if isinstance(node, ast.Name) and node.id not in names and node.id not in _FUNCS:
            raise ValueError(f"unknown name {node.id!r} in expression")
        if isinstance(node, ast.Constant) and type(node.value) not in (int, float):
            raise ValueError("only numeric constants are allowed")


def _compile(expr: str, names: set[str]):
    """Code object for ``expr`` and the coordinate names it reads.

    Integer literals (not ``True`` or ``False``, which :func:`_validate`
    rejects) become floats, so constant arithmetic is float
    arithmetic: bounded in time, and an overflow raises.  The code is then
    evaluated once at the origin, every name 0.0.  Every failure raises
    ``ValueError``, in this order: a syntax error, nesting too deep for the
    parser or the compiler (``MemoryError``, ``RecursionError``) or an
    integer literal beyond the float range; a construct :func:`_validate`
    rejects; constant arithmetic that fails at the origin (``x1 + 1/0``), or
    a value there that is not finite when the expression reads no name.
    """
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                node.value = float(node.value)
        code = compile(tree, "<field-expression>", "eval")
    except (SyntaxError, MemoryError, RecursionError) as exc:
        why = exc.msg if isinstance(exc, SyntaxError) else "nested too deeply"
        raise ValueError(f"malformed expression: {why}") from None
    except OverflowError as exc:
        raise ValueError(f"expression cannot be evaluated: {exc}") from None
    _validate(tree, names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} - set(_FUNCS)
    with np.errstate(all="ignore"):
        value = _evaluate(code, dict.fromkeys(names, np.float64(0.0)), ())
    if not used and not np.isfinite(value):
        raise ValueError(f"expression is not finite: {float(value)}")
    return code, used


def _names(d: int, prefix: str, radius: str) -> set[str]:
    """Coordinate names ``{prefix}1`` .. ``{prefix}d`` and the radius name."""
    return {f"{prefix}{i + 1}" for i in range(d)} | {radius}


def _coordinates(pts, d: int, prefix: str, radius: str) -> dict:
    """The names of :func:`_names` bound to the columns and norm of ``pts``."""
    pts = np.asarray(pts, dtype=float)
    return {radius: np.linalg.norm(pts, axis=-1),
            **{f"{prefix}{i + 1}": pts[..., i] for i in range(d)}}


def _evaluate(code, env: dict, shape: tuple) -> np.ndarray:
    """Evaluate ``code`` over ``env`` and broadcast the value to ``shape``.

    Python arithmetic on constants that fails (``1/0``, ``10.0**400``) or
    gives a complex number (``(-1)**0.5``) raises ``ValueError``; numpy
    arithmetic on coordinates gives inf or nan.
    """
    try:
        out = eval(code, {"__builtins__": {}}, {**_FUNCS, **env})
    except ArithmeticError as exc:
        raise ValueError(f"expression cannot be evaluated: {exc}") from None
    if np.iscomplexobj(out):
        raise ValueError("expression cannot be evaluated: complex value")
    return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()


def _scalar_field(code, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """``code`` of x1..xd, r as a vectorised field over (n,d) points."""

    def field(x: np.ndarray) -> np.ndarray:
        return _evaluate(code, _coordinates(x, d, "x", "r"), np.shape(x)[:-1])

    return field


def compile_scalar_field(expr: str, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression of x1..xd, r into a vectorised field over (n,d) points."""
    return _scalar_field(_compile(expr, _names(d, "x", "r"))[0], d)


def compile_kernel_field(expr: str, d: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile an expression of x1..xd, y1..yd, r, ry into a kernel k(x, y).

    An expression that reads none of ``y1`` .. ``yd``, ``ry`` (a constant
    included) is returned as a tagged :func:`~nlhjb.problem.x_kernel`.
    """
    y_names = _names(d, "y", "ry")
    code, used = _compile(expr, _names(d, "x", "r") | y_names)
    if not used & y_names:
        return x_kernel(_scalar_field(code, d))

    def kern(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        env = {**_coordinates(x, d, "x", "r"), **_coordinates(y, d, "y", "ry")}
        return _evaluate(code, env, np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))

    return kern
