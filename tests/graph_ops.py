"""Generic differentiable primitives, kept for the tests.

Training builds only fused nodes plus ``scale``, ``add``, ``reshape`` and
``softmax`` (``pal.core``). These primitives are what the fused nodes
replaced: ``oracles.py`` builds the reference chains from them, and
``test_tensor.py`` checks each one against finite differences. Each carries
a hand-written vector-Jacobian product and is made with ``from_op``, exactly
as it was in ``pal.core.ops``, so the chains give the bytes they always
gave.

``l2_normalize`` also takes a plain array and then returns the package's
array form.
"""
from __future__ import annotations

import numpy as np

from pal.core import Tensor, as_tensor, from_op, lse_softmax
from pal.core import l2_normalize as l2_normalize_array
from pal.core.ops import _shape_error
from pal.core.tensor import ArrayLike, unbroadcast


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise _shape_error("sub", a.data, b.data) from None

    def vjp(g: np.ndarray):
        return unbroadcast(g, a.data.shape), unbroadcast(-g, b.data.shape)

    return from_op(data, (a, b), vjp, "sub")


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a.data, b.data) from None

    def vjp(g: np.ndarray):
        return unbroadcast(g * b.data, a.data.shape), unbroadcast(g * a.data, b.data.shape)

    return from_op(data, (a, b), vjp, "mul")


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product for ndim <= 2 operands (matrix@matrix, matrix@vector,
    vector@matrix)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise _shape_error("matmul", a.data, b.data)
    try:
        data = a.data @ b.data
    except ValueError:
        raise _shape_error("matmul", a.data, b.data) from None

    def vjp(g: np.ndarray):
        if a.ndim == 2 and b.ndim == 2:
            return g @ b.data.T, a.data.T @ g
        if a.ndim == 2 and b.ndim == 1:
            return np.outer(g, b.data), a.data.T @ g
        # a 1-D, b 2-D
        return g @ b.data.T, np.outer(a.data, g)

    return from_op(data, (a, b), vjp, "matmul")


def transpose(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise _shape_error("transpose", a.data)

    def vjp(g: np.ndarray):
        return (g.T,)

    return from_op(a.data.T, (a,), vjp, "transpose")


def relu(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def vjp(g: np.ndarray):
        return (g * mask,)

    return from_op(np.where(mask, a.data, 0.0), (a,), vjp, "relu")


def log(a: ArrayLike) -> Tensor:
    a = as_tensor(a)

    def vjp(g: np.ndarray):
        return (g / a.data,)

    return from_op(np.log(a.data), (a,), vjp, "log")


def reduce_sum(a: ArrayLike, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis)

    def vjp(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return from_op(data, (a,), vjp, "sum")


def clamp_min(a: ArrayLike, floor: float) -> Tensor:
    a = as_tensor(a)
    mask = a.data >= floor

    def vjp(g: np.ndarray):
        return (g * mask,)

    return from_op(np.maximum(a.data, floor), (a,), vjp, "clamp_min")


def l2_normalize(x, eps: float = 1e-12, axis: int = -1):
    """``x / max(||x||_2, eps)`` along ``axis``; the zero vector maps to
    zero."""
    if not isinstance(x, Tensor):
        return l2_normalize_array(x, eps=eps, axis=axis)

    norms = np.linalg.norm(x.data, axis=axis, keepdims=True)
    clipped = np.maximum(norms, eps)
    out = x.data / clipped

    def vjp(g: np.ndarray):
        # Two regimes: n = ||x|| (project out the radial component) and
        # n = eps held constant (plain 1/eps scaling).
        inner = np.sum(g * out, axis=axis, keepdims=True)
        grad_live = (g - out * inner) / clipped
        grad_eps = g / eps
        return (np.where(norms >= eps, grad_live, grad_eps),)

    return from_op(out, (x,), vjp, "l2_normalize")


def log_sum_exp(v: Tensor, axis: int | None = None) -> Tensor:
    """Shift-stabilized ``log(sum(exp(v)))``, finite for any finite input.

    ``-inf`` entries are legal and act as masked-out terms, provided each
    reduced slice keeps at least one finite entry.
    """
    data, softmax_vals = lse_softmax(v.data, axis)

    def vjp(g: np.ndarray):
        if axis is None:
            return (g * softmax_vals,)
        return (np.expand_dims(g, axis) * softmax_vals,)

    return from_op(data, (v,), vjp, "log_sum_exp")
