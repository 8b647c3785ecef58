"""Differentiable operations over :class:`~pal.core.tensor.Tensor`.

The primitives here each carry a hand-written vector-Jacobian product.
Reductions inherit numpy's pairwise summation, which keeps loss values
reproducible to well below 1e-9 on a given platform.

The training hot path does not chain these primitives: each step builds
one fused node per encoder pass (:meth:`pal.encoders.Encoder.embed`: dense,
bias and ReLU layers plus the L2 normalization), per cosine-logit matrix
(:meth:`pal.encoders.CosineClassifier.logits`) and per objective
(``pal.losses._contrastive_sum`` and
:func:`pal.losses.soft_cross_entropy_batch`), each created with
:func:`~pal.core.tensor.from_op`. A fused node computes exactly the float
operations of the composite chain it replaces, in the same order, forward
and backward; where the chain fed several gradient contributions into one
tensor, the node lists that tensor once per contribution, so the gradients
accumulate in the same order and the trained bytes stay the same. The
composite chains live on in ``tests/oracles.py`` as the reference the fused
nodes are checked against.

The stability-sensitive ops (:func:`log_sum_exp`, :func:`softmax_temperature`,
:func:`l2_normalize`) also accept plain arrays and then return plain arrays,
so constant targets (soft labels, anchors) can reuse the exact same numerics
without entering a graph. :func:`lse_softmax` is the one shifted-exponential
kernel: :func:`log_sum_exp`, :func:`softmax` and the fused loss nodes all
take their values from it.
"""
from __future__ import annotations

import numpy as np

from ..exceptions import DomainError, ParameterError, ShapeError
from .tensor import ArrayLike, Tensor, as_tensor, from_op, unbroadcast


def _shape_error(op: str, *operands: np.ndarray) -> ShapeError:
    shapes = " and ".join(str(o.shape) for o in operands)
    return ShapeError(f"{op}: operand shapes {shapes} do not conform")


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a.data, b.data) from None

    def vjp(g: np.ndarray):
        return unbroadcast(g, a.data.shape), unbroadcast(g, b.data.shape)

    return from_op(data, (a, b), vjp, "add")


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


def scale(a: ArrayLike, alpha: float) -> Tensor:
    a = as_tensor(a)
    alpha = float(alpha)

    def vjp(g: np.ndarray):
        return (g * alpha,)

    return from_op(a.data * alpha, (a,), vjp, "scale")


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


def dot(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise _shape_error("dot", a.data, b.data)
    data = a.data @ b.data

    def vjp(g: np.ndarray):
        return g * b.data, g * a.data

    return from_op(data, (a, b), vjp, "dot")


def reshape(a: ArrayLike, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise _shape_error("reshape", a.data) from None

    def vjp(g: np.ndarray):
        return (g.reshape(a.data.shape),)

    return from_op(data, (a,), vjp, "reshape")


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


def exp(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def vjp(g: np.ndarray):
        return (g * data,)

    return from_op(data, (a,), vjp, "exp")


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


def reduce_mean(a: ArrayLike, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.mean(axis=axis)

    def vjp(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g / n, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape).copy(),)

    return from_op(data, (a,), vjp, "mean")


def clamp_min(a: ArrayLike, floor: float) -> Tensor:
    a = as_tensor(a)
    mask = a.data >= floor

    def vjp(g: np.ndarray):
        return (g * mask,)

    return from_op(np.maximum(a.data, floor), (a,), vjp, "clamp_min")


def take_rows(a: ArrayLike, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor by a constant index array."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise _shape_error("take_rows", a.data)
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g: np.ndarray):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return from_op(a.data[idx], (a,), vjp, "take_rows")


def l2_normalize(x, eps: float = 1e-12, axis: int = -1):
    """``x / max(||x||_2, eps)`` along ``axis``.

    The eps guard maps the zero vector to zero instead of raising, so
    degenerate embeddings surface as zero cosine similarity downstream.
    Accepts a Tensor (differentiable) or a plain array (returns an array).
    """
    if not isinstance(x, Tensor):
        arr = np.asarray(x, dtype=np.float64)
        norm = np.maximum(np.linalg.norm(arr, axis=axis, keepdims=True), eps)
        return arr / norm

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


def log_sum_exp(v, axis: int | None = None):
    """Shift-stabilized ``log(sum(exp(v)))``, finite for any finite input.

    ``-inf`` entries are legal and act as masked-out terms, provided each
    reduced slice keeps at least one finite entry.
    """
    if not isinstance(v, Tensor):
        return lse_softmax(np.asarray(v, dtype=np.float64), axis)[0]

    data, softmax_vals = lse_softmax(v.data, axis)

    def vjp(g: np.ndarray):
        if axis is None:
            return (g * softmax_vals,)
        return (np.expand_dims(g, axis) * softmax_vals,)

    return from_op(data, (v,), vjp, "log_sum_exp")


def lse_softmax(arr: np.ndarray, axis: int | None):
    """``(log_sum_exp(arr), softmax(arr))`` along ``axis`` from one shifted
    exponential; the softmax is the log-sum-exp's gradient."""
    if arr.size == 0:
        raise DomainError("log_sum_exp of an empty vector is undefined")
    if axis is None:
        m = arr.max()
        shifted = np.exp(arr - m)
        total = shifted.sum()
        shifted /= total
        return m + np.log(total), shifted
    m = arr.max(axis=axis, keepdims=True)
    shifted = arr - m
    np.exp(shifted, out=shifted)
    total = shifted.sum(axis=axis, keepdims=True)
    shifted /= total
    return (m + np.log(total)).squeeze(axis), shifted


def softmax(x, axis: int = -1):
    """Stable softmax, :func:`lse_softmax`'s second output; Tensor in,
    Tensor out (or array in, array out)."""
    if not isinstance(x, Tensor):
        return lse_softmax(np.asarray(x, dtype=np.float64), axis)[1]

    out = lse_softmax(x.data, axis)[1]

    def vjp(g: np.ndarray):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - inner),)

    return from_op(out, (x,), vjp, "softmax")


def softmax_temperature(v, tau: float, axis: int = -1):
    """``softmax(v / tau)``; higher tau flattens the distribution toward
    uniform while preserving the argmax."""
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {tau}")
    if isinstance(v, Tensor):
        return softmax(scale(v, 1.0 / tau), axis=axis)
    return softmax(np.asarray(v, dtype=np.float64) / tau, axis=axis)
