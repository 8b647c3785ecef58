"""The graph nodes training builds outside the fused ones, and the shared
softmax kernel.

Training builds one fused node per encoder pass
(:meth:`pal.encoders.Encoder.embed`: dense, bias and ReLU layers plus the L2
normalization), per cosine-logit matrix
(:meth:`pal.encoders.CosineClassifier.logits`) and per objective
(``pal.losses._contrastive_sum``, :func:`pal.losses.soft_cross_entropy_batch`
and :func:`pal.losses.kl_loss_batch`), each created with
:func:`~pal.core.tensor.from_op`. Around them it needs only :func:`scale`
and :func:`add` (the per-instance means and the weighted sum of terms),
:func:`reshape` (a 1-D input) and the Tensor form of :func:`softmax` (the
KL student). A fused node computes exactly the float operations of the
composite chain of primitives it replaced, in the same order, forward and
backward; where the chain fed several gradient contributions into one
tensor, the node lists that tensor once per contribution, so the gradients
accumulate in the same order and the trained bytes stay the same. Those
primitives and chains live on in ``tests/`` as the reference the fused
nodes are checked against.

:func:`lse_softmax` is the one shifted-exponential kernel: :func:`softmax`
and the fused loss nodes all take their values from it.
:func:`softmax_temperature` and :func:`softmax` also accept plain arrays and
then return plain arrays, so constant targets (soft labels) reuse the exact
same numerics without entering a graph; :func:`l2_normalize` takes arrays
only.
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


def scale(a: ArrayLike, alpha: float) -> Tensor:
    a = as_tensor(a)
    alpha = float(alpha)

    def vjp(g: np.ndarray):
        return (g * alpha,)

    return from_op(a.data * alpha, (a,), vjp, "scale")


def reshape(a: ArrayLike, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise _shape_error("reshape", a.data) from None

    def vjp(g: np.ndarray):
        return (g.reshape(a.data.shape),)

    return from_op(data, (a,), vjp, "reshape")


def l2_normalize(x, eps: float = 1e-12, axis: int = -1) -> np.ndarray:
    """``x / max(||x||_2, eps)`` along ``axis``, array in, array out.

    The eps guard maps the zero vector to zero instead of raising, so
    degenerate embeddings surface as zero cosine similarity downstream.
    """
    arr = np.asarray(x, dtype=np.float64)
    norm = np.maximum(np.linalg.norm(arr, axis=axis, keepdims=True), eps)
    return arr / norm


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
