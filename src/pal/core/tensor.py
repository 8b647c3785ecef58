"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array plus the bookkeeping needed to pull
gradients back from a scalar loss. Every interior node is made by
:func:`from_op` from its value, its parents and a vector-Jacobian product:
the fused model and loss nodes and the few ops in :mod:`pal.core.ops`.
Calling :func:`backward` on a scalar root walks the recorded graph once in
reverse topological order.

Graph construction and backward are single-threaded per graph. Distinct
graphs are independent and may run on separate threads; tensors may move
between threads when no graph that references them is under construction.
"""
from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from ..exceptions import ContractError

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


class Tensor:
    """Node in a differentiable computation graph.

    Leaves are created directly (parameters with ``requires_grad=True``,
    constants without); interior nodes are created by :func:`from_op` and
    carry a vector-Jacobian-product closure used during backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None
        self.op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _not_scalar(self)

    def __float__(self) -> float:
        return self.item()

    def zero_grad(self) -> None:
        self.grad = None

    # ``+`` is the one operator: the trainers sum their loss terms with it.
    def __add__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self.op!r}{flag})"


def _not_scalar(t: Tensor):
    raise ContractError(f"expected a scalar tensor, got shape {t.data.shape}")


def as_tensor(x: ArrayLike) -> Tensor:
    """Wrap ``x`` as a constant Tensor; Tensors pass through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(x)


def from_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    op: str,
) -> Tensor:
    """Create an interior graph node. Constant subgraphs are pruned here:
    a node with no grad-requiring parent records neither parents nor vjp."""
    out = Tensor(data)
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``root``.

    Gradients accumulate into existing ``grad`` arrays, so callers reusing
    leaves across steps must clear them (see ``Tensor.zero_grad``).
    """
    if root.data.size != 1:
        raise ContractError(
            f"backward requires a scalar root, got shape {root.data.shape}"
        )
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.data) if root.grad is None else root.grad + np.ones_like(root.data)
    for node in reversed(topo):
        if node._vjp is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            # Accumulation always rebinds (never mutates in place), so vjp
            # outputs may safely alias upstream gradient arrays.
            parent.grad = g if parent.grad is None else parent.grad + g
