"""Finite-difference gradient checking.

Shipped as library code (not only a test helper) so that a custom loss term,
written as one :func:`~pal.core.tensor.from_op` node with a hand-written
vector-Jacobian product the way the bundled ones are, can be verified the
same way they are.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, backward


def finite_difference_grad(
    f: Callable[[np.ndarray], float], x0: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x0``."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.reshape(-1)
    base = x0.copy()
    for i in range(base.size):
        orig = base.reshape(-1)[i]
        base.reshape(-1)[i] = orig + h
        up = float(f(base))
        base.reshape(-1)[i] = orig - h
        down = float(f(base))
        base.reshape(-1)[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def analytic_grad(f: Callable[[Tensor], Tensor], x0: np.ndarray) -> np.ndarray:
    """Gradient of a Tensor-valued scalar function via one backward pass."""
    x = Tensor(np.asarray(x0, dtype=np.float64).copy(), requires_grad=True)
    out = f(x)
    backward(out)
    return np.zeros_like(x.data) if x.grad is None else x.grad


def max_relative_error(
    f: Callable[[Tensor], Tensor], x0: np.ndarray, h: float = 1e-5
) -> float:
    """Worst-case relative disagreement between analytic and central
    finite-difference gradients, normalized by the numeric gradient scale."""
    ga = analytic_grad(f, x0)
    gn = finite_difference_grad(lambda arr: float(f(Tensor(arr))), x0, h=h)
    scale = max(float(np.abs(gn).max(initial=0.0)), 1e-8)
    return float(np.abs(ga - gn).max(initial=0.0)) / scale


def check_gradient(
    f: Callable[[Tensor], Tensor],
    x0: np.ndarray,
    h: float = 1e-5,
    rtol: float = 1e-4,
) -> float:
    """Assert-style check; returns the observed error so callers can log it."""
    err = max_relative_error(f, x0, h=h)
    if err > rtol:
        raise AssertionError(
            f"analytic gradient disagrees with finite differences: "
            f"relative error {err:.3e} > {rtol:.1e}"
        )
    return err
