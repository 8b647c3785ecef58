"""Autodiff engine: the tensor and its backward pass, the few graph nodes
training builds besides the fused ones, the softmax kernel, and gradient
checking. The fused nodes themselves live beside the models and losses."""
from .gradcheck import (
    analytic_grad,
    check_gradient,
    finite_difference_grad,
    max_relative_error,
)
from .ops import (
    add,
    l2_normalize,
    lse_softmax,
    reshape,
    scale,
    softmax,
    softmax_temperature,
)
from .tensor import Tensor, as_tensor, backward, from_op

__all__ = [
    "Tensor",
    "as_tensor",
    "backward",
    "from_op",
    "add",
    "scale",
    "reshape",
    "l2_normalize",
    "lse_softmax",
    "softmax",
    "softmax_temperature",
    "analytic_grad",
    "check_gradient",
    "finite_difference_grad",
    "max_relative_error",
]
