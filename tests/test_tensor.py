"""Autodiff core: forward values, stability primitives, backward."""
from __future__ import annotations

import math
import pkgutil

import numpy as np
import pytest

import pal
import pal.core
from pal.core import Tensor, add, backward, softmax, softmax_temperature
from pal.core.gradcheck import max_relative_error
from pal.exceptions import ContractError, DomainError, ParameterError, ShapeError

from graph_ops import l2_normalize, log, log_sum_exp, matmul, mul, reduce_sum, relu, sub
from oracles import softmax_shifted_exp


def test_add_componentwise():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_matmul_identity():
    v = np.array([0.3, -1.2, 5.0])
    out = matmul(Tensor(np.eye(3)), Tensor(v))
    np.testing.assert_array_equal(out.data, v)


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_l2_normalize_three_four_five():
    out = l2_normalize(Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-12)


def test_l2_normalize_zero_vector_maps_to_zero():
    out = l2_normalize(Tensor([0.0, 0.0]), eps=1e-12)
    np.testing.assert_array_equal(out.data, [0.0, 0.0])


def test_l2_normalize_unit_norm_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=8)
        out = l2_normalize(Tensor(x))
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-9


def test_l2_normalize_rowwise_matches_per_row():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    out = l2_normalize(Tensor(x)).data
    for i in range(5):
        np.testing.assert_allclose(out[i], x[i] / np.linalg.norm(x[i]), atol=1e-12)


def test_log_sum_exp_hand_values():
    assert float(log_sum_exp(Tensor([0.0, 0.0]))) == pytest.approx(math.log(2.0), abs=1e-12)
    for c in (-7.25, 0.0, 123.456):
        assert float(log_sum_exp(Tensor([c]))) == pytest.approx(c, abs=1e-12)


def test_log_sum_exp_no_overflow():
    # Oracle: the shifted formula evaluated by hand.
    expected = 1000.0 + math.log(2.0)
    got = float(log_sum_exp(Tensor([1000.0, 1000.0])))
    assert math.isfinite(got)
    assert got == pytest.approx(expected, abs=1e-9)


def test_log_sum_exp_repeated_value_identity():
    rng = np.random.default_rng(2)
    for n in (1, 3, 17):
        v = float(rng.normal())
        got = float(log_sum_exp(Tensor(np.full(n, v))))
        assert got == pytest.approx(v + math.log(n), abs=1e-9)


def test_log_sum_exp_empty_is_domain_error():
    with pytest.raises(DomainError):
        log_sum_exp(Tensor(np.zeros(0)))


def test_log_sum_exp_masked_entries_ignored():
    vals = np.array([0.7, -np.inf, 1.3])
    expected = float(np.log(np.exp(0.7) + np.exp(1.3)))
    assert float(log_sum_exp(Tensor(vals))) == pytest.approx(expected, abs=1e-12)


def test_softmax_temperature_symmetry():
    out = softmax_temperature(Tensor([0.0, 0.0, 0.0]), tau=0.5)
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_softmax_temperature_hand_value():
    out = softmax_temperature(Tensor([math.log(2.0), 0.0]), tau=1.0)
    np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_temperature_rejects_nonpositive_tau():
    for tau in (0.0, -1.0):
        with pytest.raises(ParameterError):
            softmax_temperature(Tensor([1.0, 2.0]), tau=tau)


def test_softmax_temperature_sums_to_one_and_keeps_argmax():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(scale=5.0, size=rng.integers(2, 9))
        for tau in (0.1, 0.5, 1.0, 5.0):
            p = softmax_temperature(Tensor(v), tau=tau).data
            assert abs(p.sum() - 1.0) <= 1e-9
            assert int(np.argmax(p)) == int(np.argmax(v))


def test_softmax_temperature_approaches_uniform_monotonically():
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.normal(scale=3.0, size=6)
        devs = []
        for tau in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            p = softmax_temperature(Tensor(v), tau=tau).data
            devs.append(np.abs(p - 1.0 / 6.0).max())
        assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


def test_backward_square():
    # d(x·x)/dx at 3 is 6.
    x = Tensor([3.0], requires_grad=True)
    backward(reduce_sum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)


def test_backward_requires_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(x, x))


def test_backward_l2_normalize_matches_finite_differences():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=6)
    err = max_relative_error(lambda t: reduce_sum(l2_normalize(t)), x0, h=1e-5)
    assert err <= 1e-4


def test_backward_log_sum_exp_grad_is_softmax():
    rng = np.random.default_rng(6)
    v0 = rng.normal(scale=2.0, size=7)
    x = Tensor(v0, requires_grad=True)
    backward(log_sum_exp(x))
    expected = np.exp(v0 - v0.max())
    expected /= expected.sum()
    np.testing.assert_allclose(x.grad, expected, atol=1e-6)


def test_grad_accumulates_until_cleared():
    x = Tensor([2.0], requires_grad=True)
    backward(reduce_sum(mul(x, x)))
    backward(reduce_sum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)
    x.zero_grad()
    backward(reduce_sum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [4.0], atol=1e-12)


def test_constant_graphs_record_no_parents():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    out = add(a, b)
    assert not out.requires_grad
    assert out._parents == ()


@pytest.mark.parametrize("seed", range(5))
def test_every_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    n, m = 5, 4
    r_vec = rng.normal(size=n)
    r_mat = rng.normal(size=(n, m))
    w = rng.normal(size=(n, m))

    cases = [
        (lambda t: reduce_sum(add(t, Tensor(r_vec))), rng.normal(size=n)),
        (lambda t: reduce_sum(sub(Tensor(r_vec), t)), rng.normal(size=n)),
        (lambda t: reduce_sum(mul(t, Tensor(r_vec))), rng.normal(size=n)),
        (lambda t: reduce_sum(mul(reduce_sum(t, axis=0), Tensor(r_mat[0]))), rng.normal(size=(n, m))),
        (lambda t: reduce_sum(mul(matmul(t, Tensor(w)), Tensor(r_mat[:, :m]))), rng.normal(size=(n, n))),
        (lambda t: reduce_sum(mul(relu(t), Tensor(r_mat))), rng.normal(size=(n, m))),
        (lambda t: reduce_sum(mul(l2_normalize(t), Tensor(r_mat))), rng.normal(size=(n, m)) * 2),
        (lambda t: log_sum_exp(t), rng.normal(size=n) * 3),
        (lambda t: reduce_sum(mul(log_sum_exp(t, axis=-1), Tensor(r_vec))), rng.normal(size=(n, m))),
        (lambda t: reduce_sum(mul(softmax_temperature(t, 0.7), Tensor(r_vec))), rng.normal(size=n)),
        (lambda t: reduce_sum(mul(log(t), Tensor(r_vec))), rng.random(n) + 0.5),
    ]
    for fn, x0 in cases:
        assert max_relative_error(fn, x0, h=1e-5) <= 1e-4


@pytest.mark.parametrize("shape, axis", [
    ((7,), -1), ((4, 6), -1), ((4, 6), 0), ((7,), None), ((4, 6), None),
])
def test_softmax_matches_the_shifted_exp_form_bitwise(shape, axis):
    x = np.random.default_rng(3).normal(scale=20.0, size=shape)
    expected = softmax_shifted_exp(x, axis)
    assert np.array_equal(softmax(x, axis=axis), expected)
    assert np.array_equal(softmax(Tensor(x, requires_grad=True), axis=axis).data, expected)


def test_core_exports_only_the_engine():
    """The generic ops live in ``tests/graph_ops.py``; a new name in
    ``pal.core`` must be a node training builds."""
    assert sorted(pal.core.__all__) == sorted([
        "Tensor", "as_tensor", "from_op", "backward",
        "add", "scale", "reshape",
        "lse_softmax", "softmax", "softmax_temperature", "l2_normalize",
        "analytic_grad", "check_gradient", "finite_difference_grad", "max_relative_error",
    ])
    assert all(hasattr(pal.core, name) for name in pal.core.__all__)
    x = Tensor([1.0, 2.0])
    assert (x + 1.0).op == (1.0 + x).op == "add"
    for other_operator in ("__sub__", "__mul__", "__matmul__", "__neg__", "sum", "mean"):
        assert not hasattr(x, other_operator)


def test_package_modules_are_pinned():
    """A helper module with one caller belongs in that caller; a new module
    in ``pal`` must be named here."""
    assert {m.name for m in pkgutil.iter_modules(pal.__path__)} == {
        "ablation", "batching", "cli", "config", "core", "data", "encoders",
        "episodes", "estimators", "exceptions", "losses", "training",
    }
