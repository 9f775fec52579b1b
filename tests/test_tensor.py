import math

import numpy as np
import pytest

from objcap.tensor import (
    Tape,
    Tensor,
    add,
    add_rowvector,
    backward,
    concat,
    cross_entropy,
    glorot_uniform,
    matmul,
    mul,
    scale,
    sigmoid,
    slice_axis,
    softmax,
    sum_all,
    take_row,
    tanh,
    zeros,
)
from gradcheck import finite_diff_check


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([float("inf")])


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_manual():
    # [1*5+2*6, 3*5+4*6] = [17, 39]
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_zero_annihilator():
    rng = np.random.default_rng(0)
    out = matmul(zeros((2, 3)), Tensor(rng.standard_normal((3, 4))))
    assert out.shape == (2, 4)
    assert np.all(out.data == 0.0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError) as e:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_concat_shapes():
    a = zeros((1, 128))
    b = zeros((1, 50))
    assert concat([a, b], axis=1).shape == (1, 178)
    out = concat([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])], axis=0)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])
    parts = [zeros((3, 4))] * 5
    assert concat(parts, axis=1).shape == (3, 20)


def test_concat_errors():
    with pytest.raises(ValueError):
        concat([], axis=0)
    with pytest.raises(ValueError):
        concat([zeros((1, 2)), zeros((2, 3))], axis=1)


def test_concat_then_split_is_identity():
    rng = np.random.default_rng(3)
    for axis in (0, 1):
        a = Tensor(rng.uniform(-1, 1, (2, 3)))
        b = Tensor(rng.uniform(-1, 1, (2, 3)))
        joined = concat([a, b], axis=axis)
        n = a.shape[axis]
        back_a = slice_axis(joined, axis, 0, n)
        back_b = slice_axis(joined, axis, n, 2 * n)
        assert np.array_equal(back_a.data, a.data)
        assert np.array_equal(back_b.data, b.data)


def test_elementwise_values():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5
    assert tanh(Tensor([0.0])).data[0] == 0.0
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])
    out = mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]))
    assert np.array_equal(out.data, [8.0, 15.0])


def test_elementwise_shape_errors():
    with pytest.raises(ValueError):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        mul(zeros((2, 2)), zeros((2, 3)))
    with pytest.raises(ValueError):
        add_rowvector(zeros((2, 3)), zeros((4,)))


def test_add_rowvector():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    out = add_rowvector(x, b)
    assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])


def test_softmax_symmetry_and_stability():
    assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    big = softmax(Tensor([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(big.data))
    assert np.allclose(big.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_closed_form():
    # e^0 / (e^0 + 3) = 1/4
    out = softmax(Tensor([0.0, math.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_sums_to_one_and_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.uniform(-5, 5, size=rng.integers(1, 9))
        s = softmax(Tensor(v))
        assert abs(s.data.sum() - 1.0) <= 1e-12
        assert np.all(s.data > 0)
        shifted = softmax(Tensor(v + 7.25))
        assert np.allclose(s.data, shifted.data, atol=1e-12)


def test_cross_entropy_uniform_cases():
    assert math.isclose(cross_entropy(Tensor([0.0, 0.0]), 0).item(), math.log(2.0), rel_tol=1e-12)
    for t in range(4):
        assert math.isclose(
            cross_entropy(Tensor([0.0, 0.0, 0.0, 0.0]), t).item(), math.log(4.0), rel_tol=1e-12
        )


def test_cross_entropy_closed_form():
    # softmax([0, ln 3])[1] = 0.75
    loss = cross_entropy(Tensor([0.0, math.log(3.0)]), 1)
    assert math.isclose(loss.item(), -math.log(0.75), rel_tol=1e-12)


def test_cross_entropy_nonnegative_and_onehot_limit():
    rng = np.random.default_rng(5)
    for _ in range(30):
        v = rng.uniform(-4, 4, size=rng.integers(2, 7))
        t = int(rng.integers(0, v.size))
        assert cross_entropy(Tensor(v), t).item() >= 0.0
    # driving the target logit up approaches zero loss
    assert cross_entropy(Tensor([500.0, 0.0, 0.0]), 0).item() < 1e-12


def test_cross_entropy_target_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor([0.0, 0.0]), 2)
    with pytest.raises(ValueError):
        cross_entropy(Tensor([0.0, 0.0]), -1)


def test_backward_sum_is_ones():
    x = Tensor([1.0, 5.0, -2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_bilinear():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    w = Tensor([[3.0], [4.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(matmul(x, w))
    backward(loss, tape)
    assert np.array_equal(w.grad, [[1.0], [2.0]])
    assert np.array_equal(x.grad, [[3.0, 4.0]])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
    with pytest.raises(ValueError):
        backward(y, tape)


def test_backward_requires_same_tape():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = sum_all(x)
    with pytest.raises(ValueError):
        backward(loss, Tape())


def test_backward_accumulates_across_fanout():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(add(x, x))
    backward(loss, tape)
    assert np.array_equal(x.grad, [2.0])


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = add(x, x)
    assert not y.requires_grad
    with Tape() as tape:
        add(x, x)
    assert len(tape) == 1


@pytest.mark.parametrize(
    "name,build",
    [
        ("matmul", lambda p: sum_all(matmul(p[0], p[1]))),
        ("add", lambda p: sum_all(mul(add(p[2], p[3]), p[3]))),
        ("mul", lambda p: sum_all(mul(p[2], p[3]))),
        ("sigmoid", lambda p: sum_all(mul(sigmoid(p[2]), p[3]))),
        ("tanh", lambda p: sum_all(mul(tanh(p[2]), p[3]))),
        ("scale", lambda p: sum_all(scale(p[2], -1.7))),
        ("add_rowvector", lambda p: sum_all(tanh(add_rowvector(p[0], p[4])))),
        ("concat", lambda p: sum_all(tanh(concat([p[2], p[3]], axis=0)))),
        ("slice", lambda p: sum_all(mul(slice_axis(p[0], 1, 1, 3), slice_axis(p[0], 1, 0, 2)))),
        ("softmax", lambda p: sum_all(mul(softmax(p[5]), p[6]))),
        ("cross_entropy", lambda p: cross_entropy(p[5], 2)),
        ("take_row", lambda p: sum_all(tanh(take_row(p[0], 1)))),
        # batched rows with a repeated index: the scatter-add sums both copies
        ("take_row_batched", lambda p: sum_all(mul(tanh(take_row(p[1], np.array([2, 0, 2]))), p[7]))),
    ],
)
def test_gradients_match_finite_differences(name, build):
    rng = np.random.default_rng(hash(name) % 2**32)
    params = [
        Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True),  # 0
        Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True),  # 1
        Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True),  # 2
        Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True),  # 3
        Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True),    # 4
        Tensor(rng.uniform(-1, 1, (5,)), requires_grad=True),    # 5
        Tensor(rng.uniform(-1, 1, (5,)), requires_grad=True),    # 6
        Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True),  # 7
    ]
    finite_diff_check(lambda: build(params), params)


def test_composed_graph_gradient():
    rng = np.random.default_rng(99)
    w1 = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b1 = Tensor(rng.uniform(-1, 1, (4,)), requires_grad=True)
    w2 = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (1, 3)))

    def build():
        h = tanh(add_rowvector(matmul(x, w1), b1))
        return cross_entropy(matmul(h, w2), 1)

    finite_diff_check(build, [w1, b1, w2])


def test_glorot_uniform_bound():
    t = glorot_uniform((100, 100), np.random.default_rng(7))
    bound = math.sqrt(6.0 / 200.0)
    assert np.all(np.abs(t.data) <= bound)
    assert np.abs(t.data).max() > 0.5 * bound  # actually fills the range
    assert t.requires_grad


def test_ops_deterministic():
    rng = np.random.default_rng(17)
    a = Tensor(rng.uniform(-1, 1, (3, 3)))
    b = Tensor(rng.uniform(-1, 1, (3, 3)))
    first = matmul(sigmoid(a), tanh(b)).data.tobytes()
    second = matmul(sigmoid(a), tanh(b)).data.tobytes()
    assert first == second


def test_values_finite_after_passes():
    rng = np.random.default_rng(23)
    w = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (1, 4)))
    with Tape() as tape:
        h = sigmoid(matmul(x, w))
        loss = cross_entropy(h, 0)
    backward(loss, tape)
    assert np.all(np.isfinite(h.data))
    assert np.all(np.isfinite(loss.data))
    assert np.all(np.isfinite(w.grad))


def test_take_row_batched_stacks_rows():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    out = take_row(table, np.array([3, 1, 3]))
    assert np.array_equal(out.data, table.data[[3, 1, 3]])
    assert np.array_equal(take_row(table, 2).data, take_row(table, np.array([2])).data)


def test_take_row_batched_gradient_adds_repeated_rows():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    weights = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    with Tape() as tape:
        loss = sum_all(mul(take_row(table, np.array([1, 3, 1])), weights))
    backward(loss, tape)
    assert np.array_equal(table.grad, [[0.0, 0.0], [6.0, 8.0], [0.0, 0.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "index", [4, -1, np.array([0, 4]), np.array([-1, 0]), np.array([[0]]), np.array([0.0]), 1.0]
)
def test_take_row_rejects_bad_indices(index):
    with pytest.raises(ValueError):
        take_row(Tensor(np.zeros((4, 2))), index)
