import gc
import math
import weakref

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
    log_softmax,
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
from gradcheck import assert_close, assert_leaves_alone_hold_gradients, finite_diff_check, reference_backward


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


def test_slice_axis_copies_only_what_is_not_contiguous():
    m = Tensor(np.arange(12.0).reshape(3, 4))
    one_row = Tensor(np.arange(8.0).reshape(1, 8))
    assert np.shares_memory(slice_axis(m, 0, 1, 3).data, m.data)
    assert np.shares_memory(slice_axis(one_row, 1, 2, 6).data, one_row.data)
    cols = slice_axis(m, 1, 1, 3)
    assert not np.shares_memory(cols.data, m.data) and cols.data.flags.c_contiguous
    assert np.array_equal(cols.data, m.data[:, 1:3])


def test_elementwise_values():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5
    assert tanh(Tensor([0.0])).data[0] == 0.0
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])
    out = mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]))
    assert np.array_equal(out.data, [8.0, 15.0])


def test_sigmoid_matches_split_form_bitwise():
    # the split-by-sign form with exp(-|d|) evaluated once per branch
    rng = np.random.default_rng(2)
    d = np.concatenate([rng.normal(0, 10, 100_000), [800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300]])
    want = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    assert np.array_equal(sigmoid(Tensor(d)).data, want)


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


def test_log_softmax_rows_and_the_ops_that_read_it():
    # each row of a matrix is that row alone; softmax is its exp and
    # cross_entropy its negated target entry, to the bit
    rng = np.random.default_rng(12)
    rows = rng.uniform(-30, 30, (5, 7))
    lsm = log_softmax(rows)
    for row, want in zip(rows, lsm):
        assert np.array_equal(log_softmax(row), want)
        assert np.array_equal(softmax(Tensor(row)).data, np.exp(want))
        for t in range(row.size):
            assert cross_entropy(Tensor(row), t).item() == -want[t]
    assert np.allclose(np.exp(lsm).sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert np.allclose(log_softmax(np.array([1000.0, 1000.0])), -math.log(2.0), rtol=0, atol=1e-12)


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


def test_backward_copies_a_gradient_returned_twice():
    # add's rule returns one array for both inputs; each input must get its
    # own copy, or x's second contribution would also land in w's gradient
    x = Tensor([1.0], requires_grad=True)
    w = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(add(add(x, w), x))
    backward(loss, tape)
    assert np.array_equal(x.grad, [2.0])
    assert np.array_equal(w.grad, [1.0])


def test_a_second_backward_on_one_tape_adds_the_same_gradients():
    # the first replay leaves no produced tensor a gradient, so the second
    # starts from the loss alone and adds the same leaf gradients again
    rng = np.random.default_rng(10)
    x, w = leaf(rng, (2, 3)), leaf(rng, (3, 2))
    with Tape() as tape:
        h = tanh(matmul(x, w))
        loss = sum_all(mul(h, slice_axis(concat([h, h], axis=1), 1, 1, 3)))
    backward(loss, tape)
    once = [x.grad.copy(), w.grad.copy()]
    backward(loss, tape)
    assert np.array_equal(x.grad, 2 * once[0]) and np.array_equal(w.grad, 2 * once[1])


def test_tensor_has_no_tape_attribute():
    # only the tape refers to its graph: an output holds no tape
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        y = add(x, x)
    assert not hasattr(y, "_tape") and not hasattr(x, "_tape")


def test_replayed_tape_dies_with_its_name():
    # with the collector off, only reference counting can free the tape,
    # while its loss and an intermediate output are still referenced
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    w = Tensor([[0.5], [0.25]], requires_grad=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            h = tanh(matmul(x, w))
            loss = sum_all(mul(h, h))
        backward(loss, tape)
        assert tape.nodes[-1][1] is loss  # still readable after backward
        held = assert_leaves_alone_hold_gradients(tape)
        ref = weakref.ref(tape)
        del tape
        alive = ref() is not None
    finally:
        if enabled:
            gc.enable()
    assert not alive
    # the produced tensors gave up their gradients as their nodes ran; the leaves keep theirs
    assert loss.grad is None and h.grad is None and {id(t) for t in held} == {id(x), id(w)}
    dz = 2.0 * h.data * (1.0 - h.data * h.data)
    assert_close(w.grad, x.data.T @ dz, 1e-15)
    assert_close(x.grad, dz @ w.data.T, 1e-15)


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


# --- deferred leaf gradients against the per-node reference ---


def leaf(rng, shape):
    return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)


def grads_after(run, build, leaves, rounds=1):
    """The gradients of the watched tensors after ``rounds`` passes of
    ``run(loss, tape)`` over ``build()``, starting from cleared ``leaves``."""
    for p in leaves:
        p.grad = None
    for _ in range(rounds):
        loss, tape, watched = build()
        run(loss, tape)
    return [w.grad.copy() for w in watched]


def check_deferred(build, leaves, rounds=1, exact=()):
    """``backward`` agrees with the per-node reference: to 1e-12 of the
    largest entry, and bit for bit on the watched positions in ``exact``."""
    got = grads_after(backward, build, leaves, rounds)
    want = grads_after(reference_backward, build, leaves, rounds)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        if k in exact:
            assert np.array_equal(g, w)
        else:
            assert_close(g, w, 1e-12)


def taped(fn):
    def build():
        with Tape() as tape:
            loss, watched = fn()
        return loss, tape, watched

    return build


def test_deferred_weight_over_many_steps():
    # one weight read at every step of a recurrence, as a decoder does
    rng = np.random.default_rng(1)
    w, u = leaf(rng, (3, 4)), leaf(rng, (4, 4))
    xs = [Tensor(rng.uniform(-1, 1, (1, 3))) for _ in range(7)]

    def fn():
        h = zeros((1, 4))
        total = None
        for x in xs:
            h = tanh(add(matmul(x, w), matmul(h, u)))
            ce = cross_entropy(h, 1)
            total = ce if total is None else add(total, ce)
        return total, [w, u]

    check_deferred(taped(fn), [w, u])


def test_deferred_non_leaf_right_operand():
    rng = np.random.default_rng(2)
    w = leaf(rng, (3, 3))
    xs = [Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(3)]

    def fn():
        tw = tanh(w)
        total = sum_all(matmul(xs[0], tw))
        for x in xs[1:]:
            total = add(total, sum_all(mul(matmul(x, tw), matmul(x, tw))))
        return total, [w]

    check_deferred(taped(fn), [w])


def test_deferred_tied_leaf_through_matmul_add_and_take_row():
    rng = np.random.default_rng(3)
    table, other = leaf(rng, (4, 4)), leaf(rng, (4, 4))
    x = Tensor(rng.uniform(-1, 1, (1, 4)))

    def fn():
        rows = take_row(table, np.array([1, 3, 1]))
        mixed = matmul(concat([x, rows], axis=0), table)
        total = add(sum_all(tanh(mixed)), sum_all(mul(add(table, other), other)))
        return add(total, sum_all(tanh(take_row(table, 2)))), [table, other]

    check_deferred(taped(fn), [table, other])


def test_deferred_leaf_used_twice_in_one_step():
    rng = np.random.default_rng(4)
    w, table = leaf(rng, (3, 3)), leaf(rng, (5, 3))
    x1, x2 = Tensor(rng.uniform(-1, 1, (1, 3))), Tensor(rng.uniform(-1, 1, (2, 3)))

    def fn():
        a = sum_all(tanh(matmul(x1, w)))
        b = sum_all(sigmoid(matmul(x2, w)))
        e = add(sum_all(tanh(take_row(table, 4))), sum_all(mul(take_row(table, 4), take_row(table, 0))))
        return add(add(a, b), e), [w, table]

    check_deferred(taped(fn), [w, table], exact=(1,))


def test_deferred_tensor_from_an_outer_tape():
    # a tensor recorded on an outer tape is a leaf of the inner one
    rng = np.random.default_rng(5)
    w = leaf(rng, (3, 3))
    xs = [Tensor(rng.uniform(-1, 1, (1, 3))) for _ in range(4)]

    def build():
        with Tape():
            tw = tanh(w)
            with Tape() as inner:
                total = sum_all(tanh(matmul(xs[0], tw)))
                for x in xs[1:]:
                    total = add(total, sum_all(tanh(matmul(x, tw))))
        return total, inner, [tw]

    check_deferred(build, [w])
    assert w.grad is None  # the outer tape was never replayed


def test_deferred_second_backward_adds_onto_existing_grad():
    rng = np.random.default_rng(6)
    w, table = leaf(rng, (3, 3)), leaf(rng, (4, 3))
    xs = [Tensor(rng.uniform(-1, 1, (1, 3))) for _ in range(3)]

    def fn():
        total = None
        for k, x in enumerate(xs):
            ce = cross_entropy(tanh(add(matmul(x, w), take_row(table, k))), k)
            total = ce if total is None else add(total, ce)
        return total, [w, table]

    check_deferred(taped(fn), [w, table], rounds=2)
    once = grads_after(backward, taped(fn), [w, table])
    twice = grads_after(backward, taped(fn), [w, table], rounds=2)
    for g1, g2 in zip(once, twice):
        assert_close(g2, 2 * g1, 1e-12)


def test_deferred_take_row_table_is_bit_identical():
    rng = np.random.default_rng(7)
    table = leaf(rng, (6, 3))
    ids = [int(i) for i in rng.integers(0, 6, 20)]
    weights = [Tensor(rng.uniform(-1, 1, (1, 3))) for _ in ids]

    def fn():
        total = None
        for i, wt in zip(ids, weights):
            term = sum_all(mul(tanh(take_row(table, i)), wt))
            total = term if total is None else add(total, term)
        return total, [table]

    check_deferred(taped(fn), [table], exact=(0,))


# --- replay: adopted and copied gradients, slice factors ---


def replay_leaves():
    rng = np.random.default_rng(8)
    return leaf(rng, (2, 3)), leaf(rng, (2, 3)), leaf(rng, (3,)), leaf(rng, (3, 1))


def graph_add_self(x, w, b, v):
    t = tanh(x)
    return add(sum_all(mul(tanh(add(t, t)), w)), sum_all(mul(add(x, x), w)))


def graph_mul_self(x, w, b, v):
    t = tanh(x)
    return add(sum_all(mul(mul(t, t), w)), sum_all(mul(x, x)))


def graph_concat_self(x, w, b, v):
    t = tanh(x)
    both = concat([t, t], axis=0)
    return add(sum_all(matmul(tanh(both), v)), sum_all(matmul(concat([x, x], axis=0), v)))


def graph_add_rowvector(x, w, b, v):
    t = tanh(x)
    return sum_all(mul(tanh(add_rowvector(t, b)), w))


def graph_fan_out(x, w, b, v):
    t = tanh(x)
    c = add(mul(t, w), sigmoid(t))
    return add(sum_all(mul(c, t)), add(sum_all(scale(t, 2.0)), sum_all(matmul(t, v))))


def graph_overlapping_slices(x, w, b, v):
    t = tanh(mul(x, w))
    cols = mul(slice_axis(t, 1, 0, 2), slice_axis(t, 1, 1, 3))
    rows = mul(slice_axis(t, 0, 0, 1), slice_axis(t, 0, 1, 2))
    return add(sum_all(tanh(cols)), add(sum_all(rows), sum_all(mul(t, w))))


def graph_produced_factors(x, w, b, v):
    # t is produced on the tape and is a take_row table, a matmul right
    # operand, sliced and a matmul left operand: every factored kind waits
    # for t's node beside a direct gradient
    t = tanh(mul(x, w))
    rows = take_row(t, np.array([1, 0, 1]))
    mixed = sum_all(tanh(matmul(slice_axis(rows, 1, 0, 2), t)))
    picked = sum_all(mul(slice_axis(t, 0, 1, 2), tanh(take_row(t, 1))))
    return add(mixed, add(picked, sum_all(matmul(t, v))))


def graph_leaf_slices(x, w, b, v):
    # w is a leaf: its slices take the deferred path, its mul the direct one
    left, right = slice_axis(w, 1, 0, 2), slice_axis(w, 1, 1, 3)
    top = slice_axis(w, 0, 1, 2)
    total = add(sum_all(mul(left, right)), sum_all(mul(top, tanh(top))))
    return add(total, sum_all(mul(tanh(x), w)))


REPLAY_GRAPHS = [
    graph_add_self, graph_mul_self, graph_concat_self, graph_add_rowvector,
    graph_fan_out, graph_overlapping_slices, graph_leaf_slices, graph_produced_factors,
]


@pytest.mark.parametrize("graph", REPLAY_GRAPHS, ids=lambda g: g.__name__)
def test_replay_matches_per_node_reference(graph):
    leaves = replay_leaves()

    def build():
        with Tape() as tape:
            loss = graph(*leaves)
        used = {id(t) for inputs, _, _ in tape.nodes for t in inputs}
        return loss, tape, [p for p in leaves if id(p) in used]

    check_deferred(build, leaves)


@pytest.mark.parametrize("graph", REPLAY_GRAPHS, ids=lambda g: g.__name__)
def test_replay_matches_finite_differences(graph):
    leaves = replay_leaves()
    finite_diff_check(lambda: graph(*leaves), leaves, tol=1e-5)


@pytest.mark.parametrize("graph", REPLAY_GRAPHS, ids=lambda g: g.__name__)
def test_replay_gives_every_tensor_its_own_gradient_array(graph):
    leaves = replay_leaves()
    with Tape() as tape:
        loss = graph(*leaves)
    backward(loss, tape)
    held = assert_leaves_alone_hold_gradients(tape)
    used = {id(t) for inputs, _, _ in tape.nodes for t in inputs}
    assert {id(t) for t in held} == {id(p) for p in leaves if id(p) in used}


def test_matmul_gives_no_gradient_to_a_constant_left_operand():
    rng = np.random.default_rng(9)
    const, w = Tensor(rng.uniform(-1, 1, (1, 3))), leaf(rng, (3, 2))
    with Tape() as tape:
        matmul(const, w)
    (_, _, rule), = tape.nodes
    left, right = rule(np.ones((1, 2)))
    assert left is None
    assert np.array_equal(right.a.T @ right.g, const.data.T @ np.ones((1, 2)))
