import math
from collections import Counter

import numpy as np
import pytest

from objcap.layers import (
    DenseParams,
    EmbeddingTable,
    LstmParams,
    bilstm,
    dense,
    dense_init,
    embed,
    embedding_init,
    lstm_init,
    lstm_step,
    lstm_step_array,
    lstm_unroll,
    vocab_head,
)
from objcap.tensor import (
    Tape,
    Tensor,
    add,
    add_rowvector,
    backward,
    cross_entropy,
    matmul,
    mul,
    sigmoid,
    slice_axis,
    softmax,
    sum_all,
    tanh,
    zeros,
)
from gradcheck import assert_close, finite_diff_check


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_row(n, seed=0):
    return Tensor(rng(seed).uniform(-1, 1, (1, n)))


# --- dense ---


def test_dense_identity_map():
    p = DenseParams(weight=Tensor(np.eye(3)), bias=zeros((3,)))
    x = rand_row(3, 1)
    assert np.array_equal(dense(p, x).data, x.data)


def test_dense_reduction_shape():
    p = dense_init(4096, 128, rng(2))
    out = dense(p, zeros((1, 4096)))
    assert out.shape == (1, 128)


def test_dense_affine_constant():
    p = DenseParams(weight=zeros((4, 2)), bias=Tensor([1.0, 1.0]))
    out = dense(p, rand_row(4, 3))
    assert np.array_equal(out.data, [[1.0, 1.0]])


def test_dense_shape_mismatch():
    p = dense_init(4, 2, rng(0))
    with pytest.raises(ValueError):
        dense(p, zeros((1, 5)))


def test_dense_gradients():
    p = dense_init(3, 2, rng(4))
    x = rand_row(3, 5)
    finite_diff_check(lambda: cross_entropy(dense(p, x), 1), [p.weight, p.bias])


# --- lstm ---


def test_lstm_zero_fixed_point():
    p = lstm_init(4, 3, rng(6))
    p.W.data[:] = 0.0
    p.U.data[:] = 0.0
    p.b.data[:] = 0.0  # including the forget-bias override
    h, c = lstm_step(p, rand_row(4, 7), zeros((1, 3)), zeros((1, 3)))
    assert np.all(h.data == 0.0)
    assert np.all(c.data == 0.0)


def test_lstm_hidden_range():
    p = lstm_init(5, 4, rng(8))
    h, c = zeros((1, 4)), zeros((1, 4))
    for step in range(20):
        h, c = lstm_step(p, rand_row(5, 100 + step), h, c)
        assert np.all(h.data > -1.0) and np.all(h.data < 1.0)


def test_lstm_single_unit_hand_evaluation():
    p = LstmParams(
        W=Tensor([[0.3, -0.2, 0.5, 0.4]]),
        U=Tensor([[0.1, 0.2, -0.3, 0.6]]),
        b=Tensor([0.05, 1.0, -0.1, 0.2]),
        hidden_size=1,
    )
    h, c = lstm_step(p, Tensor([[0.7]]), Tensor([[0.4]]), Tensor([[-0.3]]))

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    # gate pre-activations worked out by hand from x*W + h*U + b
    i = sig(0.7 * 0.3 + 0.4 * 0.1 + 0.05)
    f = sig(0.7 * -0.2 + 0.4 * 0.2 + 1.0)
    g = math.tanh(0.7 * 0.5 + 0.4 * -0.3 - 0.1)
    o = sig(0.7 * 0.4 + 0.4 * 0.6 + 0.2)
    c_exp = f * -0.3 + i * g
    h_exp = o * math.tanh(c_exp)
    assert math.isclose(c.item(), c_exp, rel_tol=1e-12)
    assert math.isclose(h.item(), h_exp, rel_tol=1e-12)


def test_lstm_shape_mismatch():
    p = lstm_init(4, 3, rng(9))
    with pytest.raises(ValueError):
        lstm_step(p, zeros((1, 5)), zeros((1, 3)), zeros((1, 3)))


def test_lstm_step_batched_rows_match_single_rows():
    p = lstm_init(5, 4, rng(60))
    x = Tensor(rng(61).uniform(-1, 1, (6, 5)))
    h = Tensor(rng(62).uniform(-1, 1, (6, 4)))
    c = Tensor(rng(63).uniform(-1, 1, (6, 4)))
    hb, cb = lstm_step(p, x, h, c)
    assert hb.shape == cb.shape == (6, 4)
    for r in range(6):
        row = slice(r, r + 1)
        hr, cr = lstm_step(p, Tensor(x.data[row]), Tensor(h.data[row]), Tensor(c.data[row]))
        assert np.allclose(hb.data[row], hr.data, rtol=0.0, atol=1e-12)
        assert np.allclose(cb.data[row], cr.data, rtol=0.0, atol=1e-12)


def test_lstm_step_rejects_mismatched_rows():
    p = lstm_init(5, 3, rng(64))
    with pytest.raises(ValueError):
        lstm_step(p, zeros((2, 5)), zeros((1, 3)), zeros((2, 3)))
    with pytest.raises(ValueError):
        lstm_step(p, zeros((2, 5)), zeros((2, 3)), zeros((3, 3)))


def test_lstm_step_gradients():
    p = lstm_init(3, 2, rng(10))
    x = rand_row(3, 11)
    h0, c0 = zeros((1, 2)), zeros((1, 2))

    def build():
        h, c = lstm_step(p, x, h0, c0)
        h, c = lstm_step(p, x, h, c)  # two steps so U matters
        return cross_entropy(h, 0)

    finite_diff_check(build, [p.W, p.U, p.b])


def per_gate_lstm_step(p, x, h, c):
    """The LSTM step with one sigmoid per gate slice: the reference for
    lstm_step's single sigmoid over the whole preactivation."""
    n = p.hidden_size
    z = add_rowvector(add(matmul(x, p.W), matmul(h, p.U)), p.b)
    i = sigmoid(slice_axis(z, 1, 0, n))
    f = sigmoid(slice_axis(z, 1, n, 2 * n))
    g = tanh(slice_axis(z, 1, 2 * n, 3 * n))
    o = sigmoid(slice_axis(z, 1, 3 * n, 4 * n))
    c2 = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c2)), c2


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("hidden", [7, 32])
def test_lstm_step_matches_per_gate_reference_bitwise(rows, hidden):
    p = lstm_init(5, hidden, rng(70))
    r = rng(71)
    x, h, c = (Tensor(r.uniform(-2, 2, (rows, d)), requires_grad=True) for d in (5, hidden, hidden))
    wh, wc = (Tensor(r.uniform(-1, 1, (rows, hidden))) for _ in range(2))
    leaves = [p.W, p.U, p.b, x, h, c]
    results = []
    for step in (lstm_step, per_gate_lstm_step):
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            h2, c2 = step(p, x, h, c)
            loss = add(sum_all(mul(h2, wh)), sum_all(mul(c2, wc)))
        backward(loss, tape)
        results.append([h2.data, c2.data] + [t.grad.copy() for t in leaves])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_lstm_step_graph_shape():
    # graph guard: a change to the nodes one step records must be deliberate
    p = lstm_init(5, 4, rng(72))
    with Tape() as tape:
        lstm_step(p, rand_row(5, 73), zeros((1, 4)), zeros((1, 4)))
    ops = Counter(rule.__qualname__.split(".")[0] for _, _, rule in tape.nodes)
    assert ops == {
        "matmul": 2, "add": 2, "add_rowvector": 1, "sigmoid": 1, "tanh": 2, "slice_axis": 4, "mul": 3,
    }
    assert len(tape) == 15
    # given its row of the input projection, a step reads U alone and skips x @ W
    with Tape() as tape:
        lstm_step(p, rand_row(16, 74), zeros((1, 4)), zeros((1, 4)), projected=True)
    ops = Counter(rule.__qualname__.split(".")[0] for _, _, rule in tape.nodes)
    assert ops == {
        "matmul": 1, "add": 2, "add_rowvector": 1, "sigmoid": 1, "tanh": 2, "slice_axis": 4, "mul": 3,
    }
    assert len(tape) == 14
    assert [inputs[1] for inputs, _, rule in tape.nodes if rule.__qualname__.startswith("matmul")] == [p.U]


def test_projected_step_rejects_a_raw_input_row():
    p = lstm_init(5, 4, rng(76))
    with pytest.raises(ValueError, match="x @ W"):
        lstm_step(p, zeros((1, 5)), zeros((1, 4)), zeros((1, 4)), projected=True)


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize(
    "input_dim, hidden",
    [(256, 256), (128 + 256, 1000), (178 + 256, 256)],
    ids=["language", "m1-decoder", "m3-decoder"],
)
def test_plain_array_step_matches_lstm_step_bitwise(rows, input_dim, hidden):
    # the paper dims of the language LSTM and of the m1 and m3 decoders: the
    # step decoding runs gives the tape step's h' and c' for the same x @ W
    p = lstm_init(input_dim, hidden, rng(74))
    r = rng(75)
    x, h, c = (r.uniform(-2, 2, (rows, d)) for d in (input_dim, hidden, hidden))
    h2, c2 = lstm_step(p, Tensor(x), Tensor(h), Tensor(c))
    got_h, got_c = lstm_step_array(p, x @ p.W.data, h, c)
    assert np.array_equal(got_h, h2.data) and np.array_equal(got_c, c2.data)


def per_step_unroll(p, xs, reverse=False):
    """The unroll as a loop of raw-x steps, each forming its own x @ W: the
    reference for lstm_unroll's one projection of the whole sequence."""
    h = c = zeros((1, p.hidden_size))
    states = [None] * len(xs)
    for t in reversed(range(len(xs))) if reverse else range(len(xs)):
        h, c = lstm_step(p, xs[t], h, c)
        states[t] = h
    return states


def unroll_states_and_gradients(unroll, p, xs, reverse):
    """The states of ``unroll`` over xs and the gradients of W, U, b and
    every input row under a fixed weighted sum of those states."""
    leaves = [p.W, p.U, p.b] + xs
    for t in leaves:
        t.grad = None
    weights = [Tensor(rng(200 + t).uniform(-1, 1, (1, p.hidden_size))) for t in range(len(xs))]
    with Tape() as tape:
        states = unroll(p, xs, reverse=reverse)
        loss = sum_all(mul(states[0], weights[0]))
        for h, w in zip(states[1:], weights[1:]):
            loss = add(loss, sum_all(mul(h, w)))
    backward(loss, tape)
    return [h.data for h in states], [t.grad.copy() for t in leaves]


def test_unroll_single_step_equivalence():
    # one step: the projection of the one-row stack is the step's own x @ W,
    # so states and gradients keep their bits, in either direction
    p = lstm_init(3, 2, rng(12))
    x = Tensor(rand_row(3, 13).data, requires_grad=True)
    for reverse in (False, True):
        got = unroll_states_and_gradients(lstm_unroll, p, [x], reverse)
        want = unroll_states_and_gradients(per_step_unroll, p, [x], reverse)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("steps", [2, 7])
@pytest.mark.parametrize("input_dim, hidden", [(3, 2), (40, 24)])
def test_unroll_matches_per_step_loop(input_dim, hidden, steps, reverse):
    # the sequence's one (T, 4h) projection against a raw-x step per row
    p = lstm_init(input_dim, hidden, rng(77))
    xs = [Tensor(rng(300 + t).uniform(-2, 2, (1, input_dim)), requires_grad=True) for t in range(steps)]
    got_states, got_grads = unroll_states_and_gradients(lstm_unroll, p, xs, reverse)
    want_states, want_grads = unroll_states_and_gradients(per_step_unroll, p, xs, reverse)
    for got, want in zip(got_states + got_grads, want_states + want_grads):
        assert_close(got, want, 1e-12)
    # a stacked (T, d) sequence is the same sequence as its list of rows
    stacked = lstm_unroll(p, Tensor(np.concatenate([x.data for x in xs])), reverse=reverse)
    assert all(np.array_equal(a.data, b) for a, b in zip(stacked, got_states))


def test_unroll_rejects_steps_of_several_rows():
    p = lstm_init(3, 2, rng(79))
    with pytest.raises(ValueError, match="1\\*d rows"):
        lstm_unroll(p, [zeros((2, 3)), zeros((2, 3))])


def test_unroll_length_and_zero_params():
    p = lstm_init(3, 2, rng(14))
    xs = [rand_row(3, s) for s in range(5)]
    assert len(lstm_unroll(p, xs)) == 5
    p.W.data[:] = 0.0
    p.U.data[:] = 0.0
    p.b.data[:] = 0.0
    for h in lstm_unroll(p, xs):
        assert np.all(h.data == 0.0)


def test_unroll_empty_sequence():
    p = lstm_init(3, 2, rng(15))
    with pytest.raises(ValueError):
        lstm_unroll(p, [])
    with pytest.raises(ValueError):
        lstm_unroll(p, zeros((0, 3)))


# --- bilstm ---


def test_bilstm_output_width():
    pf = lstm_init(8, 256, rng(16))
    pb = lstm_init(8, 256, rng(17))
    out = bilstm(pf, pb, [rand_row(8, 18), rand_row(8, 19)])
    assert all(o.shape == (1, 512) for o in out)


def test_bilstm_forward_half_alignment():
    pf = lstm_init(4, 3, rng(20))
    pb = lstm_init(4, 3, rng(21))
    xs = [rand_row(4, s) for s in range(30, 34)]
    out = bilstm(pf, pb, xs)
    fwd = lstm_unroll(pf, xs)
    for t in range(4):
        assert np.array_equal(out[t].data[:, :3], fwd[t].data)


def test_bilstm_reversal_swaps_halves():
    pf = lstm_init(4, 3, rng(22))
    pb = lstm_init(4, 3, rng(23))
    xs = [rand_row(4, s) for s in range(40, 45)]
    fwd_on_x = bilstm(pf, pb, xs)
    swapped_on_rev = bilstm(pb, pf, xs[::-1])
    for t in range(5):
        assert np.allclose(fwd_on_x[t].data[:, :3], swapped_on_rev[4 - t].data[:, 3:], atol=0)


def test_bilstm_palindrome_mirror():
    p = lstm_init(4, 3, rng(24))
    a, b = rand_row(4, 50), rand_row(4, 51)
    out = bilstm(p, p, [a, b, a])
    for t in range(3):
        assert np.array_equal(out[t].data[:, :3], out[2 - t].data[:, 3:])


def test_bilstm_gradients():
    pf = lstm_init(2, 2, rng(25))
    pb = lstm_init(2, 2, rng(26))
    xs = [rand_row(2, s) for s in (60, 61)]

    def build():
        out = bilstm(pf, pb, xs)
        return cross_entropy(out[-1], 1)

    finite_diff_check(build, [pf.W, pf.U, pf.b, pb.W, pb.U, pb.b])


# --- embedding ---


def test_embed_identity_table():
    table = EmbeddingTable(Tensor(np.eye(3), requires_grad=False))
    assert np.array_equal(embed(table, 1).data, [[0.0, 1.0, 0.0]])


def test_embed_batched_ids_give_stacked_rows():
    table = embedding_init(5, 4, rng(26))
    ids = np.array([4, 0, 4])
    out = embed(table, ids)
    assert out.shape == (3, 4)
    for r, i in enumerate(ids):
        assert np.array_equal(out.data[r : r + 1], embed(table, int(i)).data)


def test_embed_deterministic():
    table = embedding_init(5, 4, rng(27))
    assert np.array_equal(embed(table, 3).data, embed(table, 3).data)


def test_embed_out_of_range():
    table = embedding_init(5, 4, rng(28))
    with pytest.raises(ValueError):
        embed(table, 5)
    with pytest.raises(ValueError):
        embed(table, -1)


def test_embed_gradient_only_touched_row():
    table = embedding_init(5, 3, rng(29))
    finite_diff_check(lambda: cross_entropy(embed(table, 2), 0), [table.table])
    table.table.grad = None
    with Tape() as tape:
        loss = cross_entropy(embed(table, 2), 0)
    backward(loss, tape)
    g = table.table.grad
    assert np.any(g[2] != 0.0)
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert np.all(g[mask] == 0.0)


def test_frozen_embedding_gets_no_gradient():
    table = EmbeddingTable(Tensor(rng(30).uniform(-1, 1, (4, 3)), requires_grad=False))
    w = dense_init(3, 2, rng(31))
    with Tape() as tape:
        loss = cross_entropy(dense(w, embed(table, 1)), 0)
    backward(loss, tape)
    assert table.table.grad is None
    assert w.weight.grad is not None


# --- vocab head ---


def test_vocab_head_uniform_when_zero():
    p = DenseParams(weight=zeros((4, 7)), bias=zeros((7,)))
    logits = vocab_head(p, rand_row(4, 32))
    assert logits.shape == (1, 7)
    probs = softmax(logits)
    assert np.allclose(probs.data, 1.0 / 7.0)


def test_vocab_head_shift_invariant_argmax():
    p = dense_init(4, 6, rng(33))
    x = rand_row(4, 34)
    logits = vocab_head(p, x)
    shifted = logits.data + 3.5
    assert np.argmax(softmax(logits).data) == np.argmax(shifted)
