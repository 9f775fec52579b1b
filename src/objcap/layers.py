"""Parameterized building blocks: embeddings, dense projection, LSTMs.

Layers operate on a batch of B rows (shape B*d), each row one independent
example. Training unrolls one caption at a time: a sequence is one row per
step, given as a list of T 1*d rows or as their (T, d) stack, and an unroll
projects the whole sequence by W in one product before its first step.
Decoding steps plain arrays through ``lstm_step_array``, one row per image
for batched greedy decoding, and for beam search one row per live
hypothesis plus one for its greedy fallback.
Parameters live in small dataclasses so models can collect them under
stable names for checkpointing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    add,
    add_rowvector,
    concat,
    glorot_uniform,
    matmul,
    mul,
    sigmoid,
    slice_axis,
    stable_sigmoid,
    take_row,
    tanh,
    zeros,
)


@dataclass
class DenseParams:
    weight: Tensor  # (in_dim, out_dim)
    bias: Tensor  # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]


def dense_init(in_dim: int, out_dim: int, rng: np.random.Generator) -> DenseParams:
    return DenseParams(
        weight=glorot_uniform((in_dim, out_dim), rng),
        bias=zeros((out_dim,), requires_grad=True),
    )


def dense(p: DenseParams, x: Tensor) -> Tensor:
    """Affine map x @ W + b. No activation; callers add their own."""
    return add_rowvector(matmul(x, p.weight), p.bias)


# The vocabulary head is the same affine map, kept as its own name because
# its output is logits consumed by softmax/cross-entropy.
vocab_head = dense


@dataclass
class LstmParams:
    """Weights for one LSTM direction.

    The 4h gate axis is laid out in fixed blocks (i, f, g, o):
    input gate, forget gate, cell candidate, output gate.
    """

    W: Tensor  # (input_dim, 4h)
    U: Tensor  # (h, 4h)
    b: Tensor  # (4h,)
    hidden_size: int


def lstm_init(input_dim: int, hidden_size: int, rng: np.random.Generator) -> LstmParams:
    h = hidden_size
    b = np.zeros(4 * h, dtype=np.float64)
    b[h : 2 * h] = 1.0  # forget-gate bias starts open
    return LstmParams(
        W=glorot_uniform((input_dim, 4 * h), rng),
        U=glorot_uniform((h, 4 * h), rng),
        b=Tensor(b, requires_grad=True),
        hidden_size=h,
    )


def lstm_step(p: LstmParams, x: Tensor, h: Tensor, c: Tensor, projected: bool = False) -> tuple[Tensor, Tensor]:
    """One step of the standard forget-gate LSTM on B rows: x is B*input_dim,
    h and c are B*hidden. Returns (h', c').

    With ``projected`` x is already the input projection x @ W (B*4h), as
    ``lstm_unroll`` hands each step its row of the sequence's one product;
    otherwise the step forms that product first. One ``sigmoid`` covers the
    whole (B, 4h) preactivation and the i, f and o gates are sliced from it;
    ``tanh`` runs on the g slice alone. The values and gradients are
    bit-identical to a sigmoid per gate slice, and a step records 15 tape
    nodes, or 14 given the projection."""
    n = p.hidden_size
    xs, hs, cs = x.data.shape, h.data.shape, c.data.shape
    rows = xs[0] if xs else -1
    width = 4 * n if projected else p.W.data.shape[0]
    if xs != (rows, width) or hs != (rows, n) or cs != (rows, n):
        raise ValueError(
            f"lstm_step: got {'x @ W' if projected else 'x'} {x.shape}, h {h.shape}, c {c.shape} "
            f"for input_dim {p.W.shape[0]}, hidden {n}"
        )
    xw = x if projected else matmul(x, p.W)
    z = add_rowvector(add(xw, matmul(h, p.U)), p.b)
    gates = sigmoid(z)
    i = slice_axis(gates, 1, 0, n)
    f = slice_axis(gates, 1, n, 2 * n)
    o = slice_axis(gates, 1, 3 * n, 4 * n)
    g = tanh(slice_axis(z, 1, 2 * n, 3 * n))
    c2 = add(mul(f, c), mul(i, g))
    h2 = mul(o, tanh(c2))
    return h2, c2


def lstm_step_array(p: LstmParams, xw: np.ndarray, h: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lstm_step`` on plain arrays, with no tape, given the input projection
    ``xw`` = x @ W (B*4h) instead of x. Returns (h', c'), with the bits
    ``lstm_step`` gives for the same projection: decoding steps both LSTMs
    through it."""
    n = p.hidden_size
    z = xw + h @ p.U.data
    z += p.b.data
    gates = stable_sigmoid(z)
    c2 = gates[:, n : 2 * n] * c + gates[:, :n] * np.tanh(z[:, 2 * n : 3 * n])
    return gates[:, 3 * n :] * np.tanh(c2), c2


def _stacked(inputs: list[Tensor] | Tensor) -> Tensor:
    """A sequence of one-row steps as its (T, d) stack: a list of T 1*d rows
    is concatenated, and a stack is passed on as it is."""
    if isinstance(inputs, Tensor):
        if inputs.data.ndim == 2 and inputs.data.shape[0] > 0:
            return inputs
    elif inputs and all(t.data.ndim == 2 and t.data.shape[0] == 1 for t in inputs):
        return concat(inputs, axis=0)
    shapes = inputs.shape if isinstance(inputs, Tensor) else [t.shape for t in inputs]
    raise ValueError(f"lstm_unroll: need one or more 1*d rows or their (T, d) stack, got {shapes}")


def lstm_unroll(p: LstmParams, inputs: list[Tensor] | Tensor, reverse: bool = False) -> list[Tensor]:
    """Unroll from a zero state over a sequence of one-row steps (a list of T
    1*input_dim rows, or their (T, input_dim) stack); returns the hidden
    state at every step, in input order. ``reverse`` steps from the last
    input to the first.

    The whole sequence is projected once, x @ W as one (T, 4h) product, and
    each ``lstm_step`` takes its row of that product as a view and adds only
    h @ U. A row of that product can differ from a one-row product by ~1e-16
    relative, so over two or more steps the states and gradients match a
    loop of raw-x steps to ~1e-15, not to the bit; one step keeps its bits."""
    xw = matmul(_stacked(inputs), p.W)
    steps = xw.shape[0]
    h = c = zeros((1, p.hidden_size))
    states: list[Tensor] = [h] * steps
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        h, c = lstm_step(p, slice_axis(xw, 0, t, t + 1), h, c, projected=True)
        states[t] = h
    return states


def bilstm(p_fwd: LstmParams, p_bwd: LstmParams, inputs: list[Tensor] | Tensor) -> list[Tensor]:
    """Bidirectional unroll; output[t] = concat(fwd[t], bwd[t]), aligned.

    Both directions project the same stacked inputs; the backward one steps
    them from last to first, so both halves at position t describe the same
    input position.
    """
    x = _stacked(inputs)
    fwd = lstm_unroll(p_fwd, x)
    bwd = lstm_unroll(p_bwd, x, reverse=True)
    return [concat([f, b], axis=1) for f, b in zip(fwd, bwd)]


@dataclass
class EmbeddingTable:
    table: Tensor  # (vocab_size, embed_dim)


def embedding_init(vocab_size: int, embed_dim: int, rng: np.random.Generator) -> EmbeddingTable:
    return EmbeddingTable(table=glorot_uniform((vocab_size, embed_dim), rng))


def embed(table: EmbeddingTable, index) -> Tensor:
    """Look up one token id as a 1*d row, or a 1-D array of B ids as B*d rows.

    The lookup joins the autodiff graph iff the table requires a gradient.
    """
    return take_row(table.table, index)
