"""Parameterized building blocks: embeddings, dense projection, LSTMs.

Layers operate on a batch of B rows (shape B*d), each row one independent
example: training feeds single rows (B = 1). Decoding steps plain arrays
through ``lstm_step_array``, one row per image for batched greedy decoding,
and for beam search one row per live hypothesis plus one for its greedy
fallback. Sequences are plain Python lists of such row blocks.
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


def lstm_step(p: LstmParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One step of the standard forget-gate LSTM on B rows: x is B*input_dim,
    h and c are B*hidden. Returns (h', c').

    One ``sigmoid`` covers the whole (B, 4h) preactivation and the i, f and o
    gates are sliced from it; ``tanh`` runs on the g slice alone. The values
    and gradients are bit-identical to a sigmoid per gate slice, and a step
    records 15 tape nodes."""
    n = p.hidden_size
    xs, hs, cs = x.data.shape, h.data.shape, c.data.shape
    rows = xs[0] if xs else -1
    if xs != (rows, p.W.data.shape[0]) or hs != (rows, n) or cs != (rows, n):
        raise ValueError(
            f"lstm_step: got x {x.shape}, h {h.shape}, c {c.shape} "
            f"for input_dim {p.W.shape[0]}, hidden {n}"
        )
    z = add_rowvector(add(matmul(x, p.W), matmul(h, p.U)), p.b)
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


def lstm_unroll(p: LstmParams, inputs: list[Tensor]) -> list[Tensor]:
    """Left-to-right unroll from a zero state; returns the hidden state at every step."""
    if not inputs:
        raise ValueError("lstm_unroll: empty input sequence")
    h = c = zeros((inputs[0].shape[0], p.hidden_size))
    states = []
    for x in inputs:
        h, c = lstm_step(p, x, h, c)
        states.append(h)
    return states


def bilstm(p_fwd: LstmParams, p_bwd: LstmParams, inputs: list[Tensor]) -> list[Tensor]:
    """Bidirectional unroll; output[t] = concat(fwd[t], bwd[t]), aligned.

    The backward stream runs over the reversed inputs and is re-reversed so
    both halves at position t describe the same input position.
    """
    fwd = lstm_unroll(p_fwd, inputs)
    bwd = lstm_unroll(p_bwd, inputs[::-1])[::-1]
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
