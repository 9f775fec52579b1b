"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Values are plain numpy arrays. Every differentiable op computes its result
eagerly and, when a Tape is active and some operand requires a gradient,
records a node holding the local backward rule. ``backward`` replays the
tape in reverse, accumulating gradients additively across fan-out.

Every gradient array has one owner. A rule returns, per input, an array, a
factor or None; an array becomes its receiver's gradient as it is, or is
added into the one it has. ``add`` is the only rule that hands one array to
two inputs, so it hands the second a copy; ``concat`` hands out disjoint
views of its output's gradient, which that output no longer holds. A
tensor produced on the tape loses its gradient as soon as its node has
run, so after ``backward`` only leaves (tensors not produced on the tape
being replayed, such as model parameters) hold one.

The right operand of ``matmul``, the table of ``take_row`` and the input of
``slice_axis`` receive their gradients as factors, which wait for their
tensor in one dict and are summed once, one dense sum per kind: just before
the tensor's own node is replayed, or after the replay for a leaf. A weight
used at every step of a sequence gets one ``concat(a).T @ concat(g)``
product, a table one scatter-add into one zeros array, and a sliced tensor
its pieces added into one zeros array, so the T row slices of a ``(T, V)``
matrix cost T·V, not T²·V.

The tape alone holds a graph and no tensor refers back to it, so a replayed
tape is freed by reference counting with its last name, outputs alive or not.

There is deliberately no broadcasting: binary ops demand equal shapes, and
the single exception (adding a bias row to every row of a matrix) has its
own op, ``add_rowvector``. Shape mistakes fail loudly at the call site.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "add",
    "add_rowvector",
    "backward",
    "concat",
    "cross_entropy",
    "matmul",
    "mul",
    "scale",
    "glorot_uniform",
    "log_softmax",
    "sigmoid",
    "slice_axis",
    "softmax",
    "stable_sigmoid",
    "sum_all",
    "take_row",
    "tanh",
    "zeros",
]


class Tensor:
    """A dense float64 array with an optional accumulated gradient.

    ``data`` is always C-contiguous float64. ``grad`` is either None or an
    array of identical shape that no other tensor's gradient shares, filled
    in by ``backward`` on a leaf; a tensor produced on the replayed tape
    holds it only until its own node has run.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite (no NaN/Inf)")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Internal fast path for op outputs; skips the finiteness scan.
        out = cls.__new__(cls)
        out.data = arr
        out.grad = None
        out.requires_grad = requires_grad
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops, replayed backwards for gradients.

    Node order is execution order, which is a topological order by
    construction: an op can only consume tensors that already exist.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self.nodes: list[tuple[tuple[Tensor, ...], Tensor, object]] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = Tape._stack.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self.nodes)


def _record(inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op result, recording it on the active tape when needed.

    ``backward_fn(out_grad)`` must return one gradient per input, in order:
    an array, a factor (``_Outer``/``_Rows``/``_Slice``) or None.
    """
    # built in place: this runs once per op, so it skips Tensor.__init__'s checks
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = False
    if Tape._stack:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                Tape._stack[-1].nodes.append((inputs, out, backward_fn))
                break
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; the first ``g`` becomes the gradient as it
    is. ``g`` must be owned by no other tensor: every rule hands each array
    it returns to one input."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


class _Outer(NamedTuple):
    """The gradient ``a.T @ g`` of a matmul's right operand, as its factors."""

    a: np.ndarray
    g: np.ndarray

    @staticmethod
    def dense(parts: list["_Outer"], shape) -> np.ndarray:
        # one GEMM over every use: the row blocks of a and g stacked in order
        return np.concatenate([p.a for p in parts]).T @ np.concatenate([p.g for p in parts])


class _Rows(NamedTuple):
    """The gradient of a take_row table: row k of ``g`` adds into row ``ids[k]``."""

    ids: list[int]
    g: np.ndarray

    @staticmethod
    def dense(parts: list["_Rows"], shape) -> np.ndarray:
        full = np.zeros(shape, dtype=np.float64)
        np.add.at(full, [i for p in parts for i in p.ids], np.concatenate([p.g for p in parts]))
        return full


class _Slice(NamedTuple):
    """The gradient of a slice_axis input: ``g`` adds into the positions ``idx``."""

    idx: tuple
    g: np.ndarray

    @staticmethod
    def dense(parts: list["_Slice"], shape) -> np.ndarray:
        full = np.zeros(shape, dtype=np.float64)
        for p in parts:
            full[p.idx] += p.g
        return full


def backward(loss: Tensor, tape: Tape) -> None:
    """Fill ``grad`` on every requires_grad leaf reachable from ``loss``.

    A leaf's gradient lives on it until the caller sets ``grad`` to None:
    gradients accumulate additively across fan-out and across calls, so
    callers clear stale grads before reusing parameters on a fresh tape.
    A tensor produced on ``tape`` holds its gradient only until its node has
    run, then ``grad`` is None again. Factored gradients (matmul, take_row
    and slice_axis uses) wait in one dict and are summed per kind, in replay
    order, before their tensor's node runs or, for a leaf, after the replay.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not any(out is loss for _, out, _ in reversed(tape.nodes)):
        raise ValueError("loss was not produced on this tape")
    loss.grad = np.ones_like(loss.data)
    factored: dict[Tensor, dict[type, list]] = {}
    for inputs, out, backward_fn in reversed(tape.nodes):
        for parts in factored.pop(out, {}).values():  # its factored gradients, now complete
            _accumulate(out, parts[0].dense(parts, out.data.shape))
        out_grad, out.grad = out.grad, None
        if out_grad is None:
            continue
        for inp, g in zip(inputs, backward_fn(out_grad)):
            if g is None or not inp.requires_grad:
                continue
            if isinstance(g, tuple):
                factored.setdefault(inp, {}).setdefault(type(g), []).append(g)
            else:
                _accumulate(inp, g)
    for t, kinds in factored.items():  # the leaves'
        for parts in kinds.values():
            _accumulate(t, parts[0].dense(parts, t.data.shape))


# ---------------------------------------------------------------------------
# construction


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=np.float64), requires_grad)


def glorot_uniform(shape, rng: np.random.Generator) -> Tensor:
    """A trainable Uniform(-b, b) tensor with b = sqrt(6 / (fan_in + fan_out))."""
    dims = tuple(int(d) for d in shape)
    if len(dims) == 2:
        fan_in, fan_out = dims
    else:
        fan_in = fan_out = int(np.prod(dims))
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-bound, bound, size=dims)
    return Tensor._wrap(np.ascontiguousarray(data), True)


# ---------------------------------------------------------------------------
# ops


def _check_same_shape(opname: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{opname}: shape mismatch {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g: np.ndarray):
        # a left operand without a gradient (a constant feature row, a zero
        # initial state) is skipped by backward: do not compute one for it
        return (g @ b_data.T if a.requires_grad else None), _Outer(a_data, g)

    return _record((a, b), a_data @ b_data, bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def bw(g: np.ndarray):
        # each input owns its gradient: the second gets a copy
        return g, g.copy()

    return _record((a, b), a.data + b.data, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    a_data, b_data = a.data, b.data

    def bw(g: np.ndarray):
        return g * b_data, g * a_data

    return _record((a, b), a_data * b_data, bw)


def add_rowvector(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-n bias vector to every row of an m*n matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"add_rowvector: need (m,n) and (n,), got {x.shape} and {b.shape}")

    def bw(g: np.ndarray):
        return g, g.sum(axis=0)

    return _record((x, b), x.data + b.data, bw)


def stable_sigmoid(d: np.ndarray) -> np.ndarray:
    """The logistic function of an array, as a new array, without a tape."""
    # Split by sign so exp never overflows: with e = exp(-|d|), 1/(1+e) for
    # d >= 0 (where e <= 1, so max(e, 1) = 1) and e/(1+e) below.
    e = np.abs(d, out=np.empty_like(d))  # an array even for a 0-d d
    np.exp(np.negative(e, out=e), out=e)
    s = np.maximum(e, d >= 0)
    s /= 1.0 + e
    return s


def sigmoid(x: Tensor) -> Tensor:
    s = stable_sigmoid(x.data)

    def bw(g: np.ndarray):
        return (g * s * (1.0 - s),)

    return _record((x,), s, bw)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def bw(g: np.ndarray):
        return (g * (1.0 - t * t),)

    return _record((x,), t, bw)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g: np.ndarray):
        return (g * c,)

    return _record((x,), x.data * c, bw)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def bw(g: np.ndarray):
        return (np.full(shape, float(g), dtype=np.float64),)

    return _record((x,), np.asarray(x.data.sum()), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty tensor list")
    first = tensors[0].data.shape
    for t in tensors[1:]:
        shape = t.data.shape
        if len(shape) != len(first) or any(
            i != axis and shape[i] != first[i] for i in range(len(first))
        ):
            raise ValueError(
                f"concat: shapes incompatible along axis {axis}: "
                f"{[t.shape for t in tensors]}"
            )
    extents = [t.data.shape[axis] for t in tensors]

    def bw(g: np.ndarray):
        pieces = []
        start = 0
        for n in extents:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + n)
            pieces.append(g[tuple(idx)])
            start += n
        return tuple(pieces)

    out = np.concatenate([t.data for t in tensors], axis=axis)
    return _record(tuple(tensors), out, bw)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis; backward adds into the sliced positions.

    A slice that is already C-contiguous (rows of a matrix, any slice of a
    one-row matrix) is a view of ``x.data``; any other is copied."""
    ndim = x.data.ndim
    if not (0 <= axis < ndim):
        raise ValueError(f"slice_axis: axis {axis} out of range for shape {x.shape}")
    if not (0 <= start <= stop <= x.data.shape[axis]):
        raise ValueError(f"slice_axis: bad range [{start}:{stop}] for shape {x.shape}")
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bw(g: np.ndarray):
        return (_Slice(idx, g),)

    return _record((x,), np.ascontiguousarray(x.data[idx]), bw)


def take_row(table: Tensor, index) -> Tensor:
    """Rows of a 2-D table: one int gives a 1*d tensor, a 1-D array of B
    indices a B*d one. The gradient scatter-adds into the rows taken, so a
    repeated index collects the gradient of each of its copies."""
    if table.data.ndim != 2:
        raise ValueError(f"take_row requires a 2-D table, got {table.shape}")
    # one int is the training path, run per token: keep it free of array work
    if isinstance(index, (int, np.integer)):
        ids = [int(index)]
    else:
        arr = np.asarray(index)
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ValueError(f"take_row: need an int or a 1-D integer array, got {index!r}")
        ids = arr.tolist()
    if not ids or min(ids) < 0 or max(ids) >= table.data.shape[0]:
        raise ValueError(f"take_row: index {index} out of range for table {table.shape}")

    def bw(g: np.ndarray):
        return (_Rows(ids, g),)

    out = table.data[ids[0] : ids[0] + 1].copy() if len(ids) == 1 else table.data[ids]
    return _record((table,), out, bw)


def _as_vector(x: Tensor, opname: str) -> np.ndarray:
    if x.data.ndim == 1:
        return x.data
    if x.data.ndim == 2 and x.data.shape[0] == 1:
        return x.data[0]
    raise ValueError(f"{opname} requires a vector or single row, got shape {x.shape}")


def _log_sum_exp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis, kept as a length-1 axis, without overflow."""
    m = v.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(v - m).sum(axis=-1, keepdims=True))


def log_softmax(v: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis (one row, or each row of a matrix), without a tape."""
    return v - _log_sum_exp(v)


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over a vector (or single row), preserving shape."""
    s = np.exp(log_softmax(_as_vector(x, "softmax"))).reshape(x.shape)

    def bw(g: np.ndarray):
        return (s * (g - float(g.reshape(-1) @ s.reshape(-1))),)

    return _record((x,), s, bw)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log_softmax(logits)[target] to the bit, from the log-sum-exp alone: no V-vector is kept."""
    v = _as_vector(logits, "cross_entropy")
    target = int(target)
    if not (0 <= target < v.shape[0]):
        raise ValueError(f"cross_entropy: target {target} out of range for {v.shape[0]} logits")
    lse = _log_sum_exp(v)

    def bw(g: np.ndarray):
        p = np.exp(v - lse)  # exp(log_softmax(logits)), to the bit
        p[target] -= 1.0
        return ((p * float(g)).reshape(logits.data.shape),)

    return _record((logits,), np.asarray(lse[0] - v[target]), bw)
