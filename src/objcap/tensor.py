"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Values are plain numpy arrays. Every differentiable op computes its result
eagerly and, when a Tape is active and some operand requires a gradient,
records a node holding the local backward rule. ``backward`` replays the
tape in reverse, accumulating gradients additively across fan-out.

There is deliberately no broadcasting: binary ops demand equal shapes, and
the single exception (adding a bias row to every row of a matrix) has its
own op, ``add_rowvector``. Shape mistakes fail loudly at the call site.
"""
from __future__ import annotations

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
    "sigmoid",
    "slice_axis",
    "softmax",
    "sum_all",
    "take_row",
    "tanh",
    "zeros",
]


class Tensor:
    """A dense float64 array with an optional accumulated gradient.

    ``data`` is always C-contiguous float64. ``grad`` is either None or an
    array of identical shape, filled in by ``backward``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite (no NaN/Inf)")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: "Tape | None" = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Internal fast path for op outputs; skips the finiteness scan.
        out = cls.__new__(cls)
        out.data = arr
        out.grad = None
        out.requires_grad = requires_grad
        out._tape = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

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

    @classmethod
    def active(cls) -> "Tape | None":
        return cls._stack[-1] if cls._stack else None

    def __len__(self) -> int:
        return len(self.nodes)


def _record(inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op result, recording it on the active tape when needed.

    ``backward_fn(out_grad)`` must return one gradient array (or None) per
    input, in order.
    """
    tape = Tape.active()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, track)
    if track:
        out._tape = tape
        tape.nodes.append((inputs, out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def backward(loss: Tensor, tape: Tape) -> None:
    """Fill ``grad`` on every requires_grad tensor reachable from ``loss``.

    Gradients accumulate additively across fan-out, so callers should clear
    stale grads (set to None) before reusing parameters on a fresh tape.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._tape is not tape:
        raise ValueError("loss was not produced on this tape")
    loss.grad = np.ones_like(loss.data)
    for inputs, out, backward_fn in reversed(tape.nodes):
        if out.grad is None:
            continue
        grads = backward_fn(out.grad)
        for inp, g in zip(inputs, grads):
            if g is not None and inp.requires_grad:
                _accumulate(inp, g)


# ---------------------------------------------------------------------------
# construction


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=np.float64), requires_grad)


def glorot_uniform(shape, rng: np.random.Generator, requires_grad: bool = True) -> Tensor:
    """Uniform(-b, b) with b = sqrt(6 / (fan_in + fan_out))."""
    dims = tuple(int(d) for d in shape)
    if len(dims) == 2:
        fan_in, fan_out = dims
    else:
        fan_in = fan_out = int(np.prod(dims))
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-bound, bound, size=dims)
    return Tensor._wrap(np.ascontiguousarray(data), requires_grad)


# ---------------------------------------------------------------------------
# ops


def _check_same_shape(opname: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{opname}: shape mismatch {a.shape} vs {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g: np.ndarray):
        return g @ b_data.T, a_data.T @ g

    return _record((a, b), a_data @ b_data, bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def bw(g: np.ndarray):
        return g, g

    return _record((a, b), a.data + b.data, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    a_data, b_data = a.data, b.data

    def bw(g: np.ndarray):
        return g * b_data, g * a_data

    return _record((a, b), a_data * b_data, bw)


def add_rowvector(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-n bias vector to every row of an m*n matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_rowvector: need (m,n) and (n,), got {x.shape} and {b.shape}")

    def bw(g: np.ndarray):
        return g, g.sum(axis=0)

    return _record((x, b), x.data + b.data, bw)


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign so exp never overflows.
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

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
    shape = x.shape

    def bw(g: np.ndarray):
        return (np.full(shape, float(g), dtype=np.float64),)

    return _record((x,), np.asarray(x.data.sum()), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty tensor list")
    first = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(first) or any(
            i != axis and t.shape[i] != first[i] for i in range(len(first))
        ):
            raise ValueError(
                f"concat: shapes incompatible along axis {axis}: "
                f"{[t.shape for t in tensors]}"
            )
    extents = [t.shape[axis] for t in tensors]

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
    """Contiguous slice along one axis; backward scatters into zeros."""
    ndim = x.data.ndim
    if not (0 <= axis < ndim):
        raise ValueError(f"slice_axis: axis {axis} out of range for shape {x.shape}")
    if not (0 <= start <= stop <= x.shape[axis]):
        raise ValueError(f"slice_axis: bad range [{start}:{stop}] for shape {x.shape}")
    shape = x.shape
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bw(g: np.ndarray):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] = g
        return (full,)

    return _record((x,), x.data[idx].copy(), bw)


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
    if not ids or min(ids) < 0 or max(ids) >= table.shape[0]:
        raise ValueError(f"take_row: index {index} out of range for table {table.shape}")
    shape = table.shape

    def bw(g: np.ndarray):
        full = np.zeros(shape, dtype=np.float64)
        np.add.at(full, ids, g)
        return (full,)

    out = table.data[ids[0] : ids[0] + 1].copy() if len(ids) == 1 else table.data[ids]
    return _record((table,), out, bw)


def _as_vector(x: Tensor, opname: str) -> np.ndarray:
    if x.data.ndim == 1:
        return x.data
    if x.data.ndim == 2 and x.shape[0] == 1:
        return x.data[0]
    raise ValueError(f"{opname} requires a vector or single row, got shape {x.shape}")


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over a vector (or single row), preserving shape."""
    v = _as_vector(x, "softmax")
    e = np.exp(v - v.max())
    s = (e / e.sum()).reshape(x.shape)

    def bw(g: np.ndarray):
        gf = g.reshape(-1)
        sf = s.reshape(-1)
        return ((sf * (gf - float(gf @ sf))).reshape(x.shape),)

    return _record((x,), s, bw)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] in fused log-sum-exp form. Scalar output."""
    v = _as_vector(logits, "cross_entropy")
    target = int(target)
    if not (0 <= target < v.shape[0]):
        raise ValueError(f"cross_entropy: target {target} out of range for {v.shape[0]} logits")
    m = v.max()
    lse = m + np.log(np.exp(v - m).sum())
    loss = np.asarray(lse - v[target])
    shape = logits.shape

    def bw(g: np.ndarray):
        p = np.exp(v - lse)
        p[target] -= 1.0
        return ((p * float(g)).reshape(shape),)

    return _record((logits,), loss, bw)
