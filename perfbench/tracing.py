"""Span tracing for the benchmark's traced run, applied from outside ``src/``.

``Tracer.installed()`` rebinds the public functions of every objcap layer to
span-recording wrappers. A function imported by name is rebound in every
objcap module that holds it under that name (``layers.lstm_step`` and
``models.lstm_step`` both), so a call made through any namespace is seen.
Backward time per tape op comes from wrapping each node's rule in the public
``Tape.nodes`` list just before ``backward`` replays it.

Spans are kept in flat arrays (name, start, end, parent) and written out once
at the end. When the tracer is not installed nothing is rebound, so the
untraced run executes the program's own functions unchanged.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TAPE_OPS = (
    "matmul", "add", "mul", "add_rowvector", "sigmoid", "tanh",
    "slice_axis", "concat", "take_row", "cross_entropy", "scale",
)

# module -> traced attributes; "Class.method" entries are rebound on the class.
TRACED = {
    "tensor": TAPE_OPS,
    "layers": ("lstm_step", "lstm_unroll", "dense", "vocab_head", "embed"),
    "models": (
        "forward_teacher_forced", "encode", "encode_objects", "decode_step",
        "decode_greedy", "decode_beam", "example_from_record",
    ),
    "training": (
        "train", "teacher_forced_loss", "clip_gradients", "Adam.step",
        "validation_bleu", "evaluate",
    ),
    "bleu": ("corpus_bleu", "corpus_stats"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "glove_fingerprint"),
    "data": ("load_records", "load_glove", "synth_corpus", "build_vocab"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.taped = array("b")  # tape op called while a Tape was active
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []
        self.tape_nodes: list[tuple[int, int]] = []  # (backward span, nodes replayed)
        self._tape_stack = None

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, taped: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.taped.append(taped)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name), 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, tape_op: bool = False):
        nid = self._id(name)
        open_, close = self._open, self._close
        tape_stack = self._tape_stack

        def traced(*args, **kwargs):
            idx = open_(nid, 1 if tape_op and tape_stack else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- installing --------------------------------------------------------

    def _bind(self, owner, attr: str, value) -> None:
        self._bound.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _traced_backward(self, backward):
        """Wrap every node's rule with a ``tensor.<op>.bwd`` span, then replay."""
        wrap = self.wrap

        def rule_name(rule) -> str:
            return "tensor." + rule.__qualname__.split(".")[0] + ".bwd"

        def traced(loss, tape):
            nodes = tape.nodes
            self.tape_nodes.append((self._stack[-1], len(nodes)))
            for k, (inputs, out, rule) in enumerate(nodes):
                nodes[k] = (inputs, out, wrap(rule_name(rule), rule))
            return backward(loss, tape)

        return self.wrap("tensor.backward", traced)

    @contextmanager
    def installed(self):
        tensor = importlib.import_module("objcap.tensor")
        self._tape_stack = tensor.Tape._stack
        modules = [m for n, m in sys.modules.items() if n == "objcap" or n.startswith("objcap.")]
        plan = []  # collect every original before rebinding anything
        for modname, attrs in TRACED.items():
            home = importlib.import_module("objcap." + modname)
            for attr in attrs:
                if "." in attr:
                    cls, meth = attr.split(".")
                    owner = getattr(home, cls)
                    plan.append(([owner], meth, owner.__dict__[meth], f"{modname}.{attr}", False))
                else:
                    orig = getattr(home, attr)
                    owners = [m for m in modules if vars(m).get(attr) is orig]
                    plan.append((owners, attr, orig, f"{modname}.{attr}", modname == "tensor"))
        orig_backward = tensor.backward
        plan.append(([m for m in modules if vars(m).get("backward") is orig_backward],
                     "backward", orig_backward, None, False))
        try:
            for owners, attr, orig, name, tape_op in plan:
                wrapped = self._traced_backward(orig) if name is None else self.wrap(name, orig, tape_op)
                for owner in owners:
                    self._bind(owner, attr, wrapped)
            yield self
        finally:
            while self._bound:
                owner, attr, orig = self._bound.pop()
                setattr(owner, attr, orig)

    # -- reading -----------------------------------------------------------

    def arrays(self):
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int64, count=n) if n else np.zeros(0, np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n) if n else np.zeros(0, np.int64)
        start = np.frombuffer(self.start, dtype=np.float64, count=n) if n else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64, count=n) if n else np.zeros(0)
        taped = np.frombuffer(self.taped, dtype=np.int8, count=n) if n else np.zeros(0, np.int8)
        return name, parent, start, end, taped

    def write(self, path) -> None:
        name, parent, start, end, taped = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end, taped=taped)


class SpanTable:
    """Aggregates over the recorded spans: per-name calls, total and self time."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name, self.parent, self.start, self.end, self.taped = tracer.arrays()
        n = len(self.name)
        dur = self.end - self.start
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        k = len(self.names)
        self.calls = np.bincount(self.name, minlength=k)
        self.ms = np.bincount(self.name, weights=dur, minlength=k) * 1e3
        self.self_ms = np.bincount(self.name, weights=dur - child, minlength=k) * 1e3

    def nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def get(self, name: str, field: str) -> float:
        i = self.nid(name)
        if i < 0:
            return 0.0
        return float(getattr(self, field)[i])

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span called ``ancestor`` above them."""
        target = self.nid(ancestor)
        mask = np.zeros(len(self.name), dtype=bool)
        if target < 0:
            return mask
        name, parent = self.name, self.parent
        for i in range(len(name)):
            p = parent[i]
            if p >= 0 and (name[p] == target or mask[p]):
                mask[i] = True
        return mask

    def count(self, name: str, mask: np.ndarray) -> int:
        """Spans called ``name`` within ``mask``."""
        return int(((self.name == self.nid(name)) & mask).sum())

    def step_ms(self, mask: np.ndarray) -> list[float]:
        """Wall time of each optimizer step within ``mask``: from the step's first
        loss to the end of its Adam.step."""
        loss_id, adam_id = self.nid("training.teacher_forced_loss"), self.nid("training.Adam.step")
        out, begun = [], None
        for i in np.flatnonzero(((self.name == loss_id) | (self.name == adam_id)) & mask):
            if self.name[i] == loss_id:
                begun = self.start[i] if begun is None else begun
            elif begun is not None:
                out.append((self.end[i] - begun) * 1e3)
                begun = None
        return out


def per_layer_metrics(table: SpanTable, tape_nodes: list[tuple[int, int]], round_mask) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name.

    Calls and times are totals over the pass; the per-step figures (tape
    nodes, step times) cover only the optimizer steps inside ``round_mask``."""
    m: dict[str, float] = {}
    for op in TAPE_OPS:
        m[f"tensor.{op}.calls"] = table.get(f"tensor.{op}", "calls")
        m[f"tensor.{op}.fwd_ms"] = table.get(f"tensor.{op}", "ms")
        m[f"tensor.{op}.bwd_ms"] = table.get(f"tensor.{op}.bwd", "ms")
    m["tensor.backward.ms"] = table.get("tensor.backward", "ms")
    nodes = [n for span, n in tape_nodes if round_mask[span]]
    m["tensor.tape_nodes"] = float(np.mean(nodes)) if nodes else 0.0
    for module, attrs in TRACED.items():
        if module == "tensor":
            continue
        for attr in attrs:
            name = f"{module}.{attr}"
            m[f"{name}.calls"] = table.get(name, "calls")
            m[f"{name}.ms"] = table.get(name, "ms")
            m[f"{name}.self_ms"] = table.get(name, "self_ms")
    step_ms = table.step_ms(round_mask)
    m["training.step_ms_p50"] = float(np.percentile(step_ms, 50)) if step_ms else 0.0
    m["training.step_ms_p90"] = float(np.percentile(step_ms, 90)) if step_ms else 0.0
    train_ms = table.get("training.train", "ms")
    m["training.val_decode_share"] = (
        table.get("training.validation_bleu", "ms") / train_ms if train_ms else 0.0
    )
    return m
