"""Teacher-forced training with per-epoch metrics, plus BLEU evaluation.

Training is deterministic given the config seed: epoch shuffles come from
one generator, and all arithmetic is float64 numpy. The epoch loss is total
cross-entropy nats divided by total predicted tokens, so runs with different
caption lengths stay comparable.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bleu import corpus_bleu, corpus_bleu_parts
from .data import ImageRecord, ValidationError, Vocabulary, _atomic_writer, tokenize
from .models import (
    MAX_CAPTION_LEN,
    Model,
    decode_greedy_batch,
    encode_batch,
    example_from_record,
    forward_teacher_forced,
)
from .tensor import Tape, Tensor, add, backward, cross_entropy, scale, slice_axis

OPTIMIZERS = ("sgd", "adam")

# Evaluation decodes this many images per batched greedy walk, so the
# memory of a walk does not grow with the test set.
DECODE_BLOCK = 64

# Adam updates this many float64 entries of a parameter at a time, so its
# two scratch blocks (128 KiB each) stay in cache.
_ADAM_BLOCK = 16384

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 4
    optimizer: str = "adam"
    grad_clip_norm: float | None = 5.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be positive, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        clip = self.grad_clip_norm
        if clip is not None and not (math.isfinite(clip) and clip > 0):
            raise ValidationError(f"grad_clip_norm must be finite and positive, or None, got {clip}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float  # mean nats per predicted token
    val_bleu: float
    seconds: float


@dataclass
class RunHistory:
    epochs: list[EpochStats]

    def to_csv(self, path) -> None:
        with _atomic_writer(path) as fh:
            fh.write("epoch,train_loss,val_bleu,seconds\n")
            for row in self.epochs:
                fh.write(f"{row.epoch},{row.train_loss!r},{row.val_bleu!r},{row.seconds!r}\n")


class Sgd:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for p in self.params.values():
            if p.grad is not None:
                p.data -= self.lr * p.grad


class Adam:
    """Adam with bias correction. ``m``, ``v`` and the weights are updated in
    place, block by block, through two preallocated scratch blocks: the
    textbook formula's ufuncs in its order, so the result is bit-identical."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = {name: np.zeros(p.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in params.items()}
        self.t = 0
        self._scratch = (np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK))

    def step(self) -> None:
        self.t += 1
        b1, b2, lr, eps = _ADAM_BETA1, _ADAM_BETA2, self.lr, _ADAM_EPS
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            # reshape gives views: m, v and a tensor's data are C-contiguous
            m, v, w = self.m[name].reshape(-1), self.v[name].reshape(-1), p.data.reshape(-1)
            g = p.grad.reshape(-1)
            # per block: m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
            # w -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
            for lo in range(0, w.size, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, w.size)
                mb, vb, gb = m[lo:hi], v[lo:hi], g[lo:hi]
                s1, s2 = (s[: hi - lo] for s in self._scratch)
                mb *= b1
                mb += np.multiply(1.0 - b1, gb, out=s1)
                vb *= b2
                vb += np.multiply(np.multiply(1.0 - b2, gb, out=s1), gb, out=s1)
                np.multiply(lr, np.divide(mb, bias1, out=s1), out=s1)
                np.add(np.sqrt(np.divide(vb, bias2, out=s2), out=s2), eps, out=s2)
                w[lo:hi] -= np.divide(s1, s2, out=s1)


def make_optimizer(params: dict[str, Tensor], config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(params, config.learning_rate)
    return Adam(params, config.learning_rate)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None]
    for g in grads:
        total += float(np.vdot(g, g))
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def teacher_forced_loss(model: Model, example, encoding: Tensor | None = None) -> tuple[Tensor, int]:
    """Summed cross-entropy over all predicted tokens, plus the token count;
    ``encoding`` as for ``forward_teacher_forced``."""
    logits = forward_teacher_forced(model, example, encoding)
    ids = example.caption_ids
    total = None
    for t, row in enumerate(logits):
        ce = cross_entropy(row, ids[t + 1])
        total = ce if total is None else add(total, ce)
    return total, len(logits)


def _decode_pairs(model: Model, records: list[ImageRecord], vocab: Vocabulary):
    """Greedy-decode every record (sorted by id for a schedule-independent
    order), DECODE_BLOCK images per batch encoding and batched walk; returns
    (hypothesis words, reference token lists) pairs."""
    records = sorted(records, key=lambda r: r.id)
    hyps: list[list[int]] = []
    for start in range(0, len(records), DECODE_BLOCK):
        block = [example_from_record(rec, vocab, model.config) for rec in records[start : start + DECODE_BLOCK]]
        hyps.extend(decode_greedy_batch(model, encode_batch(model, block)))
    return [
        ([vocab.token_at(i) for i in ids], [tokenize(c) for c in rec.captions])
        for ids, rec in zip(hyps, records)
    ]


def validation_bleu(model: Model, records: list[ImageRecord], vocab: Vocabulary) -> float:
    if not records:
        return float("nan")
    return corpus_bleu(_decode_pairs(model, records, vocab))


def train(
    model: Model,
    train_set: list[ImageRecord],
    val_set: list[ImageRecord],
    config: TrainConfig,
    vocab: Vocabulary,
) -> RunHistory:
    """Optimize the model in place; returns the per-epoch history.

    Each record contributes its first caption as the training target; the
    remaining captions serve as extra references at evaluation time. A
    batch whose loss or gradient norm is not finite raises ValidationError
    naming the epoch and the batch, before it updates the weights.
    Each batch's images are encoded in one ``encode_batch``, whose rows have
    the bits of encoding each image alone. Gradients live for one optimizer
    step: the model comes back without any.
    """
    if not train_set:
        raise ValidationError("training set is empty")
    examples = [example_from_record(rec, vocab, model.config) for rec in train_set]
    rng = np.random.default_rng(config.rng_seed)
    opt = make_optimizer(model.params, config)
    history = []
    n = len(examples)
    for p in model.params.values():
        p.grad = None
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        epoch_nats = 0.0
        epoch_tokens = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            with Tape() as tape:
                encodings = encode_batch(model, [examples[i] for i in batch])
                batch_sum = None
                batch_tokens = 0
                for row, i in enumerate(batch):
                    encoding = slice_axis(encodings, 0, row, row + 1)
                    loss_i, steps_i = teacher_forced_loss(model, examples[i], encoding)
                    batch_sum = loss_i if batch_sum is None else add(batch_sum, loss_i)
                    batch_tokens += steps_i
                batch_loss = scale(batch_sum, 1.0 / batch_tokens)
            backward(batch_loss, tape)
            del tape  # only the tape holds the batch's graph: free it before the step
            norm = clip_gradients(model.params, config.grad_clip_norm or math.inf)
            nats = batch_sum.item()
            if not (math.isfinite(nats) and math.isfinite(norm)):
                raise ValidationError(
                    f"epoch {epoch}, batch {start // config.batch_size + 1}: non-finite "
                    f"training loss {nats} or gradient norm {norm}; the weights were not updated"
                )
            opt.step()
            for p in model.params.values():
                p.grad = None
            epoch_nats += nats
            epoch_tokens += batch_tokens
        val = validation_bleu(model, val_set, vocab)
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_nats / epoch_tokens,
                val_bleu=val,
                seconds=time.perf_counter() - started,
            )
        )
    return RunHistory(epochs=history)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    bleu: float
    max_n: int
    precisions: list[float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    n_images: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def check_max_n(max_n: int) -> int:
    """``max_n`` if it is a BLEU order in [1, MAX_CAPTION_LEN], the longest
    caption a model decodes; otherwise ValueError."""
    if not 1 <= max_n <= MAX_CAPTION_LEN:
        raise ValueError(f"max_n must be in [1, {MAX_CAPTION_LEN}], got {max_n}")
    return max_n


def evaluate(model: Model, test_set: list[ImageRecord], vocab: Vocabulary, max_n: int = 4) -> EvalReport:
    """Greedy-decode every test image and score corpus BLEU against the five
    references, with the per-order precision breakdown."""
    check_max_n(max_n)
    if not test_set:
        raise ValidationError("test set is empty")
    pairs = _decode_pairs(model, test_set, vocab)
    parts = corpus_bleu_parts(pairs, max_n=max_n)
    return EvalReport(
        bleu=parts.score,
        max_n=max_n,
        precisions=parts.precisions,
        brevity_penalty=parts.brevity_penalty,
        hyp_length=parts.hyp_length,
        ref_length=parts.ref_length,
        n_images=len(pairs),
    )
