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
from .data import ImageRecord, ValidationError, Vocabulary, tokenize
from .models import Model, decode_greedy_batch, encode, example_from_record, forward_teacher_forced
from .tensor import Tape, Tensor, add, backward, concat, cross_entropy, scale

OPTIMIZERS = ("sgd", "adam")

# Evaluation decodes this many images per batched greedy walk, so the
# memory of a walk does not grow with the test set.
DECODE_BLOCK = 64


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
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValidationError(f"grad_clip_norm must be positive or None, got {self.grad_clip_norm}")


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
        with open(path, "w", encoding="utf-8") as fh:
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
    def __init__(self, params: dict[str, Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def make_optimizer(params: dict[str, Tensor], config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(params, config.learning_rate)
    return Adam(params, config.learning_rate)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None]
    for g in grads:
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def teacher_forced_loss(model: Model, example) -> tuple[Tensor, int]:
    """Summed cross-entropy over all predicted tokens, plus the token count."""
    logits = forward_teacher_forced(model, example)
    ids = example.caption_ids
    total = None
    for t, row in enumerate(logits):
        ce = cross_entropy(row, ids[t + 1])
        total = ce if total is None else add(total, ce)
    return total, len(logits)


def _decode_pairs(model: Model, records: list[ImageRecord], vocab: Vocabulary):
    """Greedy-decode every record (sorted by id for a schedule-independent
    order), DECODE_BLOCK images per batched walk; returns (hypothesis words,
    reference token lists) pairs."""
    records = sorted(records, key=lambda r: r.id)
    encodings = [encode(model, example_from_record(rec, vocab, model.config)) for rec in records]
    hyps: list[list[int]] = []
    for start in range(0, len(encodings), DECODE_BLOCK):
        hyps.extend(decode_greedy_batch(model, concat(encodings[start : start + DECODE_BLOCK], axis=0)))
    return [
        ([vocab.token_at(i) for i in ids], [tokenize(c) for c in rec.captions])
        for ids, rec in zip(hyps, records)
    ]


def validation_bleu(model: Model, records: list[ImageRecord], vocab: Vocabulary, max_n: int = 4) -> float:
    if not records:
        return float("nan")
    return corpus_bleu(_decode_pairs(model, records, vocab), max_n=max_n)


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
    """
    if not train_set:
        raise ValidationError("training set is empty")
    examples = [example_from_record(rec, vocab, model.config) for rec in train_set]
    rng = np.random.default_rng(config.rng_seed)
    opt = make_optimizer(model.params, config)
    history = []
    n = len(examples)
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        epoch_nats = 0.0
        epoch_tokens = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            for p in model.params.values():
                p.grad = None
            with Tape() as tape:
                batch_sum = None
                batch_tokens = 0
                for i in batch:
                    loss_i, steps_i = teacher_forced_loss(model, examples[i])
                    batch_sum = loss_i if batch_sum is None else add(batch_sum, loss_i)
                    batch_tokens += steps_i
                batch_loss = scale(batch_sum, 1.0 / batch_tokens)
            backward(batch_loss, tape)
            norm = clip_gradients(model.params, config.grad_clip_norm or math.inf)
            nats = batch_sum.item()
            if not (math.isfinite(nats) and math.isfinite(norm)):
                raise ValidationError(
                    f"epoch {epoch}, batch {start // config.batch_size + 1}: non-finite "
                    f"training loss {nats} or gradient norm {norm}; the weights were not updated"
                )
            opt.step()
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


def evaluate(model: Model, test_set: list[ImageRecord], vocab: Vocabulary, max_n: int = 4) -> EvalReport:
    """Greedy-decode every test image and score corpus BLEU against the five
    references, with the per-order precision breakdown."""
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
