"""The benchmark's workloads and the journey each of them runs.

Every workload runs the same user journey, the steps of the ``objcap`` CLI:
set up (load the inputs, build the model), read a records file, caption
images one at a time (greedy and width-3 beam, as ``objcap caption`` does),
evaluate corpus BLEU and train; at the end of a run an untimed, longer check
training gives the outputs compared with reference.json, and the trained model
goes through a checkpoint round trip. Both workloads run the m3 model; they differ
in scale, and so in which layer dominates.

Captions and evaluation decode the model as built, before the round's
training call, with the ``<end>`` logit pushed down so that no caption ends
early: every caption runs to ``max_caption_len``, the worst case, and the same
amount of work on every seed. Training starts from the built weights as they
are. Inputs are generated here from the workload seed and written to files;
the program sees only those files and what its own loaders return.

The load is closed-loop from one caller: each set-up, load, caption,
evaluation or training call starts when the previous one has finished. A run
repeats the whole journey, so that every metric is sampled all through the
run and not in one stretch of it: on a shared VM the machine's speed changes
from second to second.
"""
from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from objcap import checkpoint, data, models, training

BEAM_WIDTH = 3
MODEL_SEED = 0  # the model is initialized the same way on every seed: the seed varies the data
# Decoding adds this to the built model's <end> bias, so no caption ends early.
END_BIAS = -1e6
MIN_SETUP_S = 0.2  # set-up repeats until it has run this long in each round
EVALS_PER_ROUND = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    paper: bool  # paper dims: 4096-d features, bench-made 5,000-word vocabulary
    n_images: int
    n_train: int
    n_val: int
    epochs: int  # per timed training call
    check_epochs: int  # the untimed training whose outputs are checked against reference.json
    n_greedy: int
    n_beam: int
    n_eval: int
    model_dims: dict = dataclasses.field(default_factory=dict)
    visual_dim: int = 4096
    glove_dim: int = 50
    vocab_size: int = 5000
    n_labels: int = 20
    caption_words: int = 12


DESK_DIMS = dict(reduced_dim=16, text_embed_dim=24, lang_hidden=32, decoder_hidden=48)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_desk",
            why="m3 at desk dims on the criterion-5 corpus: ~1.5k tape nodes per step over tiny "
                "matrices, so tape bookkeeping dominates",
            paper=False, n_images=260, n_train=200, n_val=20, epochs=1, check_epochs=4,
            n_greedy=40, n_beam=8, n_eval=40, model_dims=DESK_DIMS,
            visual_dim=32, glove_dim=8, n_labels=8,
        ),
        Workload(
            name="infer_paper",
            why="m3 at paper dims (V=5000) mostly decoding without a tape: greedy and beam "
                "captions, evaluation, and a checkpoint round trip beside the records reads",
            paper=True, n_images=112, n_train=12, n_val=0, epochs=1, check_epochs=1,
            n_greedy=100, n_beam=2, n_eval=50,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same journey at a size that runs in a second or two."""
    return dataclasses.replace(
        w, n_images=12, n_train=4, n_val=2 if w.n_val else 0, epochs=1, check_epochs=1, n_greedy=3,
        n_beam=1, n_eval=4, visual_dim=16, glove_dim=4, vocab_size=40, n_labels=5,
        model_dims=DESK_DIMS,
    )


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    records_path: Path
    glove_path: Path
    vocab_words: list[str] | None  # paper workloads bring their own vocabulary
    records: list  # what the program must read back from records_path


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's files from ``seed``; same seed, same bytes."""
    records, glove = data.synth_corpus(
        seed=seed, n_images=w.n_images, n_labels=w.n_labels,
        visual_dim=w.visual_dim, glove_dim=w.glove_dim,
    )
    words = None
    if w.paper:
        # a fixed-size vocabulary and fixed-length captions drawn from it
        rng = np.random.default_rng([seed, 1])
        words = [f"w{i:04d}" for i in range(w.vocab_size - len(data.RESERVED_TOKENS))]
        for rec in records:
            rec.captions = [
                " ".join(words[j] for j in rng.integers(0, len(words), size=w.caption_words))
                for _ in range(data.CAPTIONS_PER_IMAGE)
            ]
    records_path = workdir / "records.jsonl"
    data.write_records(records_path, records)
    glove_path = workdir / "glove.txt"
    data.write_glove(glove_path, glove)
    return Inputs(records_path, glove_path, words, records)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class State:
    records: list
    glove: object
    vocab: object
    model: object
    initial: dict  # parameter values right after build, restored before each training call
    train_config: object
    train_set: list
    val_set: list
    greedy_set: list
    beam_set: list
    eval_set: list
    train_tokens: int  # predicted tokens per training call


def setup(w: Workload, inputs: Inputs, seed: int) -> State:
    """Load the inputs, build the model and warm every phase once."""
    records = data.load_records(inputs.records_path)
    glove = data.load_glove(inputs.glove_path)
    train_set = records[: w.n_train]
    val_set = records[w.n_train : w.n_train + w.n_val]
    held_out = records[w.n_train + w.n_val :]
    if inputs.vocab_words is not None:
        vocab = data.Vocabulary(inputs.vocab_words)
    else:
        vocab = data.build_vocab(train_set)
    config = models.ModelConfig(
        variant="m3", visual_dim=w.visual_dim, vocab_size=len(vocab), max_caption_len=16,
        label_embed_dim=w.glove_dim, max_objects=5, rng_seed=MODEL_SEED, **w.model_dims,
    )
    model = models.build(config, glove=glove)
    initial = {name: p.data.copy() for name, p in model.params.items()}
    examples = [models.example_from_record(r, vocab, config) for r in train_set]
    state = State(
        records=records, glove=glove, vocab=vocab, model=model, initial=initial,
        train_config=training.TrainConfig(epochs=w.epochs, batch_size=4, rng_seed=seed),
        train_set=train_set, val_set=val_set, greedy_set=_cycle(held_out, w.n_greedy),
        beam_set=_cycle(held_out, w.n_beam), eval_set=held_out[: w.n_eval],
        train_tokens=w.epochs * sum(len(ex.caption_ids) - 1 for ex in examples),
    )
    # warm-up: one single-caption step and one caption, then back to the built weights
    training.train(model, train_set[:1], [], training.TrainConfig(epochs=1, batch_size=1), vocab)
    restore(state)
    caption(state, state.greedy_set[0], width=None)
    return state


def _cycle(records: list, n: int) -> list:
    """``n`` records, going round ``records`` again when there are fewer."""
    return list(itertools.islice(itertools.cycle(records), n))


def restore(state: State) -> None:
    for name, p in state.model.params.items():
        p.data[...] = state.initial[name]
        p.grad = None


def suppress_end(state: State) -> None:
    """Make decoding run every caption to ``max_caption_len``; ``restore`` undoes it."""
    state.model.params["head.bias"].data[..., data.END] += END_BIAS


def caption(state: State, record, width: int | None) -> list[int]:
    """Caption one record the way ``objcap caption`` does."""
    ex = models.example_from_record(record, state.vocab, state.model.config)
    enc = models.encode(state.model, ex)
    if width is None:
        return models.decode_greedy(state.model, enc)
    return models.decode_beam(state.model, enc, width=width)


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Samples:
    setup_s: list = dataclasses.field(default_factory=list)
    train_tokens_per_s: list = dataclasses.field(default_factory=list)
    greedy_ms: list = dataclasses.field(default_factory=list)
    beam_ms: list = dataclasses.field(default_factory=list)
    eval_images_per_s: list = dataclasses.field(default_factory=list)
    # program outputs, one entry per round, compared across rounds and to the reference
    losses: list = dataclasses.field(default_factory=list)
    heldout_bleus: list = dataclasses.field(default_factory=list)  # last epoch's validation BLEU
    reports: list = dataclasses.field(default_factory=list)
    greedy_out: list = dataclasses.field(default_factory=list)


class Ledger:
    """Operations attempted and failed; every failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            self.messages.append(traceback.format_exc())
            return None


def run_round(
    w: Workload, inputs: Inputs, seed: int, samples: Samples, ledger: Ledger, span, min_setup_s: float
) -> State:
    """One pass of the journey: set-up, records load, greedy and beam captions,
    evaluation, training. Appends timing samples and program outputs to
    ``samples`` and returns the state the round set up. Set-up repeats until it
    has run ``min_setup_s``; evaluation runs ``EVALS_PER_ROUND`` times. A round
    is short, so a run holds many and samples every phase all through the run."""
    with span("bench.setup"):
        started = time.perf_counter()
        state = None
        while state is None or time.perf_counter() - started < min_setup_s:
            state = None  # one model in memory at a time
            gc.collect()
            t0 = time.perf_counter()
            state = setup(w, inputs, seed)
            samples.setup_s.append(time.perf_counter() - t0)

    # The journey starts by reading the records file. Its throughput is not an
    # end-to-end metric: run to run it spread by more than the largest allowed
    # bound on a 2-vCPU VM.
    with span("bench.records"):
        loaded = ledger.op(data.load_records, inputs.records_path)
        ledger.check(loaded == inputs.records, "load_records did not return the generated records")

    # captions decode the model as built, <end> suppressed: each runs to max_caption_len
    restore(state)
    suppress_end(state)
    max_len = state.model.config.max_caption_len
    gc.collect()
    outputs = []
    with span("bench.greedy"):
        for rec in state.greedy_set:
            t0 = time.perf_counter()
            ids = ledger.op(caption, state, rec, None)
            samples.greedy_ms.append((time.perf_counter() - t0) * 1e3)
            ledger.check(ids is not None and len(ids) == max_len,
                         f"greedy caption of {rec.id} is not {max_len} tokens long: {ids}")
            outputs.append(ids)
    samples.greedy_out.append(outputs)
    gc.collect()

    with span("bench.beam"):
        for rec in state.beam_set:
            t0 = time.perf_counter()
            ids = ledger.op(caption, state, rec, BEAM_WIDTH)
            samples.beam_ms.append((time.perf_counter() - t0) * 1e3)
            ledger.check(
                ids is not None and len(ids) == max_len
                and all(0 <= i < len(state.vocab) and i != data.END for i in ids),
                f"beam caption of {rec.id} is not {max_len} in-range tokens: {ids}",
            )
    gc.collect()

    with span("bench.evaluate"):
        for _ in range(EVALS_PER_ROUND):
            gc.collect()
            t0 = time.perf_counter()
            report = ledger.op(training.evaluate, state.model, state.eval_set, state.vocab)
            samples.eval_images_per_s.append(len(state.eval_set) / (time.perf_counter() - t0))
            samples.reports.append(report.to_json() if report else None)

    restore(state)
    gc.collect()
    with span("bench.train"):
        t0 = time.perf_counter()
        history = ledger.op(
            training.train, state.model, state.train_set, state.val_set, state.train_config, state.vocab
        )
        t1 = time.perf_counter()
    samples.train_tokens_per_s.append(state.train_tokens / (t1 - t0))
    losses = [e.train_loss for e in history.epochs] if history else [math.nan]
    ledger.check(all(math.isfinite(x) for x in losses), f"non-finite training loss: {losses}")
    samples.losses.append(losses[-1])
    samples.heldout_bleus.append(history.epochs[-1].val_bleu if history else math.nan)
    return state


def check_training(w: Workload, state: State):
    """Train the built model for ``w.check_epochs`` epochs, untimed, and return
    the history. Its final loss and held-out BLEU are checked against
    reference.json: long enough a training that the BLEU is not 0."""
    restore(state)
    config = dataclasses.replace(state.train_config, epochs=w.check_epochs)
    return training.train(state.model, state.train_set, state.val_set, config, state.vocab)


def checkpoint_round_trip(state: State, workdir: Path, ledger: Ledger) -> int:
    """Save, load, and demand bit-identical parameters and identical greedy captions."""
    path = workdir / "checkpoint.json"
    ledger.op(checkpoint.save_checkpoint, path, state.model, state.vocab)
    loaded = ledger.op(checkpoint.load_checkpoint, path, glove=state.glove)
    if loaded is None:
        return 0
    model, vocab = loaded
    same = vocab.tokens == state.vocab.tokens and model.params.keys() == state.model.params.keys()
    same = same and all(np.array_equal(p.data, model.params[n].data) for n, p in state.model.params.items())
    ledger.check(same, "checkpoint round trip changed the vocabulary or a parameter")
    reloaded = dataclasses.replace(state, model=model, vocab=vocab)
    for rec in state.greedy_set[:3]:
        ledger.check(
            caption(state, rec, None) == caption(reloaded, rec, None),
            f"greedy caption of {rec.id} differs after the checkpoint round trip",
        )
    return path.stat().st_size
