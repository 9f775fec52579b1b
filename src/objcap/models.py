"""The three encoder-decoder captioning variants.

All variants share a text pipeline: trained word embedding -> language LSTM.
At every decoder step the (fixed) image encoding is concatenated with the
language LSTM's hidden state, so visual context arrives as an additional
input at each time step rather than as an initial state.

  m1  whole-image vector (4096) -> dense 128; decoder LSTM with 1000 units
  m2  whole-image vector (2048) -> dense 128; bidirectional decoder LSTM,
      256 units per direction (512-wide outputs)
  m3  per-object features -> dense 128, concatenated with the object's
      GLOVE label vector, convolved across the object axis (kernel 3,
      same padding), mean-pooled into a single joint encoding; decoder LSTM

Objects in m3 are canonically ordered by ascending distance from the image
origin before the convolution, so the encoding is independent of the order
in which objects arrive.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .data import END, START, GloveTable, ImageRecord, ValidationError, Vocabulary, encode_caption, tokenize
from .layers import (
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
    lstm_unroll,
    vocab_head,
)
from .tensor import Tensor, add, concat, scale, zeros

VARIANTS = ("m1", "m2", "m3")

_DEFAULT_DECODER_HIDDEN = {"m1": 1000, "m2": 256, "m3": 256}


@dataclass
class ModelConfig:
    variant: str
    visual_dim: int
    vocab_size: int
    max_caption_len: int
    reduced_dim: int = 128
    text_embed_dim: int = 256
    lang_hidden: int = 256
    decoder_hidden: int | None = None
    label_embed_dim: int | None = None  # m3: GLOVE dimension
    max_objects: int | None = None  # m3
    rng_seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.decoder_hidden is None:
            self.decoder_hidden = _DEFAULT_DECODER_HIDDEN[self.variant]
        dims = {
            "visual_dim": self.visual_dim,
            "vocab_size": self.vocab_size,
            "reduced_dim": self.reduced_dim,
            "text_embed_dim": self.text_embed_dim,
            "lang_hidden": self.lang_hidden,
            "decoder_hidden": self.decoder_hidden,
        }
        for name, value in dims.items():
            if value < 1:
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.vocab_size < 3:
            raise ValidationError("vocab_size must cover the start/end markers (>= 3)")
        if self.max_caption_len < 2:
            raise ValidationError(f"max_caption_len must be >= 2, got {self.max_caption_len}")
        if self.variant == "m3":
            if not self.label_embed_dim or self.label_embed_dim < 1:
                raise ValidationError("m3 requires a positive label_embed_dim")
            if not self.max_objects or self.max_objects < 1:
                raise ValidationError("m3 requires a positive max_objects")

    @property
    def fused_dim(self) -> int:
        """Per-object width after concatenating reduced feature and label vector."""
        if self.variant != "m3":
            raise ValidationError("fused_dim only applies to m3")
        return self.reduced_dim + self.label_embed_dim

    @property
    def encoding_dim(self) -> int:
        return self.fused_dim if self.variant == "m3" else self.reduced_dim


@dataclass(kw_only=True)
class Model:
    """The layers of one variant, listed in creation order.

    ``params`` names every Tensor field of every layer "<layer>.<field>", in
    field order: the checkpoint names, and the order ``clip_gradients`` sums
    the gradients in.
    """

    config: ModelConfig
    word_embed: EmbeddingTable
    lang_lstm: LstmParams
    reduce: DenseParams
    object_conv: DenseParams | None = None  # m3
    decoder: LstmParams | None = None  # m1/m3
    decoder_fwd: LstmParams | None = None  # m2
    decoder_bwd: LstmParams | None = None  # m2
    head: DenseParams
    glove: GloveTable | None = None  # m3, frozen
    params: dict[str, Tensor] = field(init=False)

    def __post_init__(self):
        self.params = {}
        for layer in fields(self):
            value = getattr(self, layer.name, None)  # params itself is not set yet
            for f in fields(value) if is_dataclass(value) else ():
                tensor = getattr(value, f.name)
                if isinstance(tensor, Tensor):
                    self.params[f"{layer.name}.{f.name}"] = tensor


def build(config: ModelConfig, glove: GloveTable | None = None) -> Model:
    """Instantiate all parameters deterministically from config.rng_seed.

    Creation order is fixed; the parameter set is a pure function of the
    config, so equal configs give byte-identical models.
    """
    if config.variant == "m3" and glove is not None and glove.dim != config.label_embed_dim:
        raise ValidationError(
            f"GLOVE dimension {glove.dim} != label_embed_dim {config.label_embed_dim}"
        )
    rng = np.random.default_rng(config.rng_seed)
    layers = dict(
        word_embed=embedding_init(config.vocab_size, config.text_embed_dim, rng),
        lang_lstm=lstm_init(config.text_embed_dim, config.lang_hidden, rng),
        reduce=dense_init(config.visual_dim, config.reduced_dim, rng),
    )
    dec_in = config.encoding_dim + config.lang_hidden
    if config.variant == "m3":
        layers["object_conv"] = dense_init(3 * config.fused_dim, config.fused_dim, rng)
    if config.variant in ("m1", "m3"):
        layers["decoder"] = lstm_init(dec_in, config.decoder_hidden, rng)
        head_in = config.decoder_hidden
    else:
        layers["decoder_fwd"] = lstm_init(dec_in, config.decoder_hidden, rng)
        layers["decoder_bwd"] = lstm_init(dec_in, config.decoder_hidden, rng)
        head_in = 2 * config.decoder_hidden
    layers["head"] = dense_init(head_in, config.vocab_size, rng)
    return Model(config=config, glove=glove, **layers)


# ---------------------------------------------------------------------------
# examples


@dataclass
class CaptionExample:
    """One model-ready training/eval item.

    caption_ids is the trimmed token sequence [<start>, w1..wT, <end>].
    m1/m2 carry a whole-image feature vector; m3 carries per-object
    (feature, label, distance) triples.
    """

    caption_ids: list[int]
    visual: np.ndarray | None = None
    objects: list[tuple[np.ndarray, str, float]] | None = None


def example_from_record(
    record: ImageRecord, vocab: Vocabulary, config: ModelConfig, caption_index: int = 0
) -> CaptionExample:
    tokens = tokenize(record.captions[caption_index])
    ids = encode_caption(vocab, tokens, config.max_caption_len)
    trimmed = ids[: ids.index(END) + 1]
    if not record.objects:
        raise ValidationError(f"record {record.id!r} has no objects to build features from")
    features = [np.asarray(o.feature, dtype=np.float64) for o in record.objects]
    if any(f.shape != (config.visual_dim,) for f in features):
        raise ValidationError(
            f"record {record.id!r}: feature length != visual_dim {config.visual_dim}"
        )
    if config.variant == "m3":
        objects = [
            (feat, obj.label, obj.distance) for feat, obj in zip(features, record.objects)
        ]
        return CaptionExample(caption_ids=trimmed, objects=objects)
    # whole-image stand-in for the object-level records: mean object feature
    return CaptionExample(caption_ids=trimmed, visual=np.mean(features, axis=0))


def _check_example(model: Model, example: CaptionExample) -> None:
    if model.config.variant == "m3":
        if example.objects is None:
            raise ValidationError("m3 model requires an example with an object list")
    elif example.visual is None:
        raise ValidationError(f"{model.config.variant} model requires a whole-image feature vector")


# ---------------------------------------------------------------------------
# encoders


def fuse_objects(model: Model, objects) -> list[Tensor]:
    """Per-object fused rows (reduced feature ++ label vector), in canonical
    ascending-distance order. Unknown labels get the zero label vector."""
    cfg = model.config
    if cfg.variant != "m3":
        raise ValidationError("object fusion applies only to m3 models")
    if model.glove is None:
        raise ValidationError("m3 model has no GLOVE table attached")
    objects = [(np.asarray(f, dtype=np.float64), str(label), float(d)) for f, label, d in objects]
    if not objects:
        raise ValidationError("need at least one object to encode")
    if len(objects) > cfg.max_objects:
        raise ValidationError(f"got {len(objects)} objects, max_objects is {cfg.max_objects}")
    for f, label, _ in objects:
        if f.shape != (cfg.visual_dim,):
            raise ValidationError(f"object {label!r} feature shape {f.shape} != ({cfg.visual_dim},)")
    ordered = sorted(objects, key=lambda o: (o[2], o[1], o[0].tobytes()))
    rows = []
    for feat, label, _ in ordered:
        reduced = dense(model.reduce, Tensor(feat.reshape(1, -1)))
        label_vec = Tensor(model.glove.lookup(label).reshape(1, -1))
        rows.append(concat([reduced, label_vec], axis=1))
    return rows


def encode_objects(model: Model, objects) -> Tensor:
    """Joint m3 encoding: fuse per object, convolve across the object axis
    (kernel 3, same padding, fused -> fused channels), mean-pool."""
    rows = fuse_objects(model, objects)
    k = len(rows)
    edge = zeros((1, model.config.fused_dim))
    pooled = None
    for j in range(k):
        left = rows[j - 1] if j > 0 else edge
        right = rows[j + 1] if j + 1 < k else edge
        out = dense(model.object_conv, concat([left, rows[j], right], axis=1))
        pooled = out if pooled is None else add(pooled, out)
    return scale(pooled, 1.0 / k)


def encode(model: Model, example: CaptionExample) -> Tensor:
    """The fixed per-image encoding fed to the decoder at every step."""
    _check_example(model, example)
    if model.config.variant == "m3":
        return encode_objects(model, example.objects)
    visual = np.asarray(example.visual, dtype=np.float64)
    if visual.shape != (model.config.visual_dim,):
        raise ValidationError(
            f"visual feature shape {visual.shape} != ({model.config.visual_dim},)"
        )
    return dense(model.reduce, Tensor(visual.reshape(1, -1)))


# ---------------------------------------------------------------------------
# training-mode forward


def forward_teacher_forced(model: Model, example: CaptionExample) -> list[Tensor]:
    """Per-step vocabulary logits under teacher forcing.

    For caption ids [w0..wT] (w0 = <start>, wT = <end>) step t consumes wt
    and produces the logits for w_{t+1}; returns T logit rows. m2 runs its
    bidirectional decoder over the whole forced input sequence.
    """
    _check_example(model, example)
    ids = example.caption_ids
    if len(ids) < 2:
        raise ValidationError("caption must contain at least start and end tokens")
    if len(ids) > model.config.max_caption_len:
        raise ValidationError(
            f"caption length {len(ids)} exceeds max_caption_len {model.config.max_caption_len}"
        )
    cfg = model.config
    enc = encode(model, example)
    steps = len(ids) - 1
    lang_in = [embed(model.word_embed, ids[t]) for t in range(steps)]
    lang_states = lstm_unroll(model.lang_lstm, lang_in)
    xs = [concat([enc, h], axis=1) for h in lang_states]
    if cfg.variant == "m2":
        dec_states = bilstm(model.decoder_fwd, model.decoder_bwd, xs)
    else:
        dec_states = lstm_unroll(model.decoder, xs)
    return [vocab_head(model.head, h) for h in dec_states]


# ---------------------------------------------------------------------------
# inference-mode decoding


@dataclass
class _DecodeState:
    h_lang: Tensor
    c_lang: Tensor
    h_dec: Tensor
    c_dec: Tensor

    def take(self, rows: list[int]) -> "_DecodeState":
        """The state of the batch rows listed in ``rows``."""
        parts = (self.h_lang, self.c_lang, self.h_dec, self.c_dec)
        return _DecodeState(*(Tensor(t.data[rows]) for t in parts))


def _init_state(model: Model, rows: int = 1) -> _DecodeState:
    cfg = model.config
    return _DecodeState(
        h_lang=zeros((rows, cfg.lang_hidden)),
        c_lang=zeros((rows, cfg.lang_hidden)),
        h_dec=zeros((rows, cfg.decoder_hidden)),
        c_dec=zeros((rows, cfg.decoder_hidden)),
    )


def decode_step(model: Model, encoding: Tensor, state: _DecodeState, token):
    """Feed one token to each of B rows, return (logits, next state).

    ``encoding`` and ``state`` hold B rows. ``token`` is one id (B = 1),
    which returns the logits as a length-V ndarray, or a 1-D array of B ids,
    which returns them as a B*V ndarray. m2 generates with its forward
    direction only; the backward half of the head input is zero because
    future context does not exist at inference.
    """
    cfg = model.config
    e = embed(model.word_embed, token)
    h_lang, c_lang = lstm_step(model.lang_lstm, e, state.h_lang, state.c_lang)
    x = concat([encoding, h_lang], axis=1)
    if cfg.variant == "m2":
        h_dec, c_dec = lstm_step(model.decoder_fwd, x, state.h_dec, state.c_dec)
        head_in = concat([h_dec, zeros(h_dec.shape)], axis=1)
    else:
        h_dec, c_dec = lstm_step(model.decoder, x, state.h_dec, state.c_dec)
        head_in = h_dec
    logits = vocab_head(model.head, head_in).data
    if isinstance(token, (int, np.integer)):
        logits = logits[0].copy()
    return logits, _DecodeState(h_lang, c_lang, h_dec, c_dec)


def _log_softmax_row(logits: np.ndarray) -> np.ndarray:
    m = logits.max()
    return logits - (m + np.log(np.exp(logits - m).sum()))


def _greedy_walk(model: Model, encodings: Tensor, max_len: int):
    """The greedy walk of B rows in lockstep from <start>.

    Each step takes every row's argmax token; numpy's argmax takes the
    first maximum, so ties break toward the lowest token index. Yields
    ``(rows, logits, picked)`` per step: the batch indices still decoding
    (a list), their logits (one row each) and the tokens they picked (a
    list). A row leaves the batch after the step that picks <end>, so later
    steps run on fewer rows.
    """
    rows = list(range(encodings.shape[0]))
    state = _init_state(model, len(rows))
    tokens = np.full(len(rows), START)
    for _ in range(max_len):
        logits, state = decode_step(model, encodings, state, tokens)
        tokens = logits.argmax(axis=1)
        picked = tokens.tolist()
        yield rows, logits, picked
        if END in picked:
            keep = [k for k, tok in enumerate(picked) if tok != END]
            if not keep:
                return
            rows = [rows[k] for k in keep]
            encodings, state, tokens = Tensor(encodings.data[keep]), state.take(keep), tokens[keep]


def decode_greedy_batch(model: Model, encodings: Tensor, max_len: int | None = None) -> list[list[int]]:
    """Greedy captions of B images at once, one token list per row of the
    B*encoding_dim ``encodings``; each stops at <end> or after max_len tokens.

    Every step is one matrix product per weight over the rows still
    decoding. Stacked rows can differ from one-row products in the last
    bits (~1e-15), so a near-tied argmax may in principle pick differently
    from ``decode_greedy`` on the same image.
    """
    if max_len is None:
        max_len = model.config.max_caption_len
    out: list[list[int]] = [[] for _ in range(encodings.shape[0])]
    for rows, _, picked in _greedy_walk(model, encodings, max_len):
        for row, tok in zip(rows, picked):
            if tok != END:
                out[row].append(tok)
    return out


def decode_greedy(model: Model, encoding: Tensor, max_len: int | None = None) -> list[int]:
    """Argmax decoding of one image from <start>: the greedy walk with one
    row. Stops at <end> or after max_len tokens; ties break toward the
    lowest token index."""
    if encoding.shape[0] != 1:
        raise ValidationError(f"decode_greedy takes one image's encoding, got shape {encoding.shape}")
    return decode_greedy_batch(model, encoding, max_len)[0]


def sequence_score(model: Model, encoding: Tensor, tokens: list[int], max_len: int | None = None):
    """Length-normalized log-probability of emitting ``tokens`` and, when the
    sequence is shorter than max_len, the terminating <end>.

    The reference scorer: it decodes ``tokens`` again from <start>. Beam
    search scores its greedy fallback from the greedy pass instead.
    """
    if max_len is None:
        max_len = model.config.max_caption_len
    state = _init_state(model)
    prev = START
    total = 0.0
    for tok in tokens:
        logits, state = decode_step(model, encoding, state, prev)
        total = total + float(_log_softmax_row(logits)[tok])
        prev = tok
    emitted = len(tokens)
    if len(tokens) < max_len:
        logits, state = decode_step(model, encoding, state, prev)
        total = total + float(_log_softmax_row(logits)[END])
        emitted += 1
    return total / emitted


def _scored_greedy(model: Model, encoding: Tensor, max_len: int) -> tuple[float, tuple[int, ...]]:
    """(sequence_score, emitted sequence) of decode_greedy's output, from the
    logits of the one greedy pass."""
    emitted: list[int] = []
    total = 0.0
    for _, logits, picked in _greedy_walk(model, encoding, max_len):
        tok = picked[0]
        emitted.append(tok)
        total = total + float(_log_softmax_row(logits[0])[tok])
    return total / len(emitted), tuple(emitted)


def decode_beam(model: Model, encoding: Tensor, width: int, max_len: int | None = None) -> list[int]:
    """Length-normalized beam search; width 1 reproduces decode_greedy.

    Finished hypotheses compete with live ones under the same normalized
    score; ties prefer the lexicographically smallest emitted sequence,
    matching greedy's lowest-index argmax.

    Selection: at step ``it`` every live hypothesis has emitted ``it``
    tokens, so the scores of all one-token extensions form one
    ``(live, V)`` matrix ``(lp_sum + log_softmax) / (it + 1)``, the same
    float64 arithmetic as scoring each candidate alone. The ``width``-th
    largest value over that matrix and the finished scores is a threshold;
    only the candidates at or above it, ties included, are sorted by the
    key ``(-score, emitted)``, so the ``width`` kept are exactly those of a
    sort over every candidate.

    The greedy sequence, scored from the logits of its own single pass,
    competes as a fallback so the returned hypothesis never scores below it.
    """
    if width < 1:
        raise ValidationError(f"beam width must be >= 1, got {width}")
    if max_len is None:
        max_len = model.config.max_caption_len
    if max_len < 1:
        return []

    logits, state = decode_step(model, encoding, _init_state(model), START)
    # alive: (content tokens, summed logprob, state, next-token logprobs)
    alive = [((), 0.0, state, _log_softmax_row(logits))]
    finished: list[tuple[float, tuple[int, ...]]] = []  # (normalized score, emitted)

    for it in range(max_len):
        if not alive:
            break
        last = it == max_len - 1
        sums = np.array([hyp[1] for hyp in alive])[:, None] + np.stack([hyp[3] for hyp in alive])
        norms = sums / (it + 1)
        scores = np.concatenate([norms.ravel(), [norm for norm, _ in finished]])
        cut = -np.inf
        if width < scores.size:
            cut = np.partition(scores, scores.size - width)[scores.size - width]
        pool: list[tuple[float, tuple[int, ...], tuple | None]] = [
            (norm, emitted, None) for norm, emitted in finished if norm >= cut
        ]
        for row, tok in zip(*np.nonzero(norms >= cut)):
            row, tok = int(row), int(tok)
            emitted = alive[row][0] + (tok,)
            cand = None if tok == END else (float(sums[row, tok]), alive[row][2], tok)
            pool.append((float(norms[row, tok]), emitted, cand))
        pool.sort(key=lambda entry: (-entry[0], entry[1]))
        kept = pool[:width]
        finished = [(norm, emitted) for norm, emitted, cand in kept if cand is None]
        alive = []
        for norm, emitted, cand in kept:
            if cand is None:
                continue
            lp, parent_state, tok = cand
            if last:
                # loop is over; this hypothesis is terminal by cutoff
                finished.append((norm, emitted))
            else:
                logits, new_state = decode_step(model, encoding, parent_state, tok)
                alive.append((emitted, lp, new_state, _log_softmax_row(logits)))

    finished.append(_scored_greedy(model, encoding, max_len))
    _, best_emitted = min(finished, key=lambda entry: (-entry[0], entry[1]))
    out = list(best_emitted)
    if out and out[-1] == END:
        out.pop()
    return out
