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

``encode_batch`` encodes a list of images in one pass and ``encode`` is its
one-image case. Every encoder product (m3's reduce over all objects and its
convolution over all objects' kernel-3 windows, m1/m2's reduce over all
images) runs over zero-padded blocks of ENCODE_BLOCK rows, and each image is
pooled from its own rows in order. A row of a fixed-size block product does
not depend on its block mates or its position, so an image's encoding has
the same bits alone or in any batch; it can differ from a one-row product's
by ~1e-15.

Decoding runs on plain arrays and records no tape: ``_init_state`` computes
the encodings' decoder projection enc @ W[:encoding_dim] once, and each
``decode_step`` adds h_lang @ W[encoding_dim:] to it, where training
projects concat(enc, h_lang); the logits differ by ~1e-16 relative.
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
    lstm_step_array,
    lstm_unroll,
    vocab_head,
)
from .tensor import Tensor, add, concat, scale, slice_axis, take_row, zeros

VARIANTS = ("m1", "m2", "m3")

_DEFAULT_DECODER_HIDDEN = {"m1": 1000, "m2": 256, "m3": 256}

# encode_caption pads every caption to max_caption_len ids; captions run to
# tens of tokens, so a longer bound only spends memory (and 10**400 overflows).
MAX_CAPTION_LEN = 10_000
# numpy's largest array dimension; a larger one fails in numpy, naming no key.
_MAX_DIM = np.iinfo(np.intp).max


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
            if not 1 <= value <= _MAX_DIM:
                raise ValidationError(f"{name} must be in [1, {_MAX_DIM}], got {value}")
        if self.vocab_size < 3:
            raise ValidationError("vocab_size must cover the start/end markers (>= 3)")
        if not 2 <= self.max_caption_len <= MAX_CAPTION_LEN:
            raise ValidationError(f"max_caption_len must be in [2, {MAX_CAPTION_LEN}], got {self.max_caption_len}")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.variant == "m3":
            if not self.label_embed_dim or not 1 <= self.label_embed_dim <= _MAX_DIM:
                raise ValidationError(f"m3 requires label_embed_dim in [1, {_MAX_DIM}], got {self.label_embed_dim}")
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


def example_from_record(record: ImageRecord, vocab: Vocabulary, config: ModelConfig) -> CaptionExample:
    tokens = tokenize(record.captions[0])
    ids = encode_caption(vocab, tokens, config.max_caption_len)
    trimmed = ids[: ids.index(END) + 1]
    if not record.objects:
        raise ValidationError(f"record {record.id!r} has no objects to build features from")
    if any(o.feature.shape != (config.visual_dim,) for o in record.objects):
        raise ValidationError(
            f"record {record.id!r}: feature length != visual_dim {config.visual_dim}"
        )
    if config.variant == "m3" and len(record.objects) > config.max_objects:
        raise ValidationError(
            f"record {record.id!r}: {len(record.objects)} objects, max_objects is {config.max_objects}"
        )
    if config.variant == "m3":
        objects = [(o.feature, o.label, o.distance) for o in record.objects]
        return CaptionExample(caption_ids=trimmed, objects=objects)
    # whole-image stand-in for the object-level records: mean object feature
    visual = np.mean([o.feature for o in record.objects], axis=0)
    return CaptionExample(caption_ids=trimmed, visual=visual)


def _check_example(model: Model, example: CaptionExample) -> None:
    if model.config.variant == "m3":
        if example.objects is None:
            raise ValidationError("m3 model requires an example with an object list")
    elif example.visual is None:
        raise ValidationError(f"{model.config.variant} model requires a whole-image feature vector")


# ---------------------------------------------------------------------------
# encoders

# Rows per block of every encoder product. The size is fixed so that a row's
# bits do not depend on how many images are encoded with it.
ENCODE_BLOCK = 8


def _padded(n: int) -> int:
    """``n`` rounded up to whole ENCODE_BLOCKs."""
    return -(-n // ENCODE_BLOCK) * ENCODE_BLOCK


def _reduce_blocks(model: Model, feats: np.ndarray) -> list[Tensor]:
    """``model.reduce`` over the rows of ``feats``, whole blocks, one product a block."""
    return [dense(model.reduce, Tensor(feats[s : s + ENCODE_BLOCK])) for s in range(0, len(feats), ENCODE_BLOCK)]


def _block_row(blocks: list[Tensor], r: int) -> Tensor:
    """Row ``r`` of the rows that ``blocks`` hold in order."""
    i = r % ENCODE_BLOCK
    return slice_axis(blocks[r // ENCODE_BLOCK], 0, i, i + 1)


def _canonical_objects(model: Model, objects) -> list[tuple[np.ndarray, str, float]]:
    """One image's objects, checked, in canonical ascending-distance order."""
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
    return sorted(objects, key=lambda o: (o[2], o[1], o[0].tobytes()))


def _fused_table(model: Model, images: list[list]) -> Tensor:
    """The fused rows (reduced feature ++ label vector) of every object of
    the canonically ordered ``images``, image after image, padded to whole
    blocks, then one zero row. Unknown labels get the zero label vector; a
    padding row is the reduce bias and a zero label vector."""
    cfg = model.config
    objects = [o for image in images for o in image]
    n = _padded(len(objects))
    feats = np.zeros((n, cfg.visual_dim))
    labels = np.zeros((n + 1, cfg.label_embed_dim))
    for r, (feat, label, _) in enumerate(objects):
        feats[r] = feat
        labels[r] = model.glove.lookup(label)
    reduced = _reduce_blocks(model, feats) + [zeros((1, cfg.reduced_dim))]
    return concat([concat(reduced, axis=0), Tensor(labels)], axis=1)


def _object_rows(model: Model, images: list) -> list[Tensor]:
    """The joint m3 encoding of each image, a 1*fused_dim row: fuse per
    object, convolve across the image's object axis (kernel 3, same padding,
    fused -> fused channels), then add its rows in order and scale by 1/k."""
    images = [_canonical_objects(model, objects) for objects in images]
    table = _fused_table(model, images)
    zero = table.shape[0] - 1
    # an object's window: left neighbour, itself, right neighbour, with the
    # zero row past its image's edges; a padding row's window is all zero rows
    windows = np.full((zero, 3), zero)
    r = 0
    for image in images:
        for j in range(len(image)):
            windows[r] = (r - 1 if j > 0 else zero, r, r + 1 if j + 1 < len(image) else zero)
            r += 1
    conv = [
        dense(model.object_conv, concat([take_row(table, windows[s : s + ENCODE_BLOCK, c]) for c in range(3)], axis=1))
        for s in range(0, zero, ENCODE_BLOCK)
    ]
    rows, start = [], 0
    for image in images:
        pooled = _block_row(conv, start)
        for r in range(start + 1, start + len(image)):
            pooled = add(pooled, _block_row(conv, r))
        rows.append(scale(pooled, 1.0 / len(image)))
        start += len(image)
    return rows


def _visual_rows(model: Model, visuals: list) -> list[Tensor]:
    """The m1/m2 encoding of each whole-image feature vector, a 1*reduced_dim row."""
    cfg = model.config
    feats = np.zeros((_padded(len(visuals)), cfg.visual_dim))
    for i, visual in enumerate(visuals):
        visual = np.asarray(visual, dtype=np.float64)
        if visual.shape != (cfg.visual_dim,):
            raise ValidationError(f"visual feature shape {visual.shape} != ({cfg.visual_dim},)")
        feats[i] = visual
    blocks = _reduce_blocks(model, feats)
    return [_block_row(blocks, i) for i in range(len(visuals))]


def fuse_objects(model: Model, objects) -> list[Tensor]:
    """Per-object fused rows (reduced feature ++ label vector), in canonical
    ascending-distance order. Unknown labels get the zero label vector."""
    objects = _canonical_objects(model, objects)
    table = _fused_table(model, [objects])
    return [slice_axis(table, 0, j, j + 1) for j in range(len(objects))]


def encode_objects(model: Model, objects) -> Tensor:
    """Joint m3 encoding of one image's objects: the one-image case of ``encode_batch``."""
    return _object_rows(model, [objects])[0]


def encode(model: Model, example: CaptionExample) -> Tensor:
    """The fixed per-image encoding fed to the decoder at every step: the
    one-image case of ``encode_batch``, bit for bit."""
    _check_example(model, example)
    if model.config.variant == "m3":
        return encode_objects(model, example.objects)
    return _visual_rows(model, [example.visual])[0]


def encode_batch(model: Model, examples: list[CaptionExample]) -> Tensor:
    """The encodings of ``examples``, one row per image (n * encoding_dim),
    each row equal to that image's ``encode``."""
    if not examples:
        raise ValidationError("need at least one example to encode")
    for example in examples:
        _check_example(model, example)
    if model.config.variant == "m3":
        rows = _object_rows(model, [example.objects for example in examples])
    else:
        rows = _visual_rows(model, [example.visual for example in examples])
    return concat(rows, axis=0)


# ---------------------------------------------------------------------------
# training-mode forward


def forward_teacher_forced(model: Model, example: CaptionExample, encoding: Tensor | None = None) -> list[Tensor]:
    """Per-step vocabulary logits under teacher forcing.

    For caption ids [w0..wT] (w0 = <start>, wT = <end>) step t consumes wt
    and produces the logits for w_{t+1}; returns T logit rows of shape 1*V.
    m2 runs its bidirectional decoder over the whole forced input sequence.
    The head runs once per caption, as one product over the T stacked
    decoder states, and each returned row is a slice of that T*V matrix.
    ``encoding`` is the example's row of a batch encoding; without it the
    example is encoded alone, to the same bits.
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
    if encoding is None:
        encoding = encode(model, example)
    elif encoding.shape != (1, cfg.encoding_dim):
        raise ValidationError(f"encoding shape {encoding.shape} != (1, {cfg.encoding_dim})")
    steps = len(ids) - 1
    lang_in = [embed(model.word_embed, ids[t]) for t in range(steps)]
    lang_states = lstm_unroll(model.lang_lstm, lang_in)
    xs = [concat([encoding, h], axis=1) for h in lang_states]
    if cfg.variant == "m2":
        dec_states = bilstm(model.decoder_fwd, model.decoder_bwd, xs)
    else:
        dec_states = lstm_unroll(model.decoder, xs)
    logits = vocab_head(model.head, concat(dec_states, axis=0))
    return [slice_axis(logits, 0, t, t + 1) for t in range(steps)]


# ---------------------------------------------------------------------------
# inference-mode decoding


def _decoder(model: Model) -> LstmParams:
    """The decoder LSTM that generates: m2's forward direction."""
    return model.decoder_fwd if model.config.variant == "m2" else model.decoder


@dataclass
class _DecodeState:
    """B rows of decoding state, as plain arrays. ``ctx`` is the decoder's
    input projection of the encodings, enc @ W[:encoding_dim]: one row per
    state row, or one row that every state row shares."""

    ctx: np.ndarray
    h_lang: np.ndarray
    c_lang: np.ndarray
    h_dec: np.ndarray
    c_dec: np.ndarray

    def take(self, rows: list[int]) -> "_DecodeState":
        """The state of the batch rows listed in ``rows``."""
        ctx = self.ctx if len(self.ctx) == 1 else self.ctx[rows]
        return _DecodeState(ctx, self.h_lang[rows], self.c_lang[rows], self.h_dec[rows], self.c_dec[rows])


def _init_state(model: Model, encodings: Tensor) -> _DecodeState:
    """The zero state of one row per row of the n*encoding_dim
    ``encodings``. Their decoder input projection is computed here, once for
    every step that decodes them."""
    cfg = model.config
    enc = encodings.data
    if enc.ndim != 2 or not enc.shape[0] or enc.shape[1] != cfg.encoding_dim:
        raise ValidationError(
            f"encodings must be n*encoding_dim rows (n >= 1, encoding_dim {cfg.encoding_dim}), got shape {enc.shape}"
        )
    n = enc.shape[0]
    return _DecodeState(
        ctx=enc @ _decoder(model).W.data[: cfg.encoding_dim],
        h_lang=np.zeros((n, cfg.lang_hidden)),
        c_lang=np.zeros((n, cfg.lang_hidden)),
        h_dec=np.zeros((n, cfg.decoder_hidden)),
        c_dec=np.zeros((n, cfg.decoder_hidden)),
    )


def decode_step(model: Model, state: _DecodeState, tokens: np.ndarray) -> tuple[np.ndarray, _DecodeState]:
    """Feed one token to each of B rows, return (logits, next state).

    ``state`` holds B rows and ``tokens`` is a 1-D integer array of B ids;
    the logits come back as a B*V ndarray. The decoder's preactivation adds
    h_lang @ W[encoding_dim:] to the encodings' projection that
    ``_init_state`` computed. m2 generates with its forward direction only:
    the backward half of its head input is zero, because future context
    does not exist at inference, so only the head's first half is read.
    """
    cfg = model.config
    ids = np.asarray(tokens)
    listed = ids.tolist() if ids.ndim == 1 and ids.dtype.kind in "iu" else []
    if not listed or len(listed) != len(state.h_lang) or min(listed) < 0 or max(listed) >= cfg.vocab_size:
        raise ValidationError(
            f"decode_step: need a 1-D integer array of {len(state.h_lang)} ids in [0, {cfg.vocab_size}), got {tokens!r}"
        )
    lang, dec, head = model.lang_lstm, _decoder(model), model.head
    h_lang, c_lang = lstm_step_array(lang, model.word_embed.table.data[ids] @ lang.W.data, state.h_lang, state.c_lang)
    dec_in = state.ctx + h_lang @ dec.W.data[cfg.encoding_dim :]
    h_dec, c_dec = lstm_step_array(dec, dec_in, state.h_dec, state.c_dec)
    logits = h_dec @ head.weight.data[: cfg.decoder_hidden] + head.bias.data
    return logits, _DecodeState(state.ctx, h_lang, c_lang, h_dec, c_dec)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis: one row, or each row of a matrix."""
    m = logits.max(axis=-1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))


def decode_greedy_batch(model: Model, encodings: Tensor, max_len: int | None = None) -> list[list[int]]:
    """Greedy captions of B images at once, one token list per row of the
    B*encoding_dim ``encodings``; each stops at <end> or after max_len tokens.

    Each step takes every row's argmax token; numpy's argmax takes the first
    maximum, so ties break toward the lowest token index. A row leaves the
    batch after the step that picks <end>, so every step is one matrix
    product per weight over the rows still decoding. Stacked rows can
    differ from one-row products in the last bits (~1e-15), so a near-tied
    argmax may in principle pick differently from ``decode_greedy`` on the
    same image.
    """
    if max_len is None:
        max_len = model.config.max_caption_len
    state = _init_state(model, encodings)
    out: list[list[int]] = [[] for _ in range(encodings.shape[0])]
    rows = list(range(encodings.shape[0]))
    tokens = np.full(len(rows), START)
    for _ in range(max_len):
        logits, state = decode_step(model, state, tokens)
        tokens = logits.argmax(axis=1)
        picked = tokens.tolist()
        for row, tok in zip(rows, picked):
            if tok != END:
                out[row].append(tok)
        if END in picked:
            keep = [k for k, tok in enumerate(picked) if tok != END]
            if not keep:
                break
            rows = [rows[k] for k in keep]
            state, tokens = state.take(keep), tokens[keep]
    return out


def decode_greedy(model: Model, encoding: Tensor, max_len: int | None = None) -> list[int]:
    """Argmax decoding of one image from <start>: ``decode_greedy_batch``
    with one row. Stops at <end> or after max_len tokens; ties break toward the
    lowest token index."""
    if encoding.shape[0] != 1:
        raise ValidationError(f"decode_greedy takes one image's encoding, got shape {encoding.shape}")
    return decode_greedy_batch(model, encoding, max_len)[0]


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

    The greedy sequence competes as a fallback, so the returned hypothesis
    never scores below it. It is scored like any finished hypothesis, the
    length-normalized log-probability with <end> counted when reached.

    The live hypotheses and the greedy walk are the rows of one batch,
    stepped by one ``decode_step`` from one row fed <start> that they share:
    the greedy walk is the last row of each later step and takes its
    logits' first maximum, as ``decode_greedy`` does. Every row shares the
    image's one row of decoder input projection. A stacked row can differ
    from a one-row product by ~1e-15, so at a near-tie a beam of any width,
    or its fallback, may keep another token than one-row steps.
    """
    if width < 1:
        raise ValidationError(f"beam width must be >= 1, got {width}")
    if encoding.shape[0] != 1:
        raise ValidationError(f"decode_beam takes one image's encoding, got shape {encoding.shape}")
    state = _init_state(model, encoding)
    if max_len is None:
        max_len = model.config.max_caption_len
    if max_len < 1:
        return []

    # per live beam row: emitted tokens, summed logprob; per row of the next
    # step (the beam's, then the greedy walk's): parent row in ``state``, token
    emitted: list[tuple[int, ...]] = [()]
    rows, tokens, sums = [0], [START], np.zeros(1)
    finished: list[tuple[float, tuple[int, ...]]] = []  # (normalized score, emitted)
    # the greedy walk: its row of the step (None once it has left), emitted tokens, summed logprob
    g, greedy, greedy_sum = 0, [], 0.0

    for it in range(max_len):
        logits, state = decode_step(model, state.take(rows), np.array(tokens))
        lsm = _log_softmax(logits)
        # after the last step every kept hypothesis is terminal by cutoff
        last = it == max_len - 1
        cand_sums = sums[:, None] + lsm[: len(emitted)]
        norms = cand_sums / (it + 1)
        scores = np.concatenate([norms.ravel(), [norm for norm, _ in finished]])
        cut = -np.inf
        if width < scores.size:
            cut = np.partition(scores, scores.size - width)[scores.size - width]
        # (normalized score, emitted, the live row it extends or None once finished)
        pool: list[tuple[float, tuple[int, ...], int | None]] = [
            (norm, done, None) for norm, done in finished if norm >= cut
        ]
        for row, tok in zip(*np.nonzero(norms >= cut)):
            row, tok = int(row), int(tok)
            pool.append((float(norms[row, tok]), emitted[row] + (tok,), None if tok == END else row))
        pool.sort(key=lambda entry: (-entry[0], entry[1]))
        kept = pool[:width]
        finished = [(norm, done) for norm, done, row in kept if row is None or last]
        live = [(done, row) for _, done, row in kept if row is not None and not last]
        emitted, rows = [done for done, _ in live], [row for _, row in live]
        tokens = [done[-1] for done in emitted]
        sums = cand_sums[rows, tokens]
        if g is not None:
            tok = int(logits[g].argmax())
            greedy.append(tok)
            greedy_sum = greedy_sum + float(lsm[g, tok])
            if tok == END or last:
                g = None
            else:
                rows.append(g)
                tokens.append(tok)
                g = len(rows) - 1
        if not rows:
            break

    finished.append((greedy_sum / len(greedy), tuple(greedy)))
    _, best_emitted = min(finished, key=lambda entry: (-entry[0], entry[1]))
    out = list(best_emitted)
    if out and out[-1] == END:
        out.pop()
    return out
