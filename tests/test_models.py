import math

import numpy as np
import pytest

from objcap import models
from objcap.data import END, START, GloveTable, ValidationError
from objcap.models import (
    ENCODE_BLOCK,
    MAX_CAPTION_LEN,
    CaptionExample,
    ModelConfig,
    build,
    decode_beam,
    decode_greedy,
    decode_greedy_batch,
    decode_step,
    encode,
    encode_batch,
    encode_objects,
    example_from_record,
    forward_teacher_forced,
    fuse_objects,
    _init_state,
)
from objcap.layers import bilstm, dense, embed, lstm_unroll, vocab_head
from objcap.tensor import (
    Tape, Tensor, add, backward, concat, cross_entropy, log_softmax, mul, scale, softmax, sum_all, zeros,
)
from objcap.data import synth_corpus, build_vocab
from gradcheck import assert_close, finite_diff_check, reference_backward


def tiny_glove(dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return GloveTable(
        vectors={w: rng.uniform(-1, 1, dim) for w in ("cat", "dog", "owl")}, dim=dim
    )


def tiny_config(variant, **kw):
    base = dict(
        variant=variant,
        visual_dim=5,
        vocab_size=6,
        max_caption_len=8,
        reduced_dim=3,
        text_embed_dim=4,
        lang_hidden=3,
        decoder_hidden=4,
        rng_seed=0,
    )
    if variant == "m3":
        base.update(label_embed_dim=2, max_objects=4)
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(variant, seed=0, **kw):
    cfg = tiny_config(variant, rng_seed=seed, **kw)
    glove = tiny_glove(dim=2, seed=1) if variant == "m3" else None
    return build(cfg, glove=glove)


def random_objects(rng, count, dim=5):
    labels = ["cat", "dog", "owl"]
    return [
        (rng.uniform(-1, 1, dim), labels[int(rng.integers(0, 3))], float(rng.uniform(0, 100)))
        for _ in range(count)
    ]


def random_encoding(model, seed):
    rng = np.random.default_rng(seed)
    if model.config.variant == "m3":
        return encode_objects(model, random_objects(rng, int(rng.integers(1, 4))))
    ex = CaptionExample(caption_ids=[START, END], visual=rng.uniform(-1, 1, model.config.visual_dim))
    return encode(model, ex)


def zero_params(model):
    for p in model.params.values():
        p.data[:] = 0.0


def teacher_forced_sum_loss(model, example):
    logits = forward_teacher_forced(model, example)
    total = None
    for t, row in enumerate(logits):
        ce = cross_entropy(row, example.caption_ids[t + 1])
        total = ce if total is None else add(total, ce)
    return total


# --- config / build ---


def test_config_defaults_per_variant():
    assert ModelConfig(variant="m1", visual_dim=4096, vocab_size=10, max_caption_len=16).decoder_hidden == 1000
    assert ModelConfig(variant="m2", visual_dim=2048, vocab_size=10, max_caption_len=16).decoder_hidden == 256
    cfg3 = ModelConfig(
        variant="m3", visual_dim=256, vocab_size=10, max_caption_len=16,
        label_embed_dim=50, max_objects=5,
    )
    assert cfg3.decoder_hidden == 256
    assert cfg3.fused_dim == 178


def test_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(variant="m9", visual_dim=4, vocab_size=8, max_caption_len=8)
    with pytest.raises(ValidationError):
        ModelConfig(variant="m1", visual_dim=0, vocab_size=8, max_caption_len=8)
    with pytest.raises(ValidationError):
        ModelConfig(variant="m3", visual_dim=4, vocab_size=8, max_caption_len=8)  # no label dims
    with pytest.raises(ValidationError):
        ModelConfig(variant="m1", visual_dim=4, vocab_size=2, max_caption_len=8)


def test_config_bounds_caption_length_and_seed():
    base = dict(variant="m1", visual_dim=4, vocab_size=8)
    assert ModelConfig(**base, max_caption_len=MAX_CAPTION_LEN).max_caption_len == MAX_CAPTION_LEN
    for bad in (dict(max_caption_len=MAX_CAPTION_LEN + 1), dict(max_caption_len=10**400),
                dict(max_caption_len=8, rng_seed=-1)):
        with pytest.raises(ValidationError):
            ModelConfig(**base, **bad)


def test_build_deterministic_bytes():
    a = tiny_model("m3", seed=42)
    b = tiny_model("m3", seed=42)
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes(), name
    c = tiny_model("m3", seed=43)
    assert any(a.params[n].data.tobytes() != c.params[n].data.tobytes() for n in a.params)


_HEAD = ["word_embed.table", "lang_lstm.W", "lang_lstm.U", "lang_lstm.b", "reduce.weight", "reduce.bias"]
_TAIL = ["head.weight", "head.bias"]


@pytest.mark.parametrize("variant, expected", [
    ("m1", _HEAD + ["decoder.W", "decoder.U", "decoder.b"] + _TAIL),
    ("m2", _HEAD + ["decoder_fwd.W", "decoder_fwd.U", "decoder_fwd.b",
                    "decoder_bwd.W", "decoder_bwd.U", "decoder_bwd.b"] + _TAIL),
    ("m3", _HEAD + ["object_conv.weight", "object_conv.bias",
                    "decoder.W", "decoder.U", "decoder.b"] + _TAIL),
])
def test_param_names_and_order_pinned(variant, expected):
    # the checkpoint names, and the order clip_gradients sums the gradients in
    assert list(tiny_model(variant).params) == expected


def test_build_m1_reference_dimensions():
    cfg = ModelConfig(variant="m1", visual_dim=4096, vocab_size=50, max_caption_len=16)
    model = build(cfg)
    assert model.params["reduce.weight"].shape == (4096, 128)
    assert model.params["decoder.U"].shape == (1000, 4000)
    assert model.params["decoder.W"].shape == (128 + 256, 4000)


def test_build_m2_reference_dimensions():
    cfg = ModelConfig(variant="m2", visual_dim=2048, vocab_size=50, max_caption_len=16)
    model = build(cfg)
    assert model.params["reduce.weight"].shape == (2048, 128)
    assert model.params["decoder_fwd.U"].shape == (256, 1024)
    assert model.params["decoder_bwd.U"].shape == (256, 1024)
    assert model.params["head.weight"].shape == (512, 50)


def test_build_m2_step_outputs_512_wide():
    # functional check at small scale: each decoder step output is 2h wide
    model = tiny_model("m2")
    ex = CaptionExample(caption_ids=[START, 4, END], visual=np.ones(5) * 0.1)
    cfg = model.config
    from objcap.layers import bilstm, lstm_unroll
    from objcap.layers import embed as embed_row
    from objcap.tensor import concat
    enc = encode(model, ex)
    lang = lstm_unroll(model.lang_lstm, [embed_row(model.word_embed, 1), embed_row(model.word_embed, 4)])
    states = bilstm(model.decoder_fwd, model.decoder_bwd, [concat([enc, h], axis=1) for h in lang])
    assert all(s.shape == (1, 2 * cfg.decoder_hidden) for s in states)


def test_build_m3_fused_concat_shape():
    cfg = ModelConfig(
        variant="m3", visual_dim=64, vocab_size=20, max_caption_len=12,
        reduced_dim=128, label_embed_dim=50, max_objects=5,
    )
    rng = np.random.default_rng(0)
    glove = GloveTable(vectors={"cat": rng.uniform(-1, 1, 50)}, dim=50)
    model = build(cfg, glove=glove)
    rows = fuse_objects(model, [(rng.uniform(-1, 1, 64), "cat", 3.0)])
    assert rows[0].shape == (1, 178)


def test_build_glove_dim_mismatch():
    cfg = tiny_config("m3")
    with pytest.raises(ValidationError):
        build(cfg, glove=tiny_glove(dim=7))


# --- m3 object encoder ---


def test_identical_objects_identical_rows():
    model = tiny_model("m3")
    feat = np.linspace(-1, 1, 5)
    rows = fuse_objects(model, [(feat, "cat", 2.0), (feat, "cat", 2.0)])
    assert np.array_equal(rows[0].data, rows[1].data)


def test_objects_sorted_by_distance():
    model = tiny_model("m3")
    rng = np.random.default_rng(5)
    near = (rng.uniform(-1, 1, 5), "dog", 1.0)
    far = (rng.uniform(-1, 1, 5), "cat", 50.0)
    rows = fuse_objects(model, [far, near])
    rows_sorted = fuse_objects(model, [near, far])
    for a, b in zip(rows, rows_sorted):
        assert np.array_equal(a.data, b.data)
    direct = fuse_objects(model, [near])
    assert np.array_equal(rows[0].data, direct[0].data)


def test_encoding_permutation_invariant():
    model = tiny_model("m3")
    rng = np.random.default_rng(6)
    objs = random_objects(rng, 4)
    base = encode_objects(model, objs).data
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(4)
        shuffled = [objs[i] for i in perm]
        assert np.array_equal(encode_objects(model, shuffled).data, base)


def test_encoding_unchanged_by_pad_budget():
    # growing max_objects only raises the validation bound; the pooled
    # encoding over the same real objects is numerically unchanged
    rng = np.random.default_rng(7)
    objs = random_objects(rng, 3)
    small = build(tiny_config("m3", max_objects=3), glove=tiny_glove(dim=2, seed=1))
    large = build(tiny_config("m3", max_objects=9), glove=tiny_glove(dim=2, seed=1))
    assert np.array_equal(encode_objects(small, objs).data, encode_objects(large, objs).data)


def test_encode_objects_errors():
    model = tiny_model("m3")
    with pytest.raises(ValidationError):
        encode_objects(model, [])
    rng = np.random.default_rng(8)
    with pytest.raises(ValidationError):
        encode_objects(model, random_objects(rng, 5))  # max_objects=4
    with pytest.raises(ValidationError):
        encode_objects(model, [(np.ones(3), "cat", 1.0)])  # wrong feature dim


def test_unknown_label_uses_zero_vector():
    model = tiny_model("m3")
    feat = np.linspace(-1, 1, 5)
    row = fuse_objects(model, [(feat, "unseen-label", 1.0)])[0]
    assert np.all(row.data[0, 3:] == 0.0)  # label block after reduced_dim=3
    assert np.any(row.data[0, :3] != 0.0)


def test_one_object_fused_width():
    model = tiny_model("m3")
    rows = fuse_objects(model, [(np.ones(5), "cat", 1.0)])
    assert rows[0].shape == (1, model.config.fused_dim)
    assert model.config.fused_dim == 3 + 2


# --- the batch encoder: fixed-size blocks ---


def wide_m3_model():
    """m3 with the paper's encoder widths (4096 -> 128, 50-d label vectors,
    a 534 -> 178 convolution) and a tiny decoder."""
    cfg = tiny_config("m3", visual_dim=4096, reduced_dim=128, label_embed_dim=50, max_objects=3 * ENCODE_BLOCK)
    rng = np.random.default_rng(2)
    glove = GloveTable(vectors={w: rng.uniform(-1, 1, 50) for w in ("cat", "dog", "owl")}, dim=50)
    return build(cfg, glove=glove)


def encoder_model(name):
    if name == "m3-wide":
        return wide_m3_model()
    return tiny_model(name, max_objects=3 * ENCODE_BLOCK) if name == "m3" else tiny_model(name)


def image_examples(model, rng, n):
    """``n`` one-image examples of ``model``'s variant; m3 images hold 1-4 objects."""
    dim = model.config.visual_dim
    if model.config.variant == "m3":
        return [CaptionExample(caption_ids=[START, END], objects=random_objects(rng, int(rng.integers(1, 5)), dim))
                for _ in range(n)]
    return [CaptionExample(caption_ids=[START, END], visual=rng.uniform(-1, 1, dim)) for _ in range(n)]


@pytest.mark.parametrize("name", ["m3", "m3-wide"])
def test_fused_row_bits_do_not_depend_on_block_mates_or_position(name):
    # one object fused alone, then at every position of the first block and
    # of two later ones, among other objects
    model = encoder_model(name)
    dim = model.config.visual_dim
    rng = np.random.default_rng(11)
    target = (rng.uniform(-1, 1, dim), "dog", 50.0)
    alone = fuse_objects(model, [target])[0].data
    n = 2 * ENCODE_BLOCK + 2
    for pos in range(n):
        # distances below the target's sort the first ``pos`` others before it
        others = [(rng.uniform(-1, 1, dim), "cat", float(j if j < pos else 100 + j)) for j in range(n - 1)]
        rows = fuse_objects(model, others + [target])
        assert len(rows) == n
        assert np.array_equal(rows[pos].data, alone)


@pytest.mark.parametrize("name", ["m1", "m2", "m3", "m3-wide"])
def test_batch_encoding_rows_equal_encode(name):
    model = encoder_model(name)
    rng = np.random.default_rng(12)
    n = max(12, 2 * ENCODE_BLOCK + 3)
    examples = image_examples(model, rng, n)
    if model.config.variant == "m3":
        assert sum(len(ex.objects) for ex in examples) > 2 * ENCODE_BLOCK
    batch = encode_batch(model, examples)
    assert batch.shape == (n, model.config.encoding_dim)
    for i, ex in enumerate(examples):
        alone = [encode(model, ex), encode_batch(model, [ex])]
        if model.config.variant == "m3":
            alone.append(encode_objects(model, ex.objects))
        for enc in alone:
            assert enc.shape == (1, model.config.encoding_dim)
            assert np.array_equal(batch.data[i : i + 1], enc.data)
    for start, stop in ((0, 1), (1, ENCODE_BLOCK + 2), (ENCODE_BLOCK - 1, n)):
        part = encode_batch(model, examples[start:stop])
        assert part.shape == (stop - start, model.config.encoding_dim)
        assert np.array_equal(part.data, batch.data[start:stop])


def test_encode_batch_errors():
    model = tiny_model("m3")
    with pytest.raises(ValidationError):
        encode_batch(model, [])
    with pytest.raises(ValidationError):
        encode_batch(model, [CaptionExample(caption_ids=[START, END], visual=np.ones(5))])
    with pytest.raises(ValidationError):
        encode_batch(tiny_model("m1"), [CaptionExample(caption_ids=[START, END], visual=np.ones(4))])


@pytest.mark.parametrize("name", ["m1", "m3"])
def test_one_reduce_product_per_block(name):
    # graph guard: the encoder reads each of its weights once per block of
    # ENCODE_BLOCK rows, over every image of the batch
    model = encoder_model(name)
    examples = image_examples(model, np.random.default_rng(13), 2 * ENCODE_BLOCK + 1)
    rows = sum(len(ex.objects) for ex in examples) if name == "m3" else len(examples)
    weights = [model.reduce.weight] + ([model.object_conv.weight] if name == "m3" else [])
    with Tape() as tape:
        encode_batch(model, examples)
    for weight in weights:
        products = [
            inputs[0] for inputs, _, rule in tape.nodes
            if rule.__qualname__.split(".")[0] == "matmul" and inputs[1] is weight
        ]
        assert len(products) == -(-rows // ENCODE_BLOCK)
        assert all(a.shape[0] == ENCODE_BLOCK for a in products)


def reference_object_encoding(model, objects):
    """The m3 encoding of one image as a chain of one-row products: reduce
    and fuse each object, convolve each kernel-3 window, add the outputs in
    order and scale by 1/k. Returns the encoding and the fused rows."""
    ordered = sorted(objects, key=lambda o: (o[2], o[1], o[0].tobytes()))
    rows = []
    for f, label, _ in ordered:
        reduced = dense(model.reduce, Tensor(f.reshape(1, -1)))
        rows.append(concat([reduced, Tensor(model.glove.lookup(label).reshape(1, -1))], axis=1))
    edge = zeros((1, model.config.fused_dim))
    pooled = None
    for j in range(len(rows)):
        left = rows[j - 1] if j > 0 else edge
        right = rows[j + 1] if j + 1 < len(rows) else edge
        out = dense(model.object_conv, concat([left, rows[j], right], axis=1))
        pooled = out if pooled is None else add(pooled, out)
    return scale(pooled, 1.0 / len(rows)), rows


ENCODER_PARAMS = ("reduce.weight", "reduce.bias", "object_conv.weight", "object_conv.bias")


@pytest.mark.parametrize("name", ["m3", "m3-wide"])
def test_encoder_gradients_match_per_object_reference(name):
    model = encoder_model(name)
    rng = np.random.default_rng(14)
    dim = model.config.visual_dim
    images = [random_objects(rng, k, dim) for k in (4, 1, 3, 4, 2, 4, 3)]  # three blocks
    n_objects = sum(map(len, images))
    assert n_objects > 2 * ENCODE_BLOCK
    weights = Tensor(rng.uniform(-1, 1, (len(images), model.config.fused_dim)))
    grads, values = {}, {}
    for run in ("batch", "reference"):
        for p in model.params.values():
            p.grad = None
        with Tape() as tape:
            if run == "batch":
                enc = encode_batch(model, [CaptionExample(caption_ids=[START, END], objects=o) for o in images])
            else:
                encodings, fused = zip(*(reference_object_encoding(model, o) for o in images))
                enc = concat(list(encodings), axis=0)
            loss = sum_all(mul(enc, weights))
        backward(loss, tape)
        values[run] = enc.data
        grads[run] = {name: model.params[name].grad for name in ENCODER_PARAMS}
        if run == "batch":
            # the fused rows: the table every convolution window is taken from
            tables = {id(inputs[0]): inputs[0] for inputs, _, rule in tape.nodes
                      if rule.__qualname__.split(".")[0] == "take_row"}
            (table,) = tables.values()
            grads[run]["fused rows"] = table.grad[:n_objects]
        else:
            grads[run]["fused rows"] = np.concatenate([row.grad for rows in fused for row in rows])
    assert_close(values["batch"], values["reference"], 1e-12)
    for key, want in grads["reference"].items():
        assert_close(grads["batch"][key], want, 1e-12)


@pytest.mark.parametrize("sizes", [(4,), (4, 1, 3, 4, 2, 4)], ids=["one-image", "three-blocks"])
def test_encoder_finite_differences(sizes):
    model = encoder_model("m3")
    rng = np.random.default_rng(15)
    images = [random_objects(rng, k) for k in sizes]
    weights = Tensor(rng.uniform(-1, 1, (len(images), model.config.fused_dim)))
    if len(images) == 1:
        build_loss = lambda: sum_all(mul(encode_objects(model, images[0]), weights))
    else:
        examples = [CaptionExample(caption_ids=[START, END], objects=o) for o in images]
        build_loss = lambda: sum_all(mul(encode_batch(model, examples), weights))
    finite_diff_check(build_loss, [model.params[name] for name in ENCODER_PARAMS])


# --- teacher-forced forward ---


def test_forward_step_count_and_width():
    for variant in ("m1", "m2", "m3"):
        model = tiny_model(variant)
        ids = [START, 4, 5, 4, 5, 4, END]  # five caption words plus start/end
        if variant == "m3":
            ex = CaptionExample(caption_ids=ids, objects=random_objects(np.random.default_rng(1), 2))
        else:
            ex = CaptionExample(caption_ids=ids, visual=np.linspace(-1, 1, 5))
        model.config.max_caption_len = 8
        logits = forward_teacher_forced(model, ex)
        assert len(logits) == 6
        assert all(row.shape == (1, 6) for row in logits)


def test_forward_zero_params_uniform():
    model = tiny_model("m1")
    zero_params(model)
    ex = CaptionExample(caption_ids=[START, 4, END], visual=np.ones(5))
    logits = forward_teacher_forced(model, ex)
    v = model.config.vocab_size
    for row in logits:
        assert np.allclose(softmax(row).data, 1.0 / v)
        assert math.isclose(cross_entropy(row, 4).item(), math.log(v), rel_tol=1e-12)


def test_forward_variant_example_mismatch():
    model = tiny_model("m1")
    with pytest.raises(ValidationError):
        forward_teacher_forced(model, CaptionExample(caption_ids=[START, END], objects=[]))
    model3 = tiny_model("m3")
    with pytest.raises(ValidationError):
        forward_teacher_forced(model3, CaptionExample(caption_ids=[START, END], visual=np.ones(5)))


def test_forward_caption_too_long():
    model = tiny_model("m1", max_caption_len=3)
    ex = CaptionExample(caption_ids=[START, 4, 5, 4, END], visual=np.ones(5))
    with pytest.raises(ValidationError):
        forward_teacher_forced(model, ex)


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
def test_forward_from_a_batch_encoding_row_matches_encoding_alone(variant):
    # training feeds each example its row of the batch encoding: the logits
    # must have the bits of encoding the example alone
    model = encoder_model(variant)
    examples = image_examples(model, np.random.default_rng(17), ENCODE_BLOCK + 3)
    for ex in examples:
        ex.caption_ids = [START, 4, 5, END]
    batch = encode_batch(model, examples)
    for row, ex in enumerate(examples):
        alone = forward_teacher_forced(model, ex)
        given = forward_teacher_forced(model, ex, Tensor(batch.data[row : row + 1]))
        assert all(np.array_equal(a.data, b.data) for a, b in zip(alone, given))
    with pytest.raises(ValidationError):
        forward_teacher_forced(model, examples[0], batch)


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
def test_end_to_end_gradients(variant):
    # total teacher-forced loss vs finite differences over every parameter
    cfg = dict(vocab_size=3, max_caption_len=6)
    model = tiny_model(variant, seed=3, **cfg)
    rng = np.random.default_rng(4)
    ids = [START, 0, 2]  # two-step caption on a 3-token vocabulary
    if variant == "m3":
        ex = CaptionExample(caption_ids=ids, objects=random_objects(rng, 2))
    else:
        ex = CaptionExample(caption_ids=ids, visual=rng.uniform(-1, 1, 5))
    finite_diff_check(lambda: teacher_forced_sum_loss(model, ex), list(model.params.values()))


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
def test_deferred_gradients_match_per_node_reference(variant):
    # a batch of teacher-forced captions: every weight is read at every step
    model = tiny_model(variant, seed=5)
    rng = np.random.default_rng(6)
    examples = []
    for length in (6, 3, 5):
        ids = [START] + [int(i) for i in rng.integers(3, 6, length)] + [END]
        if variant == "m3":
            examples.append(CaptionExample(caption_ids=ids, objects=random_objects(rng, 3)))
        else:
            examples.append(CaptionExample(caption_ids=ids, visual=rng.uniform(-1, 1, 5)))
    grads = {}
    for run in (backward, reference_backward):
        for p in model.params.values():
            p.grad = None
        with Tape() as tape:
            total = None
            for ex in examples:
                loss = teacher_forced_sum_loss(model, ex)
                total = loss if total is None else add(total, loss)
        run(total, tape)
        grads[run] = {name: p.grad.copy() for name, p in model.params.items()}
    got, want = grads[backward], grads[reference_backward]
    assert got.keys() == want.keys() == model.params.keys()
    for name in model.params:
        if name == "word_embed.table":
            assert np.array_equal(got[name], want[name])
        else:
            assert_close(got[name], want[name], 1e-12)


def reference_decoder_states(model, example):
    """The decoder state rows of a teacher-forced caption, built layer by
    layer as forward_teacher_forced builds them."""
    enc = encode(model, example)
    ids = example.caption_ids
    lang = lstm_unroll(model.lang_lstm, [embed(model.word_embed, ids[t]) for t in range(len(ids) - 1)])
    xs = [concat([enc, h], axis=1) for h in lang]
    if model.config.variant == "m2":
        return bilstm(model.decoder_fwd, model.decoder_bwd, xs)
    return lstm_unroll(model.decoder, xs)


def forward_examples(variant, rng):
    for length in (0, 1, 6):  # captions of 1, 2 and 7 steps
        ids = [START] + [int(i) for i in rng.integers(3, 6, length)] + [END]
        if variant == "m3":
            yield CaptionExample(caption_ids=ids, objects=random_objects(rng, 3))
        else:
            yield CaptionExample(caption_ids=ids, visual=rng.uniform(-1, 1, 5))


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
def test_stacked_head_rows_match_per_row_head(variant):
    # the head runs once over the caption's stacked decoder states; each row
    # must equal the head applied to that step's state alone
    model = tiny_model(variant, seed=7)
    for ex in forward_examples(variant, np.random.default_rng(8)):
        rows = forward_teacher_forced(model, ex)
        states = reference_decoder_states(model, ex)
        assert len(rows) == len(states) == len(ex.caption_ids) - 1
        for row, h in zip(rows, states):
            assert row.shape == (1, model.config.vocab_size)
            assert_close(row.data, vocab_head(model.head, h).data, 1e-12)


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
def test_one_head_product_per_caption(variant):
    # graph guard: a one-example tape holds exactly one matmul that reads
    # the head weight, however many steps the caption has
    model = tiny_model(variant, seed=9)
    for ex in forward_examples(variant, np.random.default_rng(10)):
        with Tape() as tape:
            teacher_forced_sum_loss(model, ex)
        head_products = [
            inputs for inputs, _, rule in tape.nodes
            if rule.__qualname__.split(".")[0] == "matmul" and inputs[1] is model.head.weight
        ]
        assert len(head_products) == 1
        assert head_products[0][0].shape == (len(ex.caption_ids) - 1, model.head.in_dim)


# --- example construction ---


def test_example_from_record():
    records, glove = synth_corpus(seed=2, n_images=4, n_labels=3, visual_dim=5, glove_dim=2)
    vocab = build_vocab(records)
    cfg3 = tiny_config("m3", vocab_size=len(vocab), max_caption_len=16)
    ex = example_from_record(records[0], vocab, cfg3)
    assert ex.caption_ids[0] == START and ex.caption_ids[-1] == END
    assert len(ex.objects) == records[0].num_objects
    cfg1 = tiny_config("m1", vocab_size=len(vocab), max_caption_len=16)
    ex1 = example_from_record(records[0], vocab, cfg1)
    feats = np.array([o.feature for o in records[0].objects])
    assert np.allclose(ex1.visual, feats.mean(axis=0))


def test_example_from_record_hands_on_the_records_own_features():
    records, _ = synth_corpus(seed=2, n_images=4, n_labels=3, visual_dim=5, glove_dim=2)
    vocab = build_vocab(records)
    ex = example_from_record(records[0], vocab, tiny_config("m3", vocab_size=len(vocab), max_caption_len=16))
    assert len(ex.objects) == len(records[0].objects)
    for (feature, label, distance), obj in zip(ex.objects, records[0].objects):
        assert feature is obj.feature and (label, distance) == (obj.label, obj.distance)


# --- greedy decoding ---


def test_greedy_rigged_token_repeats_to_cutoff():
    model = tiny_model("m1")
    zero_params(model)
    model.head.bias.data[4] = 5.0  # token 4 always wins
    enc = random_encoding(model, 0)
    out = decode_greedy(model, enc)
    assert out == [4] * model.config.max_caption_len


def test_greedy_never_exceeds_max_len():
    for seed in range(5):
        model = tiny_model("m3", seed=seed)
        out = decode_greedy(model, random_encoding(model, seed))
        assert len(out) <= model.config.max_caption_len


def test_greedy_tie_breaks_to_lowest_index():
    model = tiny_model("m1")
    zero_params(model)  # all logits equal -> argmax is index 0
    out = decode_greedy(model, random_encoding(model, 1))
    assert out == [0] * model.config.max_caption_len


def step_one(model, state, token):
    """decode_step on one row fed the one id ``token``: (its logits row, next state)."""
    logits, state = decode_step(model, state, np.array([token]))
    return logits[0], state


def reference_greedy(model, encoding):
    """Per-image greedy decoding one decode_step at a time, argmax of each
    logits row taking the lowest index among equal maxima."""
    state, token, out = _init_state(model, encoding), START, []
    for _ in range(model.config.max_caption_len):
        logits, state = step_one(model, state, token)
        token = int(np.argmax(logits))
        if token == END:
            break
        out.append(token)
    return out


def test_batched_walk_matches_per_image_greedy():
    # 20 seeds x 3 variants; besides random weights the set holds zero-weight
    # heads with zero or integer biases, whose logits tie exactly
    mixed = 0
    for name, model in threshold_models(range(20)):
        encodings = [random_encoding(model, 1000 * k + len(name)) for k in range(6)]
        batched = decode_greedy_batch(model, concat(encodings, axis=0))
        assert batched == [reference_greedy(model, enc) for enc in encodings], name
        assert batched == [decode_greedy(model, enc) for enc in encodings], name
        mixed += len({len(ids) for ids in batched}) > 1
    # zero-weight heads decode every row alike; most random-weight batches
    # hold rows that stop at different steps
    assert mixed >= 10, mixed


def test_batched_walk_ties_break_to_lowest_index():
    for variant in ("m1", "m2", "m3"):
        model = tiny_model(variant)
        zero_params(model)  # every logit is 0: each row picks token 0 to max_len
        encodings = concat([random_encoding(model, k) for k in range(4)], axis=0)
        assert decode_greedy_batch(model, encodings) == [[0] * model.config.max_caption_len] * 4


def test_batched_walk_respects_max_len():
    model = tiny_model("m1", seed=3)
    encodings = concat([random_encoding(model, k) for k in range(5)], axis=0)
    for max_len in (1, 2, 5):
        assert all(len(ids) <= max_len for ids in decode_greedy_batch(model, encodings, max_len))


def test_decode_step_one_id_gives_a_row_and_ids_give_a_matrix():
    model = tiny_model("m2", seed=5)
    encodings = [random_encoding(model, k) for k in range(3)]
    stacked, _ = decode_step(model, _init_state(model, concat(encodings, axis=0)), np.array([START] * 3))
    assert stacked.shape == (3, model.config.vocab_size)
    for r, enc in enumerate(encodings):
        row, _ = decode_step(model, _init_state(model, enc), np.array([START]))
        assert row.shape == (1, model.config.vocab_size)
        assert np.allclose(stacked[r], row[0], rtol=0.0, atol=1e-12)


def test_decode_greedy_takes_one_image():
    model = tiny_model("m1")
    encodings = concat([random_encoding(model, k) for k in range(2)], axis=0)
    with pytest.raises(ValidationError):
        decode_greedy(model, encodings)


def test_decode_beam_takes_one_image():
    model = tiny_model("m3")
    encodings = concat([random_encoding(model, k) for k in range(2)], axis=0)
    with pytest.raises(ValidationError, match="one image"):
        decode_beam(model, encodings, width=2)


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
@pytest.mark.parametrize(
    "decode",
    [
        lambda model, enc: decode_greedy(model, enc),
        lambda model, enc: decode_greedy_batch(model, enc),
        lambda model, enc: decode_beam(model, enc, width=2),
    ],
    ids=["greedy", "greedy-batch", "beam"],
)
def test_encoding_of_the_wrong_width_is_rejected_naming_encoding_dim(decode, variant):
    model = tiny_model(variant)
    for width in (model.config.encoding_dim - 1, model.config.encoding_dim + 1):
        with pytest.raises(ValidationError, match=f"encoding_dim {model.config.encoding_dim}"):
            decode(model, Tensor(np.zeros((1, width))))


@pytest.mark.parametrize(
    "tokens",
    [np.array([-1]), np.array([6]), np.array([[START]]), np.array([1.0]), np.array([START, START]),
     np.array([], dtype=np.int64), np.array([True])],
    ids=["negative", "past-vocab", "2-D", "float", "two-ids-for-one-row", "empty", "bool"],
)
def test_decode_step_rejects_bad_ids(tokens):
    model = tiny_model("m3")
    assert model.config.vocab_size == 6
    with pytest.raises(ValidationError, match="ids in"):
        decode_step(model, _init_state(model, random_encoding(model, 0)), tokens)


@pytest.mark.parametrize("variant", ["m1", "m3"])
@pytest.mark.parametrize("dims", ["tiny", "desk"])
def test_decode_steps_give_the_teacher_forced_logits(variant, dims):
    """Decoding a caption's tokens one ``decode_step`` at a time from
    ``_init_state`` reproduces ``forward_teacher_forced``'s logit rows to
    1e-12 relative, with the same argmax: the plain-array decoder with its
    encoding projection split off computes what the trained graph computes.
    m2 is left out: its backward direction reads the whole forced caption in
    training, future tokens included, while decoding feeds it zeros, so the
    two differ by design until m2's backward direction reads only the
    prefix (ROADMAP item 3)."""
    size = {} if dims == "tiny" else dict(
        vocab_size=40, reduced_dim=16, text_embed_dim=24, lang_hidden=32, decoder_hidden=48, max_caption_len=12
    )
    for seed in range(4):
        model = tiny_model(variant, seed=seed, **size)
        rng = np.random.default_rng(seed + 500)
        cfg = model.config
        words = rng.integers(4, cfg.vocab_size, int(rng.integers(1, cfg.max_caption_len - 1))).tolist()
        ids = [START] + words + [END]
        if variant == "m3":
            example = CaptionExample(caption_ids=ids, objects=random_objects(rng, int(rng.integers(1, 4))))
        else:
            example = CaptionExample(caption_ids=ids, visual=rng.uniform(-1, 1, cfg.visual_dim))
        rows = forward_teacher_forced(model, example)
        state = _init_state(model, encode(model, example))
        for token, want in zip(ids, rows):
            logits, state = step_one(model, state, token)
            assert_close(logits, want.data[0], 1e-12)
            assert int(np.argmax(logits)) == int(np.argmax(want.data[0]))


# --- beam decoding ---


def enumerate_best(model, encoding, max_len):
    """Brute-force scorer over every possible emission sequence."""
    results = []

    def walk(state, prev_tok, tokens, lp_sum, depth):
        logits, new_state = step_one(model, state, prev_tok)
        lps = log_softmax(logits)
        for tok in range(model.config.vocab_size):
            lp = lp_sum + float(lps[tok])
            emitted = tokens + (tok,)
            norm = lp / len(emitted)
            if tok == END or depth + 1 == max_len:
                results.append((norm, emitted))
            else:
                walk(new_state, tok, emitted, lp, depth + 1)

    walk(_init_state(model, encoding), START, (), 0.0, 0)
    return min(results, key=lambda e: (-e[0], e[1]))


def strip_end(emitted):
    out = list(emitted)
    if out and out[-1] == END:
        out.pop()
    return out


def test_beam_width_zero_rejected():
    model = tiny_model("m1")
    with pytest.raises(ValidationError):
        decode_beam(model, random_encoding(model, 0), width=0)


def test_beam_width_one_equals_greedy():
    for seed in range(12):
        variant = ("m1", "m2", "m3")[seed % 3]
        model = tiny_model(variant, seed=seed)
        enc = random_encoding(model, seed + 100)
        assert decode_beam(model, enc, width=1) == decode_greedy(model, enc)


def test_beam_makes_one_decode_step_per_step(monkeypatch):
    """The live hypotheses and the greedy fallback step as one batch: with
    <end> pushed down every hypothesis runs to max_len, so the beam makes
    max_len steps, the first of the one root row the walks share, each
    later one of width rows plus the greedy row, which is fed the greedy
    caption's tokens."""
    model = tiny_model("m3", seed=3)
    model.head.bias.data[END] -= 1e6
    enc = random_encoding(model, 0)
    greedy = decode_greedy(model, enc, max_len=8)
    fed = []

    def counted(model, state, tokens):
        fed.append(tokens.tolist())
        return decode_step(model, state, tokens)

    monkeypatch.setattr(models, "decode_step", counted)
    assert len(decode_beam(model, enc, width=3, max_len=8)) == 8
    assert [len(tokens) for tokens in fed] == [1] + [4] * 7
    assert [tokens[-1] for tokens in fed] == [START] + greedy[:-1]


def test_beam_matches_exhaustive_enumeration():
    for seed in range(6):
        variant = ("m1", "m2", "m3")[seed % 3]
        model = tiny_model(variant, seed=seed, vocab_size=4)
        enc = random_encoding(model, seed + 200)
        expected = strip_end(enumerate_best(model, enc, max_len=3)[1])
        assert decode_beam(model, enc, width=64, max_len=3) == expected


def test_beam_never_below_greedy_score():
    for seed in range(10):
        model = tiny_model("m3", seed=seed)
        enc = random_encoding(model, seed + 300)
        for width in (1, 2, 3):
            beamed = decode_beam(model, enc, width=width)
            assert sequence_score(model, enc, beamed) >= sequence_score(
                model, enc, decode_greedy(model, enc)
            ) - 1e-15


def sequence_score(model, encoding, tokens, max_len=None):
    """Length-normalized log-probability of emitting ``tokens`` and, when the
    sequence is shorter than max_len, the terminating <end>: the reference
    scorer, decoding ``tokens`` again from <start> one decode_step at a time."""
    if max_len is None:
        max_len = model.config.max_caption_len
    state = _init_state(model, encoding)
    prev = START
    total = 0.0
    for tok in tokens:
        logits, state = step_one(model, state, prev)
        total = total + float(log_softmax(logits)[tok])
        prev = tok
    emitted = len(tokens)
    if len(tokens) < max_len:
        logits, state = step_one(model, state, prev)
        total = total + float(log_softmax(logits)[END])
        emitted += 1
    return total / emitted


def reference_pool_best(model, encoding, width, max_len=None):
    """(score, emitted) of the per-candidate beam's best hypothesis: one tuple
    per (hypothesis, token) pair, all sorted by (-score, emitted)."""
    if max_len is None:
        max_len = model.config.max_caption_len
    logits, state = step_one(model, _init_state(model, encoding), START)
    alive = [((), 0.0, state, log_softmax(logits))]
    finished = []
    for it in range(max_len):
        if not alive:
            break
        last = it == max_len - 1
        pool = [(norm, emitted, None) for norm, emitted in finished]
        for tokens, lp_sum, hyp_state, next_lp in alive:
            for tok in range(model.config.vocab_size):
                lp = lp_sum + float(next_lp[tok])
                emitted = tokens + (tok,)
                norm = lp / len(emitted)
                if tok == END:
                    pool.append((norm, emitted, None))
                else:
                    pool.append((norm, emitted, (lp, hyp_state, tok)))
        pool.sort(key=lambda entry: (-entry[0], entry[1]))
        kept = pool[:width]
        finished = [(norm, emitted) for norm, emitted, cand in kept if cand is None]
        alive = []
        for norm, emitted, cand in kept:
            if cand is None:
                continue
            lp, parent_state, tok = cand
            if last:
                finished.append((norm, emitted))
            else:
                logits, new_state = step_one(model, parent_state, tok)
                alive.append((emitted, lp, new_state, log_softmax(logits)))
    return min(finished, key=lambda entry: (-entry[0], entry[1]))


def reference_beam(model, encoding, width, max_len=None):
    """The per-candidate beam's best, or the greedy fallback, re-scored by
    sequence_score, when that ranks first."""
    if max_len is None:
        max_len = model.config.max_caption_len
    best_norm, best_emitted = reference_pool_best(model, encoding, width, max_len)
    greedy = decode_greedy(model, encoding, max_len)
    greedy_norm = sequence_score(model, encoding, greedy, max_len)
    greedy_emitted = tuple(greedy) + ((END,) if len(greedy) < max_len else ())
    if (-greedy_norm, greedy_emitted) < (-best_norm, best_emitted):
        return greedy
    return strip_end(best_emitted)


def threshold_models(seeds=range(3)):
    """(name, model) pairs on which many candidates share the cutoff score.

    Besides random weights: "flat" and "rounded" heads have zero weight, so
    every logit is a state-independent (zero or integer) bias; "part-tied"
    zeroes the weight of half the tokens, whose logits then tie while the
    other half make the best continuation depend on which tied token was
    kept; "no-end" pushes <end> down by 1e6, so every hypothesis runs to
    max_len.
    """
    for seed in seeds:
        for variant in ("m1", "m2", "m3"):
            rng = np.random.default_rng(seed)
            yield f"{variant}-random-{seed}", tiny_model(variant, seed=seed, vocab_size=9)
            flat = tiny_model(variant, seed=seed, vocab_size=9)
            flat.head.weight.data[:] = 0.0
            yield f"{variant}-flat-{seed}", flat
            rounded = tiny_model(variant, seed=seed, vocab_size=9)
            rounded.head.weight.data[:] = 0.0
            rounded.head.bias.data[:] = np.round(rng.normal(0.0, 1.5, 9))
            yield f"{variant}-rounded-{seed}", rounded
            part = tiny_model(variant, seed=seed, vocab_size=9)
            part.head.weight.data *= 10.0
            part.head.weight.data[:, rng.permutation(9)[:4]] = 0.0
            part.head.bias.data[:] = np.round(rng.normal(0.0, 0.5, 9))
            yield f"{variant}-part-tied-{seed}", part
            no_end = tiny_model(variant, seed=seed, vocab_size=9)
            no_end.head.bias.data[END] -= 1e6
            yield f"{variant}-no-end-{seed}", no_end


@pytest.mark.parametrize("width", [2, 3, 5])
def test_beam_matches_reference_pool_at_threshold(width):
    for name, model in threshold_models():
        for seed in range(2):
            enc = random_encoding(model, seed + 400)
            for max_len in (None, 3):
                assert decode_beam(model, enc, width=width, max_len=max_len) == reference_beam(
                    model, enc, width, max_len
                ), (name, seed, max_len)


@pytest.mark.parametrize("width", [2, 3, 5])
def test_beam_falls_back_to_greedy(width):
    """A case the greedy fallback decides: the pool's own best is another
    sequence, and greedy ranks above it."""
    model = dict(threshold_models(range(4, 5)))["m1-part-tied-4"]
    enc = random_encoding(model, 500)
    greedy = decode_greedy(model, enc)
    assert strip_end(reference_pool_best(model, enc, width)[1]) != greedy
    assert decode_beam(model, enc, width=width) == reference_beam(model, enc, width) == greedy
