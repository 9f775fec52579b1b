import gc
import math
import weakref

import numpy as np
import pytest

from objcap import training
from objcap.bleu import corpus_bleu, corpus_stats
from objcap.data import ValidationError, build_vocab, synth_corpus, tokenize
from objcap.models import MAX_CAPTION_LEN, ModelConfig, build, decode_greedy, encode, example_from_record
from objcap.tensor import Tensor
from objcap.training import (
    DECODE_BLOCK,
    Adam,
    EpochStats,
    EvalReport,
    RunHistory,
    Sgd,
    TrainConfig,
    clip_gradients,
    evaluate,
    teacher_forced_loss,
    train,
    validation_bleu,
)


def small_setup(n_images=6, seed=0, model_seed=1):
    records, glove = synth_corpus(
        seed=seed, n_images=n_images, n_labels=3, visual_dim=6, glove_dim=4
    )
    vocab = build_vocab(records)
    cfg = ModelConfig(
        variant="m3",
        visual_dim=6,
        vocab_size=len(vocab),
        max_caption_len=14,
        reduced_dim=6,
        text_embed_dim=8,
        lang_hidden=10,
        decoder_hidden=12,
        label_embed_dim=4,
        max_objects=5,
        rng_seed=model_seed,
    )
    return records, glove, vocab, build(cfg, glove=glove)


def snapshot(model):
    return {name: p.data.copy() for name, p in model.params.items()}


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, learning_rate=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, optimizer="rmsprop")
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, grad_clip_norm=0.0)


def test_train_config_rejects_a_negative_seed():
    assert TrainConfig(epochs=1, rng_seed=0).rng_seed == 0
    with pytest.raises(ValidationError, match="rng_seed"):
        TrainConfig(epochs=1, rng_seed=-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_learning_rate_rejected(value):
    # a NaN step would turn every weight to NaN before the loss guard fires
    with pytest.raises(ValidationError, match="learning_rate"):
        TrainConfig(epochs=1, learning_rate=value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_grad_clip_norm_rejected(value):
    # a NaN clip norm never clips: norm > nan is always false
    with pytest.raises(ValidationError, match="grad_clip_norm"):
        TrainConfig(epochs=1, grad_clip_norm=value)


def test_zero_learning_rate_is_a_null_update():
    records, glove, vocab, model = small_setup()
    before = snapshot(model)
    cfg = TrainConfig(epochs=3, learning_rate=0.0, optimizer="sgd", rng_seed=0)
    history = train(model, records, records[:2], cfg, vocab)
    for name, p in model.params.items():
        assert np.array_equal(p.data, before[name]), name
    losses = [e.train_loss for e in history.epochs]
    # shuffling permutes float summation order across epochs; the loss is
    # constant up to that reassociation
    assert math.isclose(losses[0], losses[1], rel_tol=1e-12)
    assert math.isclose(losses[0], losses[2], rel_tol=1e-12)


def test_initial_loss_near_uniform_baseline():
    records, glove, vocab, model = small_setup()
    cfg = TrainConfig(epochs=1, learning_rate=0.0, optimizer="sgd", rng_seed=0)
    history = train(model, records, records[:1], cfg, vocab)
    expected = math.log(len(vocab))
    assert abs(history.epochs[0].train_loss - expected) / expected < 0.05


def test_training_reduces_loss():
    records, glove, vocab, model = small_setup()
    cfg = TrainConfig(epochs=12, learning_rate=3e-3, rng_seed=0)
    history = train(model, records, records[:2], cfg, vocab)
    assert history.epochs[-1].train_loss < history.epochs[0].train_loss


def test_training_bitwise_deterministic():
    records, glove, vocab, model_a = small_setup(model_seed=7)
    _, _, _, model_b = small_setup(model_seed=7)
    cfg = TrainConfig(epochs=4, learning_rate=1e-3, rng_seed=3)
    hist_a = train(model_a, records, records[:2], cfg, vocab)
    hist_b = train(model_b, records, records[:2], TrainConfig(epochs=4, learning_rate=1e-3, rng_seed=3), vocab)
    for name in model_a.params:
        assert model_a.params[name].data.tobytes() == model_b.params[name].data.tobytes(), name
    for ea, eb in zip(hist_a.epochs, hist_b.epochs):
        assert ea.train_loss == eb.train_loss
        assert ea.val_bleu == eb.val_bleu


def test_different_seed_changes_trajectory():
    records, glove, vocab, model_a = small_setup(model_seed=7)
    _, _, _, model_b = small_setup(model_seed=7)
    train(model_a, records, [], TrainConfig(epochs=2, rng_seed=0, batch_size=2), vocab)
    train(model_b, records, [], TrainConfig(epochs=2, rng_seed=1, batch_size=2), vocab)
    assert any(
        model_a.params[n].data.tobytes() != model_b.params[n].data.tobytes() for n in model_a.params
    )


def test_empty_training_set_rejected():
    records, glove, vocab, model = small_setup()
    with pytest.raises(ValidationError):
        train(model, [], records, TrainConfig(epochs=1), vocab)


def test_sgd_step():
    p = Tensor([[1.0, 2.0]], requires_grad=True)
    p.grad = np.array([[0.5, -1.0]])
    Sgd({"p": p}, lr=0.1).step()
    assert np.allclose(p.data, [[0.95, 2.1]])


def test_adam_first_step_magnitude():
    # with constant gradient 1, the bias-corrected first step is lr/(1+eps)
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adam({"p": p}, lr=0.01)
    opt.step()
    assert math.isclose(p.data[0], -0.01, rel_tol=1e-6)


def textbook_adam(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam over whole arrays, one temporary per operation: the reference
    the blocked in-place ``Adam.step`` must reproduce bit for bit."""
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, step_grads in enumerate(grads, start=1):
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        for k, g in step_grads.items():
            m[k] *= beta1
            m[k] += (1.0 - beta1) * g
            v[k] *= beta2
            v[k] += (1.0 - beta2) * g * g
            params[k] -= lr * (m[k] / bias1) / (np.sqrt(v[k] / bias2) + eps)
    return params, m, v


def test_blocked_adam_matches_textbook_formula_bitwise():
    block = training._ADAM_BLOCK
    shapes = {
        "one": (1,),
        "under": (block - 1,),
        "exact": (block,),
        "over": (block + 1,),
        "two_and_tail": (2 * block + 3,),
        "matrix": (37, 901),  # 2-D, 33337 entries: two full blocks and a tail
    }
    rng = np.random.default_rng(0)
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    # gradients of mixed scale, with exact zeros, over five steps
    def gradient(shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape) * (rng.random(shape) > 0.05)

    grads = [{k: gradient(s) for k, s in shapes.items()} for _ in range(5)]
    params = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
    idle = Tensor(rng.normal(size=(3, 4)), requires_grad=True)  # never gets a gradient
    idle_before = idle.data.copy()
    opt = Adam({**params, "idle": idle}, lr=3e-3)
    for step_grads in grads:
        for k, g in step_grads.items():
            params[k].grad = g
        opt.step()
    want, want_m, want_v = textbook_adam({k: a.copy() for k, a in init.items()}, grads, lr=3e-3)
    for k in shapes:
        assert np.array_equal(params[k].data, want[k]), k
        assert np.array_equal(opt.m[k], want_m[k]), k
        assert np.array_equal(opt.v[k], want_v[k]), k
    assert np.array_equal(idle.data, idle_before)
    assert not opt.m["idle"].any() and not opt.v["idle"].any()


def test_clip_gradients():
    a = Tensor([3.0], requires_grad=True)
    b = Tensor([4.0], requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    norm = clip_gradients({"a": a, "b": b}, max_norm=2.5)
    assert math.isclose(norm, 5.0, rel_tol=1e-12)
    assert math.isclose(math.hypot(a.grad[0], b.grad[0]), 2.5, rel_tol=1e-12)
    # under the cap: untouched
    a.grad = np.array([0.1])
    b.grad = np.array([0.1])
    clip_gradients({"a": a, "b": b}, max_norm=2.5)
    assert a.grad[0] == 0.1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("clip", [5.0, None])
def test_non_finite_loss_stops_before_the_update(clip):
    records, _, vocab, model = small_setup()
    model.params["head.bias"].data[0] = math.inf
    before = snapshot(model)
    with pytest.raises(ValidationError, match="epoch 1, batch 1: non-finite"):
        train(model, records, [], TrainConfig(epochs=2, grad_clip_norm=clip), vocab)
    for name, data in snapshot(model).items():
        assert data.tobytes() == before[name].tobytes(), name


def test_non_finite_gradient_norm_names_epoch_and_batch(monkeypatch):
    records, _, vocab, model = small_setup()  # 6 images, batch 4: 2 batches per epoch
    norms = iter([1.0, 1.0, math.nan])
    monkeypatch.setattr(training, "clip_gradients", lambda params, max_norm: next(norms))
    with pytest.raises(ValidationError, match="epoch 2, batch 1: non-finite .* gradient norm nan"):
        train(model, records, [], TrainConfig(epochs=3), vocab)


def test_train_releases_each_batch_tape(monkeypatch):
    # with the collector off, a tape still referenced from its own outputs
    # would outlive train: each must be freed by reference counting
    records, _, vocab, model = small_setup()
    tapes = []
    real_backward = training.backward

    def keep_backward(loss, tape):
        tapes.append(weakref.ref(tape))
        real_backward(loss, tape)

    monkeypatch.setattr(training, "backward", keep_backward)
    enabled = gc.isenabled()
    gc.disable()
    try:
        train(model, records, [], TrainConfig(epochs=1), vocab)
        alive = [ref() is not None for ref in tapes]
    finally:
        if enabled:
            gc.enable()
    assert len(alive) == 2  # 6 images in batches of 4
    assert not any(alive)


def test_train_returns_a_model_without_gradients():
    records, _, vocab, model = small_setup()
    for p in model.params.values():  # stale gradients from an earlier pass
        p.grad = np.ones_like(p.data)
    train(model, records, records[:2], TrainConfig(epochs=2), vocab)
    assert [name for name, p in model.params.items() if p.grad is not None] == []


def test_stale_gradients_do_not_change_training():
    runs = []
    for stale in (False, True):
        records, _, vocab, model = small_setup()
        if stale:
            for p in model.params.values():
                p.grad = np.ones_like(p.data)
        history = train(model, records, [], TrainConfig(epochs=2), vocab)
        runs.append(([e.train_loss for e in history.epochs], snapshot(model)))
    (losses0, weights0), (losses1, weights1) = runs
    assert losses0 == losses1
    for name, data in weights0.items():
        assert data.tobytes() == weights1[name].tobytes(), name


def test_teacher_forced_loss_counts_steps():
    records, glove, vocab, model = small_setup()
    from objcap.models import example_from_record

    ex = example_from_record(records[0], vocab, model.config)
    loss, steps = teacher_forced_loss(model, ex)
    assert steps == len(ex.caption_ids) - 1
    assert loss.item() > 0


def test_history_csv_format(tmp_path):
    records, glove, vocab, model = small_setup()
    history = train(model, records, records[:2], TrainConfig(epochs=2, rng_seed=0), vocab)
    p = tmp_path / "history.csv"
    history.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_bleu,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == history.epochs[0].train_loss


def test_interrupted_history_csv_leaves_previous_file(tmp_path):
    class ReprInterrupted(float):
        def __repr__(self):
            raise KeyboardInterrupt

    p = tmp_path / "history.csv"
    RunHistory([EpochStats(1, 0.75, 0.125, 2.0)]).to_csv(p)
    before = p.read_bytes()
    history = RunHistory([EpochStats(1, 0.5, 0.25, 1.0), EpochStats(2, ReprInterrupted(0.4), 0.5, 1.0)])
    with pytest.raises(KeyboardInterrupt):
        history.to_csv(p)
    assert [q.name for q in tmp_path.iterdir()] == ["history.csv"]
    assert p.read_bytes() == before


def test_validation_bleu_empty_is_nan():
    records, glove, vocab, model = small_setup()
    assert math.isnan(validation_bleu(model, [], vocab))


def test_evaluate_report_fields():
    records, glove, vocab, model = small_setup()
    report = evaluate(model, records, vocab)
    assert report.n_images == len(records)
    assert len(report.precisions) == 4
    assert 0.0 <= report.bleu <= 1.0
    assert report.hyp_length >= 0 and report.ref_length > 0
    doc = report.to_json()
    assert '"bleu"' in doc and '"brevity_penalty"' in doc and '"precisions"' in doc


def test_evaluate_untrained_model_scores_near_zero():
    records, glove, vocab, model = small_setup(n_images=10)
    report = evaluate(model, records, vocab)
    assert report.bleu < 0.05


def test_evaluate_empty_test_set():
    records, glove, vocab, model = small_setup()
    with pytest.raises(ValidationError):
        evaluate(model, [], vocab)


@pytest.mark.parametrize("max_n", [0, -1, MAX_CAPTION_LEN + 1])
def test_evaluate_checks_max_n_before_decoding(monkeypatch, max_n):
    def no_decoding(model, records, vocab):
        raise AssertionError("decoded before max_n was checked")

    monkeypatch.setattr(training, "_decode_pairs", no_decoding)
    with pytest.raises(ValueError, match=f"max_n must be in \\[1, {MAX_CAPTION_LEN}\\], got {max_n}"):
        evaluate(None, [None], None, max_n=max_n)


def test_evaluate_memorized_corpus_scores_one():
    # overfit two images; exact first-reference reproduction means BLEU 1.0
    records, glove, vocab, model = small_setup(n_images=2, model_seed=3)
    cfg = TrainConfig(epochs=220, learning_rate=1e-2, batch_size=2, rng_seed=0)
    train(model, records, [], cfg, vocab)
    report = evaluate(model, records, vocab)
    assert report.bleu == 1.0


def reference_evaluate(model, test_set, vocab, max_n=4):
    """The per-image evaluation: one decode_greedy per image, and the report
    assembled field by field from corpus_stats. Also returns the captions."""
    pairs = []
    for rec in sorted(test_set, key=lambda r: r.id):
        ids = decode_greedy(model, encode(model, example_from_record(rec, vocab, model.config)))
        pairs.append(([vocab.token_at(i) for i in ids], [tokenize(c) for c in rec.captions]))
    clipped, totals, hyp_len, ref_len = corpus_stats(pairs, max_n=max_n)
    if hyp_len == 0:
        bp = 0.0
    else:
        bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    report = EvalReport(
        bleu=corpus_bleu(pairs, max_n=max_n),
        max_n=max_n,
        precisions=[(clipped[k] / totals[k]) if totals[k] else 0.0 for k in range(max_n)],
        brevity_penalty=bp,
        hyp_length=hyp_len,
        ref_length=ref_len,
        n_images=len(pairs),
    )
    return report, [hyp for hyp, _ in pairs]


def test_evaluate_in_several_blocks_matches_per_image_reference():
    records, glove, vocab, model = small_setup(n_images=170, seed=2, model_seed=4)
    train(model, records[:16], [], TrainConfig(epochs=20, learning_rate=1e-2, rng_seed=0), vocab)
    test_set = records[16:]
    assert len(test_set) > 2 * DECODE_BLOCK
    expected, captions = reference_evaluate(model, test_set, vocab)
    assert len({len(c) for c in captions}) > 1  # captions stop at different steps
    assert expected.bleu > 0.0
    assert evaluate(model, test_set, vocab).to_json() == expected.to_json()
    assert validation_bleu(model, test_set, vocab) == expected.bleu


FIXED_PAIRS = [
    ("a cat sits on the mat".split(), ["a cat sat on the mat".split(), "the cat is on a mat".split()]),
    ("two dogs run".split(), ["two dogs run in the park".split(), "dogs running in a park".split()]),
    ("the cat on the mat".split(), ["a cat on the mat".split()]),
]


@pytest.mark.parametrize(
    "max_n, expected",
    [
        (4, '{"bleu":0.4331572214520501,"brevity_penalty":0.8668778997501817,"hyp_length":14,'
            '"max_n":4,"n_images":3,"precisions":[0.8571428571428571,0.7272727272727273,0.5,0.2],'
            '"ref_length":16}'),
        (2, '{"bleu":0.6844365401565561,"brevity_penalty":0.8668778997501817,"hyp_length":14,'
            '"max_n":2,"n_images":3,"precisions":[0.8571428571428571,0.7272727272727273],'
            '"ref_length":16}'),
    ],
)
def test_eval_report_json_pinned_on_fixed_corpus(monkeypatch, max_n, expected):
    monkeypatch.setattr(training, "_decode_pairs", lambda model, records, vocab: FIXED_PAIRS)
    assert evaluate(None, [None] * 3, None, max_n=max_n).to_json() == expected
