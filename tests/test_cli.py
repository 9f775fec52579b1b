import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_checkpoint import rewrite

from objcap import cli
from objcap.checkpoint import save_checkpoint
from objcap.cli import load_runspec, main
from objcap.data import ValidationError, build_vocab, load_glove, load_records
from objcap.models import MAX_CAPTION_LEN, ModelConfig, build
from objcap.training import TrainConfig


def write_runspec(path, data_dir, out_dir, **overrides):
    spec = {
        "variant": "m3",
        "visual_dim": 16,
        "max_caption_len": 14,
        "epochs": 2,
        "records": str(data_dir / "records.jsonl"),
        "glove": str(data_dir / "glove.txt"),
        "out_dir": str(out_dir),
        "reduced_dim": 8,
        "text_embed_dim": 8,
        "lang_hidden": 8,
        "decoder_hidden": 12,
        "label_embed_dim": 6,
        "max_objects": 5,
        "batch_size": 4,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return spec


def synth_args(data_dir, seed=0, images=12, labels=4):
    return [
        "synth", "--seed", str(seed), "--images", str(images), "--labels", str(labels),
        "--out", str(data_dir), "--visual-dim", "16", "--glove-dim", "6",
    ]


def test_full_pipeline_smoke(tmp_path, capsys):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "run"
    assert main(synth_args(data_dir)) == 0
    assert (data_dir / "records.jsonl").exists() and (data_dir / "glove.txt").exists()

    config = tmp_path / "run.json"
    write_runspec(config, data_dir, out_dir)
    assert main(["train", "--config", str(config)]) == 0
    assert (out_dir / "checkpoint.json").exists()
    assert (out_dir / "history.csv").exists()
    assert (out_dir / "test_records.jsonl").exists()

    assert main([
        "eval", "--checkpoint", str(out_dir / "checkpoint.json"),
        "--test", str(out_dir / "test_records.jsonl"),
        "--glove", str(data_dir / "glove.txt"),
        "--out", str(out_dir / "report.json"),
    ]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) >= {"bleu", "precisions", "brevity_penalty", "hyp_length", "ref_length"}

    some_id = load_records(out_dir / "test_records.jsonl")[0].id
    capsys.readouterr()
    assert main([
        "caption", "--checkpoint", str(out_dir / "checkpoint.json"),
        "--records", str(out_dir / "test_records.jsonl"),
        "--record-id", some_id,
        "--glove", str(data_dir / "glove.txt"),
    ]) == 0
    assert main([
        "caption", "--checkpoint", str(out_dir / "checkpoint.json"),
        "--records", str(out_dir / "test_records.jsonl"),
        "--record-id", some_id, "--beam", "3",
        "--glove", str(data_dir / "glove.txt"),
    ]) == 0


def untrained_caption_args(tmp_path):
    """`caption` arguments for a freshly built m3 checkpoint on a synthetic corpus."""
    data_dir = tmp_path / "data"
    assert main(synth_args(data_dir)) == 0
    records = load_records(data_dir / "records.jsonl")
    vocab = build_vocab(records)
    config = ModelConfig(
        variant="m3", visual_dim=16, vocab_size=len(vocab), max_caption_len=6, reduced_dim=4,
        text_embed_dim=4, lang_hidden=4, decoder_hidden=4, label_embed_dim=6, max_objects=5,
    )
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(checkpoint, build(config, glove=load_glove(data_dir / "glove.txt")), vocab)
    return checkpoint, [
        "caption", "--checkpoint", str(checkpoint),
        "--records", str(data_dir / "records.jsonl"), "--record-id", records[0].id,
        "--glove", str(data_dir / "glove.txt"),
    ]


def test_caption_beam_zero_exits_1(tmp_path, capsys):
    _, args = untrained_caption_args(tmp_path)
    assert main(args + ["--beam", "1"]) == 0
    capsys.readouterr()
    assert main(args + ["--beam", "0"]) == 1
    assert "beam width must be >= 1" in capsys.readouterr().err


def test_caption_bad_model_config_exits_1(tmp_path, capsys):
    checkpoint, args = untrained_caption_args(tmp_path)
    rewrite(checkpoint, lambda header: {**header, "model_config": {**header["model_config"], "decoder_layers": 2}})
    assert main(args) == 1
    assert "decoder_layers" in capsys.readouterr().err
    rewrite(checkpoint, lambda header: {k: v for k, v in header.items() if k != "model_config"})
    assert main(args) == 1
    assert "model_config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["caption", "eval"])
def test_malformed_checkpoint_exits_1(tmp_path, capsys, command):
    checkpoint, args = untrained_caption_args(tmp_path)
    if command == "eval":
        data_dir = tmp_path / "data"
        args = ["eval", "--checkpoint", str(checkpoint), "--test", str(data_dir / "records.jsonl"),
                "--glove", str(data_dir / "glove.txt")]
    saved = checkpoint.read_bytes()
    for edit in (lambda header: [header], lambda header: {k: v for k, v in header.items() if k != "params"},
                 lambda header: {k: v for k, v in header.items() if k != "vocab_tokens"}):
        checkpoint.write_bytes(saved)
        rewrite(checkpoint, edit)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert str(checkpoint) in err and "Traceback" not in err


def test_bleu_identity_prints_one(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    refs = tmp_path / "refs.txt"
    hyp.write_text("a cat on a mat\nthe dog runs\n")
    refs.write_text("a cat on a mat\nthe dog runs\n")
    assert main(["bleu", "--hyp", str(hyp), "--refs", str(refs)]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_bleu_multi_reference_tabs(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    refs = tmp_path / "refs.txt"
    hyp.write_text("a cat\n")
    refs.write_text("a dog\ta cat\n")
    assert main(["bleu", "--hyp", str(hyp), "--refs", str(refs), "--max-n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_bleu_line_count_mismatch(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    refs = tmp_path / "refs.txt"
    hyp.write_text("a\nb\n")
    refs.write_text("a\n")
    assert main(["bleu", "--hyp", str(hyp), "--refs", str(refs)]) == 1
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("hyp_bytes, refs_bytes, bad, message", [
    (b"a b\n\xff c\n", b"a b\na c\n", "hyp", "line 2: not UTF-8"),
    (b"a b\n", b"\xfe\n", "refs", "line 1: not UTF-8"),
    (b"a\nb\n", b"a\n", "both", "mismatch"),
    (b"a\nb\n", b"a\n \t \n", "refs", "line 2: no reference tokens"),
    (b"", b"", "both", "empty input files"),
], ids=["hyp-not-utf8", "refs-not-utf8", "mismatch", "no-reference-tokens", "empty"])
def test_bleu_errors_name_the_files(tmp_path, capsys, hyp_bytes, refs_bytes, bad, message):
    hyp, refs = tmp_path / "hyp.txt", tmp_path / "refs.txt"
    hyp.write_bytes(hyp_bytes)
    refs.write_bytes(refs_bytes)
    assert main(["bleu", "--hyp", str(hyp), "--refs", str(refs)]) == 1
    err = capsys.readouterr().err
    named = {"hyp": [hyp], "refs": [refs], "both": [hyp, refs]}[bad]
    assert all(str(path) in err for path in named) and message in err, err


@pytest.mark.parametrize("max_n", ["1", str(MAX_CAPTION_LEN)])
def test_bleu_max_n_bounds_are_accepted(tmp_path, capsys, max_n):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a b\n")
    assert main(["bleu", "--hyp", str(hyp), "--refs", str(hyp), "--max-n", max_n]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


@pytest.mark.parametrize("max_n", ["0", "-1", str(MAX_CAPTION_LEN + 1), "1000000", "two"])
@pytest.mark.parametrize("command", ["bleu", "eval"])
def test_max_n_out_of_range_exits_2_before_reading_a_file(tmp_path, capsys, command, max_n):
    # the files do not exist: reading one would exit 1 naming it
    missing = str(tmp_path / "missing")
    files = {"bleu": ["--hyp", missing, "--refs", missing],
             "eval": ["--checkpoint", missing, "--test", missing]}
    assert main([command, *files[command], "--max-n", max_n]) == 2
    err = capsys.readouterr().err
    assert "argument --max-n" in err and missing not in err, err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["synth", "--seed", "1"]) == 2


def test_unknown_runspec_key_rejected(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(synth_args(data_dir))
    config = tmp_path / "run.json"
    write_runspec(config, data_dir, tmp_path / "run", learnig_rate=0.1)  # typo on purpose
    assert main(["train", "--config", str(config)]) == 1
    assert "learnig_rate" in capsys.readouterr().err


def test_runspec_missing_required_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"variant": "m3"}))
    assert main(["train", "--config", str(config)]) == 1
    assert "missing" in capsys.readouterr().err


def test_runspec_keys_and_defaults_pinned():
    required = {"variant", "visual_dim", "max_caption_len", "epochs", "records", "out_dir"}
    defaults = {
        "reduced_dim": 128, "text_embed_dim": 256, "lang_hidden": 256, "decoder_hidden": None,
        "label_embed_dim": None, "max_objects": None, "model_seed": 0, "learning_rate": 1e-3,
        "batch_size": 4, "optimizer": "adam", "grad_clip_norm": 5.0, "train_seed": 0,
        "glove": None, "min_count": 1, "split_seed": 0,
    }
    assert cli._RUNSPEC_REQUIRED == required
    assert cli._RUNSPEC_DEFAULTS == defaults
    assert cli._RUNSPEC_KEYS == required | set(defaults)


# The JSON type each run config key takes: (kind, null allowed).
RUNSPEC_TYPES = {
    "records": ("str", False), "out_dir": ("str", False), "glove": ("str", True),
    "min_count": ("int", False), "split_seed": ("int", False), "variant": ("str", False),
    "visual_dim": ("int", False), "max_caption_len": ("int", False), "reduced_dim": ("int", False),
    "text_embed_dim": ("int", False), "lang_hidden": ("int", False), "decoder_hidden": ("int", True),
    "label_embed_dim": ("int", True), "max_objects": ("int", True), "model_seed": ("int", False),
    "epochs": ("int", False), "learning_rate": ("float", False), "batch_size": ("int", False),
    "optimizer": ("str", False), "grad_clip_norm": ("float", True), "train_seed": ("int", False),
}


def write_runspec_with(config, key, value):
    """A complete run config in ``config``'s directory with ``key`` set to ``value``."""
    spec = write_runspec(config, config.parent / "data", config.parent / "run")
    spec[key] = value
    config.write_text(json.dumps(spec))


def test_runspec_types_come_from_the_config_fields():
    declared = {key: f.type for _, key, f in cli._config_fields()}
    assert declared == {
        key: kind + (" | None" if nullable else "") for key, (kind, nullable) in RUNSPEC_TYPES.items()
    }


@pytest.mark.parametrize("key, value", [
    ("visual_dim", "4"), ("epochs", True), ("epochs", 2.0), ("batch_size", None),
    ("learning_rate", "0.1"), ("learning_rate", False), ("learning_rate", float("nan")),
    ("grad_clip_norm", [5.0]), ("variant", 3), ("records", 7), ("out_dir", None), ("glove", {}),
    ("min_count", None),
])
def test_runspec_wrong_value_type_exits_1(tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    write_runspec_with(config, key, value)
    with pytest.raises(ValidationError, match=repr(key)):
        load_runspec(config)
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(config) in err and repr(key) in err


@pytest.mark.parametrize("key, value", [
    ("learning_rate", 0), ("grad_clip_norm", None), ("grad_clip_norm", 1), ("decoder_hidden", None),
    ("glove", None),
])
def test_runspec_accepts_each_allowed_type(tmp_path, key, value):
    config = tmp_path / "run.json"
    write_runspec_with(config, key, value)
    assert load_runspec(config)[key] == value


def test_runspec_invalid_json_names_the_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    for text in ('{"variant": "m3",', "[" * 100_000):  # cut short; nested too deep
        config.write_text(text)
        assert main(["train", "--config", str(config)]) == 1
        assert str(config) in capsys.readouterr().err


_JSON_VALUES = {
    "none": st.none(), "bool": st.booleans(), "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=5),
    "list": st.lists(st.integers(), max_size=2), "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
_ACCEPTS = {"str": {"str"}, "int": {"int"}, "float": {"int", "float"}}


@st.composite
def config_with_one_wrong_value(draw):
    key = draw(st.sampled_from(sorted(RUNSPEC_TYPES)))
    kind, nullable = RUNSPEC_TYPES[key]
    right = _ACCEPTS[kind] | ({"none"} if nullable else set())
    wrong = draw(st.sampled_from(sorted(_JSON_VALUES.keys() - right)))
    return key, draw(_JSON_VALUES[wrong])


@settings(max_examples=150, deadline=None)
@given(config_with_one_wrong_value())
def test_any_wrong_value_type_exits_1_naming_the_key(case):
    key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        write_runspec_with(config, key, value)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["train", "--config", str(config)]) == 1
    assert repr(key) in err.getvalue() and "Traceback" not in err.getvalue()


# The smallest value each integer run config key accepts.
_LOWER_BOUNDS = {
    "min_count": 1, "split_seed": 0, "visual_dim": 1, "max_caption_len": 2, "reduced_dim": 1,
    "text_embed_dim": 1, "lang_hidden": 1, "decoder_hidden": 1, "label_embed_dim": 1, "max_objects": 1,
    "model_seed": 0, "epochs": 1, "batch_size": 1, "train_seed": 0,
}
# Keys that size an array: 2**63 and more does not fit a numpy dimension.
_DIMENSIONS = ("visual_dim", "reduced_dim", "text_embed_dim", "lang_hidden", "decoder_hidden", "label_embed_dim")


@st.composite
def config_with_one_out_of_range_integer(draw):
    """A key and a value that validation rejects: below the key's lower
    bound, above MAX_CAPTION_LEN, or a dimension of 2**63 and more. A valid
    huge value is never drawn, since it would train or allocate."""
    key = draw(st.sampled_from(sorted(_LOWER_BOUNDS)))
    ranges = [st.integers(max_value=_LOWER_BOUNDS[key] - 1)]
    if key == "max_caption_len":
        ranges.append(st.integers(min_value=MAX_CAPTION_LEN + 1))
    if key in _DIMENSIONS:
        ranges.append(st.integers(min_value=2**63))
    return key, draw(st.one_of(ranges))


def test_integer_bounds_cover_every_integer_key():
    assert set(_LOWER_BOUNDS) == {key for key, (kind, _) in RUNSPEC_TYPES.items() if kind == "int"}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("synth")
    assert main(synth_args(data_dir)) == 0
    return data_dir


@settings(max_examples=100, deadline=None)
@given(case=config_with_one_out_of_range_integer())
def test_any_out_of_range_integer_exits_1_naming_the_config(synth_dir, case):
    key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        write_runspec(config, synth_dir, Path(tmp) / "run", **{key: value})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["train", "--config", str(config)]) == 1
        assert not (Path(tmp) / "run").exists()
    assert str(config) in err.getvalue() and key in err.getvalue() and "Traceback" not in err.getvalue()


def test_train_passes_every_runspec_key_to_its_config(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    main(synth_args(data_dir))
    config = tmp_path / "run.json"
    write_runspec(config, data_dir, tmp_path / "run", epochs=1, model_seed=3, train_seed=5,
                  learning_rate=0.01, optimizer="sgd", grad_clip_norm=None, batch_size=2)
    seen = {}
    real_train = cli.train

    def spy_train(model, train_set, val_set, train_config, vocab):
        seen.update(model=model.config, train=train_config)
        return real_train(model, train_set, val_set, train_config, vocab)

    monkeypatch.setattr(cli, "train", spy_train)
    assert main(["train", "--config", str(config)]) == 0
    assert (seen["model"].rng_seed, seen["model"].decoder_hidden, seen["model"].label_embed_dim) == (3, 12, 6)
    assert seen["train"] == TrainConfig(epochs=1, learning_rate=0.01, batch_size=2, optimizer="sgd",
                                        grad_clip_norm=None, rng_seed=5)


def test_runspec_relative_paths(tmp_path):
    data_dir = tmp_path / "data"
    main(synth_args(data_dir))
    config = tmp_path / "run.json"
    spec = write_runspec(config, data_dir, tmp_path / "run")
    spec.update(records="data/records.jsonl", glove="data/glove.txt", out_dir="run")
    config.write_text(json.dumps(spec))
    spec = load_runspec(config)
    assert spec["records"] == str(data_dir / "records.jsonl")
    assert spec["out_dir"] == str(tmp_path / "run")


def test_eval_glove_mismatch_exits_1(tmp_path, capsys):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "run"
    main(synth_args(data_dir))
    config = tmp_path / "run.json"
    write_runspec(config, data_dir, out_dir)
    assert main(["train", "--config", str(config)]) == 0
    # regenerate the corpus with a different seed: other label vectors
    other_dir = tmp_path / "other"
    main(synth_args(other_dir, seed=99))
    assert main([
        "eval", "--checkpoint", str(out_dir / "checkpoint.json"),
        "--test", str(out_dir / "test_records.jsonl"),
        "--glove", str(other_dir / "glove.txt"),
    ]) == 1
    err = capsys.readouterr().err
    assert "hash mismatch" in err and str(other_dir / "glove.txt") in err


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.json"), "--test", str(tmp_path / "x.jsonl")]) == 1


def test_prepare_roundtrip(tmp_path):
    caps = {"7": [f"a small bird {i}" for i in range(5)]}
    feats = {"7": [{"label": "bird", "feature": [0.1, 0.2], "bbox": [1, 2, 3, 4]}]}
    cp, fp, op = tmp_path / "caps.json", tmp_path / "feats.json", tmp_path / "out.jsonl"
    cp.write_text(json.dumps(caps))
    fp.write_text(json.dumps(feats))
    assert main(["prepare", "--coco-captions", str(cp), "--features", str(fp), "--out", str(op)]) == 0
    assert len(load_records(op)) == 1


_CAPTIONS = {"1": [f"caption {i}" for i in range(5)]}
_FEATURES = {"1": [{"label": "owl", "feature": [0.5, 1.0], "bbox": [1, 2, 3, 4]}]}


def with_object(**fields):
    return {"1": [dict(_FEATURES["1"][0], **fields)]}


def with_caption(caption, layout):
    """Captions for image 1 in ``layout`` whose third caption is ``caption``."""
    captions = [f"caption {i}" for i in range(5)]
    captions[2] = caption
    if layout == "mapping":
        return {"1": captions}
    return {"annotations": [{"id": i, "image_id": 1, "caption": c} for i, c in enumerate(captions)]}


def test_prepare_converts_a_numeric_label(tmp_path):
    cp, fp, op = tmp_path / "caps.json", tmp_path / "feats.json", tmp_path / "out.jsonl"
    cp.write_text(json.dumps(_CAPTIONS))
    fp.write_text(json.dumps(with_object(label=17)))
    assert main(["prepare", "--coco-captions", str(cp), "--features", str(fp), "--out", str(op)]) == 0
    assert load_records(op)[0].objects[0].label == "17"


@pytest.mark.parametrize("captions, features, bad", [
    ({"1": 1}, _FEATURES, "captions"),
    ({"1": "a b c d e"}, _FEATURES, "captions"),
    (with_caption(None, "mapping"), _FEATURES, "captions"),
    (with_caption(5, "mapping"), _FEATURES, "captions"),
    (with_caption(["x"], "mapping"), _FEATURES, "captions"),
    (with_caption(None, "annotations"), _FEATURES, "captions"),
    (with_caption(5, "annotations"), _FEATURES, "captions"),
    (with_caption(["x"], "annotations"), _FEATURES, "captions"),
    ({"annotations": 3}, _FEATURES, "captions"),
    ({"annotations": [{"image_id": 1}]}, _FEATURES, "captions"),
    ({"annotations": [{"image_id": 1, "caption": "a", "id": "x"}]}, _FEATURES, "captions"),
    ([1], _FEATURES, "captions"),
    ("{oops", _FEATURES, "captions"),
    (b"\xff", _FEATURES, "captions"),
    (_CAPTIONS, {"1": 5}, "features"),
    (_CAPTIONS, {"1": [5]}, "features"),
    (_CAPTIONS, [1], "features"),
    (_CAPTIONS, "[" * 100_000, "features"),
    (_CAPTIONS, with_object(feature=["x", 1.0]), "image"),
    (_CAPTIONS, with_object(feature=[[0.5], [1.0]]), "image"),
    (_CAPTIONS, with_object(feature=5), "image"),
    (_CAPTIONS, with_object(feature=[float("nan"), 1.0]), "image"),
    (_CAPTIONS, with_object(bbox=["x", 2, 3, 4]), "image"),
    (_CAPTIONS, with_object(bbox=[1, 2, 3]), "image"),
    (_CAPTIONS, with_object(bbox=[1, 2, 3, -4]), "image"),
    (_CAPTIONS, {"2": _FEATURES["1"]}, "image"),
    ({"1": ["a", "b"]}, _FEATURES, "image"),
], ids=[
    "caption-int", "caption-string", "caption-null", "caption-number", "caption-list",
    "annotation-caption-null", "annotation-caption-number", "annotation-caption-list",
    "annotations-int", "annotation-no-caption", "annotation-string-id",
    "captions-list", "captions-not-json", "captions-not-utf8", "objects-int", "object-int", "features-list",
    "features-too-deep", "feature-string", "feature-nested", "feature-int", "feature-nan", "bbox-string",
    "bbox-three", "bbox-negative", "no-captions", "two-captions",
])
def test_prepare_malformed_input_exits_1_naming_the_file(tmp_path, capsys, captions, features, bad):
    cp, fp, op = tmp_path / "caps.json", tmp_path / "feats.json", tmp_path / "out.jsonl"
    for path, doc in ((cp, captions), (fp, features)):
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["prepare", "--coco-captions", str(cp), "--features", str(fp), "--out", str(op)]) == 1
    err = capsys.readouterr().err
    assert str(cp if bad == "captions" else fp) in err, err
    if bad == "image":
        assert "'1'" in err or "'2'" in err, err
    assert not op.exists()


BIG = "1" + "0" * 400  # 10**400, beyond the float range
HUGE = "1" + "0" * 5000  # beyond the 4,300 digits Python parses into an int


@pytest.mark.parametrize("target, literal", [
    ("records", BIG), ("records", HUGE), ("learning_rate", BIG), ("grad_clip_norm", BIG),
    ("reduced_dim", BIG), ("learning_rate", HUGE), ("checkpoint", BIG), ("checkpoint", HUGE),
], ids=lambda value: f"{len(value)}-digits" if value.isdigit() else value)
def test_too_large_integer_literal_exits_1_naming_the_file(tmp_path, capsys, target, literal):
    def put_literal(path, doc):  # "@" marks where the literal goes
        path.write_text(json.dumps(doc).replace('"@"', literal) + "\n")

    data_dir, config = tmp_path / "data", tmp_path / "run.json"
    if target == "checkpoint":
        bad, _ = untrained_caption_args(tmp_path)
        rewrite(bad, lambda header: {**header, "model_config": {**header["model_config"], "visual_dim": "@"}})
        bad.write_bytes(bad.read_bytes().replace(b'"@"', literal.encode(), 1))  # the header comes first
        args = ["eval", "--checkpoint", str(bad), "--test", str(data_dir / "records.jsonl"),
                "--glove", str(data_dir / "glove.txt")]
    else:
        main(synth_args(data_dir))
        spec = write_runspec(config, data_dir, tmp_path / "run")
        if target == "records":
            bad = data_dir / "records.jsonl"
            doc = json.loads(bad.read_text().splitlines()[0])
            # the feature as a decimal list, which still loads, so the literal lands in a value that is read
            doc["objects"][0]["feature"] = ["@"] + load_records(bad)[0].objects[0].feature[1:].tolist()
            put_literal(bad, doc)
        else:
            bad = config
            put_literal(config, dict(spec, **{target: "@"}))
        args = ["train", "--config", str(config)]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err, err
    if target == "records":
        assert "line 1" in err, err


def test_eval_bad_glove_exits_1_naming_the_file(tmp_path):
    glove = tmp_path / "glove.txt"
    glove.write_text("dog 0.5 2.0\ncat nan 1.0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "objcap.cli", "eval", "--checkpoint", str(tmp_path / "ck.json"),
         "--test", str(tmp_path / "test.jsonl"), "--glove", str(glove)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert str(glove) in proc.stderr and "line 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_bad_records_names_the_file(tmp_path, capsys):
    checkpoint, _ = untrained_caption_args(tmp_path)
    test = tmp_path / "test.jsonl"
    test.write_text((tmp_path / "data" / "records.jsonl").read_text().splitlines()[0] + "\n{oops\n")
    args = ["eval", "--checkpoint", str(checkpoint), "--test", str(test),
            "--glove", str(tmp_path / "data" / "glove.txt")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(test) in err and "line 2" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["caption", "eval"])
def test_records_that_do_not_fit_the_model_name_both_files(tmp_path, capsys, command):
    checkpoint, _ = untrained_caption_args(tmp_path)
    records = tmp_path / "narrow" / "records.jsonl"
    main(synth_args(tmp_path / "narrow", images=4) + ["--visual-dim", "3"])  # the model takes 16
    glove = ["--glove", str(tmp_path / "data" / "glove.txt")]
    if command == "eval":
        args = ["eval", "--checkpoint", str(checkpoint), "--test", str(records)] + glove
    else:
        args = ["caption", "--checkpoint", str(checkpoint), "--records", str(records),
                "--record-id", load_records(records)[0].id] + glove
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(records) in err and str(checkpoint) in err and "visual_dim" in err


def test_train_unallocatable_dimensions_exit_1_naming_the_config(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(synth_args(data_dir))
    config = tmp_path / "run.json"
    # 16 x 10**16 float64s is more than any address space maps, so the allocation fails at once
    write_runspec(config, data_dir, tmp_path / "run", reduced_dim=10**16)
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and "allocate" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("max_caption_len", 10**400), ("split_seed", -1), ("model_seed", -1), ("train_seed", -1), ("min_count", 0),
], ids=["max_caption_len", "split_seed", "model_seed", "train_seed", "min_count"])
def test_train_out_of_range_values_exit_1_naming_the_config(tmp_path, capsys, key, value):
    data_dir = tmp_path / "data"
    main(synth_args(data_dir))
    config = tmp_path / "run.json"
    write_runspec(config, data_dir, tmp_path / "run", **{key: value})
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and key in err and "Traceback" not in err


@pytest.mark.parametrize("override, message", [
    ({"max_objects": 1}, "max_objects is 1"), ({"visual_dim": 12}, "visual_dim 12"),
])
def test_train_records_that_do_not_fit_the_model_name_file_and_record(tmp_path, capsys, override, message):
    data_dir = tmp_path / "data"
    main(synth_args(data_dir))
    config = tmp_path / "run.json"
    write_runspec(config, data_dir, tmp_path / "run", **override)
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(data_dir / "records.jsonl") in err and "record 'img" in err and message in err
    assert not (tmp_path / "run").exists()  # it failed before training


def test_train_too_few_records_to_split_names_the_records_file(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(synth_args(data_dir, images=2))
    config = tmp_path / "run.json"
    write_runspec(config, data_dir, tmp_path / "run")
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(data_dir / "records.jsonl") in err and "need at least 3 records" in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


def test_module_entry_point(tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("a b\n")
    proc = subprocess.run(
        [sys.executable, "-m", "objcap.cli", "bleu", "--hyp", str(hyp), "--refs", str(hyp)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.0"


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """The bytes of a tiny corpus's records and GLOVE files and of an m3
    checkpoint built on them: small, so byte mutations often hit structure."""
    data_dir = tmp_path_factory.mktemp("eval_files")
    assert main(["synth", "--seed", "3", "--images", "3", "--labels", "3", "--out", str(data_dir),
                 "--visual-dim", "3", "--glove-dim", "2"]) == 0
    vocab = build_vocab(load_records(data_dir / "records.jsonl"))
    config = ModelConfig(
        variant="m3", visual_dim=3, vocab_size=len(vocab), max_caption_len=6, reduced_dim=2,
        text_embed_dim=2, lang_hidden=2, decoder_hidden=3, label_embed_dim=2, max_objects=5,
    )
    save_checkpoint(data_dir / "checkpoint.json", build(config, glove=load_glove(data_dir / "glove.txt")), vocab)
    return {name: (data_dir / name).read_bytes() for name in ("records.jsonl", "glove.txt", "checkpoint.json")}


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, where, byte in edits:
        pos = where % (len(out) + 1)
        if kind == "flip" and pos < len(out):
            out[pos] ^= 1 << (byte % 8)
        elif kind == "delete":
            del out[pos : pos + 1]
        elif kind == "insert":
            out.insert(pos, byte)
        elif kind == "truncate":
            del out[pos:]
    return bytes(out)


_EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "delete", "insert", "truncate"]), st.integers(0, 2**20), st.integers(0, 255)),
    min_size=1, max_size=2,
)


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(["records.jsonl", "glove.txt", "checkpoint.json"]), edits=_EDITS)
# the checkpoint's raw float64 body (2,768 bytes at the fixture's dims) cut by 1 to 2,000
# bytes (a negative offset counts from the end), and one byte appended to it
@example(target="checkpoint.json", edits=[("truncate", -2, 0)])
@example(target="checkpoint.json", edits=[("truncate", -4, 0)])
@example(target="checkpoint.json", edits=[("truncate", -9, 0)])
@example(target="checkpoint.json", edits=[("truncate", -169, 0)])
@example(target="checkpoint.json", edits=[("truncate", -1001, 0)])
@example(target="checkpoint.json", edits=[("truncate", -2001, 0)])
@example(target="checkpoint.json", edits=[("insert", -1, 0)])
def test_mutated_eval_input_exits_0_or_1_naming_the_file(eval_files, target, edits):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in eval_files}
        for name, data in eval_files.items():
            paths[name].write_bytes(mutate(data, edits) if name == target else data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", str(paths["checkpoint.json"]),
                         "--test", str(paths["records.jsonl"]), "--glove", str(paths["glove.txt"]),
                         "--out", str(Path(tmp) / "report.json")])
    assert code == 0 or (code == 1 and str(paths[target]) in err.getvalue()), err.getvalue()
