import base64
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from objcap.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    glove_fingerprint,
    load_checkpoint,
    save_checkpoint,
    vocab_fingerprint,
)
from objcap.cli import main
from objcap.data import GloveTable, build_vocab, synth_corpus, write_glove, write_records
from objcap.models import ModelConfig, build, decode_greedy, encode, example_from_record
from objcap.training import TrainConfig, train


def trained_setup(tmp_path, variant="m3", epochs=2):
    records, glove = synth_corpus(seed=4, n_images=5, n_labels=3, visual_dim=6, glove_dim=4)
    vocab = build_vocab(records)
    kwargs = dict(
        variant=variant,
        visual_dim=6,
        vocab_size=len(vocab),
        max_caption_len=14,
        reduced_dim=5,
        text_embed_dim=6,
        lang_hidden=7,
        decoder_hidden=8,
        rng_seed=11,
    )
    if variant == "m3":
        kwargs.update(label_embed_dim=4, max_objects=5)
    model = build(ModelConfig(**kwargs), glove=glove if variant == "m3" else None)
    train(model, records, [], TrainConfig(epochs=epochs, rng_seed=1), vocab)
    return records, glove, vocab, model


def rewrite(path, edit=lambda header: header, body=lambda data: data) -> None:
    """Rewrite the checkpoint at ``path`` with the header line that ``edit``
    returns for the parsed one, and the body that ``body`` returns for the
    bytes after the header: by default, each as it was."""
    line, data = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n" + body(data))


@pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
def test_round_trip_reproduces_decoding(tmp_path, variant):
    records, glove, vocab, model = trained_setup(tmp_path, variant)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    loaded, loaded_vocab = load_checkpoint(path, glove=glove if variant == "m3" else None)
    assert loaded_vocab.tokens == vocab.tokens
    for name in model.params:
        assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes(), name
    rng = np.random.default_rng(0)
    for trial in range(20):
        rec = records[int(rng.integers(0, len(records)))]
        ex = example_from_record(rec, vocab, model.config)
        before = decode_greedy(model, encode(model, ex))
        after = decode_greedy(loaded, encode(loaded, ex))
        assert before == after


def test_checkpoint_bytes_deterministic(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, model, vocab)
    save_checkpoint(p2, model, vocab)
    assert p1.read_bytes() == p2.read_bytes()


def test_glove_mismatch_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    other = GloveTable(
        vectors={w: v + 0.5 for w, v in glove.vectors.items()}, dim=glove.dim
    )
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=other)
    assert "GLOVE" in str(e.value)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, glove=None)


def test_glove_fingerprint_pinned():
    # checkpoints saved so far carry this hash; a change would refuse them all
    table = GloveTable(
        vectors={"dog": np.array([0.5, -1.25, 3.0]), "cat": np.array([1.0, 0.1, -2e-7])}, dim=3
    )
    assert glove_fingerprint(table) == "48c684c251609794f1dfe803be364ffdb699034bebd17022b185d934965eead9"


@pytest.mark.parametrize("existing", [True, False])
def test_interrupted_save_leaves_previous_checkpoint(tmp_path, existing):
    _, _, vocab, model = trained_setup(tmp_path, "m1", epochs=1)
    path = tmp_path / "ck.json"
    if existing:
        save_checkpoint(path, model, vocab)
        before = path.read_bytes()
    model.params["head.bias"].data += 1.0

    class DiskFullAtHeadBias(np.ndarray):  # the header and every earlier parameter are written first
        def astype(self, *args, **kwargs):
            raise OSError("disk full")

    model.params["head.bias"].data = model.params["head.bias"].data.view(DiskFullAtHeadBias)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, vocab)
    assert [p.name for p in tmp_path.iterdir()] == (["ck.json"] if existing else [])
    if existing:
        assert path.read_bytes() == before


def test_tampered_vocab_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)

    def swap_in_token(header):
        header["vocab_tokens"][5] = "swapped-in-token"
        return header

    rewrite(path, swap_in_token)
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert "hash" in str(e.value)


@pytest.mark.parametrize("token", [None, 5, ["cat"]], ids=["null", "number", "list"])
def test_non_string_vocab_token_rejected(tmp_path, token):
    # the hash matches the tokens read through str(), so only a type check
    # on each token can refuse the document
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)

    def swap_in_token(header):
        header["vocab_tokens"][5] = token
        header["vocab_sha256"] = vocab_fingerprint([str(t) for t in header["vocab_tokens"]])
        return header

    rewrite(path, swap_in_token)
    with pytest.raises(CheckpointError, match="vocab_tokens list of strings") as e:
        load_checkpoint(path, glove=glove)
    assert str(path) in str(e.value)


def test_unsupported_version_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    rewrite(path, lambda header: {**header, "format_version": 99})
    with pytest.raises(CheckpointError, match="format version 99"):
        load_checkpoint(path, glove=glove)


def test_shape_mismatch_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    rewrite(path, lambda header: {**header, "params": header["params"][:-1] + [["head.bias", [3]]]})
    with pytest.raises(CheckpointError, match="head.bias"):
        load_checkpoint(path, glove=glove)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda cfg: cfg.update(decoder_layers=2), "decoder_layers"),
        (lambda cfg: cfg.pop("vocab_size"), "vocab_size"),
        (lambda cfg: cfg.update(visual_dim="wide"), "model_config"),
        (lambda cfg: cfg.update(variant="m9"), "m9"),
        (lambda cfg: cfg.update(reduced_dim=2**63), "reduced_dim"),  # beyond any numpy dimension
        (lambda cfg: cfg.update(reduced_dim=2**62), "cannot build the saved model"),  # too large an array
    ],
)
def test_bad_model_config_rejected(tmp_path, edit, named):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)

    def edit_config(header):
        edit(header["model_config"])
        return header

    rewrite(path, edit_config)
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert named in str(e.value) and str(path) in str(e.value)


def test_missing_model_config_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    rewrite(path, lambda header: {k: v for k, v in header.items() if k != "model_config"})
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert "model_config" in str(e.value) and str(path) in str(e.value)


def test_body_is_each_parameters_little_endian_float64_bytes(tmp_path):
    _, _, vocab, model = trained_setup(tmp_path, "m1", epochs=1)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    assert header["format_version"] == FORMAT_VERSION == 3
    assert header["params"] == [[name, list(p.shape)] for name, p in model.params.items()]
    assert body == b"".join(p.data.astype("<f8").tobytes() for p in model.params.values())
    n_params = sum(p.data.size for p in model.params.values())
    assert path.stat().st_size == len(line) + 1 + 8 * n_params


def with_first_value(data: bytes, nbytes: int, value: float) -> bytes:
    """``data`` with the first float64 of its last ``nbytes`` bytes set to ``value``."""
    return data[:-nbytes] + np.array([value], dtype="<f8").tobytes() + data[len(data) - nbytes + 8 :]


def malformed(case, nbytes):
    """The ``rewrite`` arguments that break a saved checkpoint in one way.
    ``head.bias`` is the last parameter: its ``[name, shape]`` ends the
    header's ``params``, and its bytes, ``nbytes`` of them, end the body."""
    def params(edit):  # the header with its params list replaced by edit(params)
        return lambda h: {**h, "params": edit(h["params"])}

    header_cases = {
        "top-level-array": lambda h: [h],
        "no-vocab-tokens": lambda h: {k: v for k, v in h.items() if k != "vocab_tokens"},
        "vocab-tokens-not-list": lambda h: {**h, "vocab_tokens": " ".join(h["vocab_tokens"])},
        "no-params": lambda h: {k: v for k, v in h.items() if k != "params"},
        "params-object": params(dict),  # the format-2 layout
        "entry-not-pair": params(lambda ps: ps[:-1] + ["head.bias"]),
        "entry-without-shape": params(lambda ps: ps[:-1] + [["head.bias"]]),
        "list-data": params(lambda ps: ps[:-1] + [ps[-1] + [[0.0]]]),  # values in the header, as in format 1
        "missing-name": params(lambda ps: ps[:-1]),
        "names-swapped": params(lambda ps: ps[:-2] + [[ps[-1][0], ps[-2][1]], [ps[-2][0], ps[-1][1]]]),
    }
    body_cases = {
        "entry-without-data": lambda b: b[:-nbytes],  # the body ends where head.bias starts
        "truncated-data": lambda b: b[:-3],  # cut inside head.bias' last float
        "data-wrong-length": lambda b: b[:-8],  # one float short
        "one-byte-long": lambda b: b + b"\0",
        "data-one-float-long": lambda b: b + bytes(8),
        "non-numeric-data": lambda b: b[:-nbytes] + b"\xff" * nbytes,  # bytes no float64 number has
        "nan-data": lambda b: with_first_value(b, nbytes, np.nan),
        "inf-data": lambda b: with_first_value(b, nbytes, -np.inf),
    }
    if case in header_cases:
        return {"edit": header_cases[case]}
    return {"body": body_cases[case]}


@pytest.mark.parametrize(
    "case, named",
    [
        ("top-level-array", "not a JSON object"),
        ("no-vocab-tokens", "vocab_tokens"),
        ("vocab-tokens-not-list", "vocab_tokens"),
        ("no-params", "params"),
        ("params-object", "params"),
        ("entry-not-pair", "head.bias"),
        ("entry-without-shape", "head.bias"),
        ("list-data", "head.bias"),
        ("missing-name", "head.bias"),
        ("names-swapped", "head.weight"),
        ("entry-without-data", "head.bias"),
        ("truncated-data", "head.bias"),
        ("data-wrong-length", "head.bias"),
        ("one-byte-long", "head.bias"),
        ("data-one-float-long", "head.bias"),
        ("non-numeric-data", "head.bias"),
        ("nan-data", "head.bias"),
        ("inf-data", "head.bias"),
    ],
)
def test_malformed_document_rejected(tmp_path, case, named):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    assert list(model.params)[-1] == "head.bias"
    rewrite(path, **malformed(case, model.params["head.bias"].data.nbytes))
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert named in str(e.value) and str(path) in str(e.value)


@pytest.mark.parametrize(
    "content",
    [b"", b'{"format_version": 2, "params": {', b"not json", b'{"format_version": 2, "vocab_tokens": ["\xff"]}',
     b"[" * 100_000],
    ids=["empty", "truncated", "not-json", "not-utf8", "nested-too-deep"],
)
def test_undecodable_file_rejected_naming_it(tmp_path, content):
    path = tmp_path / "ck.json"
    path.write_bytes(content)
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path)
    assert str(path) in str(e.value)


def test_unallocatable_dimensions_rejected(tmp_path):
    # 10**16 x reduced_dim float64s is more than any address space maps, so
    # the allocation fails at once
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    rewrite(path, lambda header: {**header, "model_config": {**header["model_config"], "visual_dim": 10**16}})
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert str(path) in str(e.value) and "allocate" in str(e.value)


@pytest.mark.parametrize("version", [1, 2])
def test_format_1_and_2_checkpoints_exit_1_through_eval(tmp_path, capsys, version):
    # the single JSON document the earlier formats wrote: each parameter's
    # values as a decimal list (format 1) or base64 of its float64 bytes (2)
    records, glove, vocab, model = trained_setup(tmp_path, "m3", epochs=1)
    doc = {
        "format_version": version,
        "model_config": asdict(model.config),
        "vocab_tokens": vocab.tokens,
        "vocab_sha256": vocab_fingerprint(vocab.tokens),
        "glove_sha256": glove_fingerprint(glove),
        "params": {
            name: {"shape": list(p.shape),
                   "data": p.data.reshape(-1).tolist() if version == 1
                   else base64.b64encode(p.data.astype("<f8").tobytes()).decode("ascii")}
            for name, p in model.params.items()
        },
    }
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    write_records(tmp_path / "test.jsonl", records)
    write_glove(tmp_path / "glove.txt", glove)
    assert main(["eval", "--checkpoint", str(path), "--test", str(tmp_path / "test.jsonl"),
                 "--glove", str(tmp_path / "glove.txt")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and f"format version {version}" in err and "Traceback" not in err, err


def test_old_format_with_a_long_first_line_is_refused_from_its_first_bytes(tmp_path):
    # a format-2-shaped document whose one line is >= 20 MB, as a paper-dims
    # format-2 checkpoint's is: refused by version without reading that line
    path = tmp_path / "checkpoint.json"
    payload = base64.b64encode(bytes(15 * 2**20)).decode("ascii")
    doc = {"format_version": 2, "model_config": {}, "params": {"head.bias": {"data": payload, "shape": [1]}}}
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    del doc, payload
    assert path.stat().st_size >= 20 * 2**20
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="unsupported checkpoint format version 2") as e:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(e.value)
    assert peak < 2**20, peak
