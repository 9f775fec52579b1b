import json

import numpy as np
import pytest

from objcap.checkpoint import CheckpointError, glove_fingerprint, load_checkpoint, save_checkpoint
from objcap.data import GloveTable, build_vocab, synth_corpus
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
def test_interrupted_save_leaves_previous_checkpoint(tmp_path, monkeypatch, existing):
    _, _, vocab, model = trained_setup(tmp_path, "m1", epochs=1)
    path = tmp_path / "ck.json"
    if existing:
        save_checkpoint(path, model, vocab)
        before = path.read_bytes()
    model.params["head.bias"].data += 1.0

    def dump_partway(doc, fh, **kwargs):
        fh.write('{"format_version":')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_partway)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, vocab)
    assert [p.name for p in tmp_path.iterdir()] == (["ck.json"] if existing else [])
    if existing:
        assert path.read_bytes() == before


def test_tampered_vocab_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    doc = json.loads(path.read_text())
    doc["vocab_tokens"][5] = "swapped-in-token"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert "hash" in str(e.value)


def test_unsupported_version_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, glove=glove)


def test_shape_mismatch_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    doc = json.loads(path.read_text())
    doc["params"]["head.bias"]["shape"] = [3]
    doc["params"]["head.bias"]["data"] = [0.0, 0.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, glove=glove)



@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda cfg: cfg.update(decoder_layers=2), "decoder_layers"),
        (lambda cfg: cfg.pop("vocab_size"), "vocab_size"),
        (lambda cfg: cfg.update(visual_dim="wide"), "model_config"),
        (lambda cfg: cfg.update(variant="m9"), "m9"),
    ],
)
def test_bad_model_config_rejected(tmp_path, edit, named):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    doc = json.loads(path.read_text())
    edit(doc["model_config"])
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert named in str(e.value) and str(path) in str(e.value)


def test_missing_model_config_rejected(tmp_path):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    doc = json.loads(path.read_text())
    del doc["model_config"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert "model_config" in str(e.value) and str(path) in str(e.value)


def malformed(doc, case):
    """A copy of a saved checkpoint document, broken in one way."""
    params, entry = doc["params"], doc["params"]["head.bias"]
    if case == "top-level-array":
        return [doc]
    if case == "no-vocab-tokens":
        del doc["vocab_tokens"]
    elif case == "vocab-tokens-not-list":
        doc["vocab_tokens"] = " ".join(doc["vocab_tokens"])
    elif case == "no-params":
        del doc["params"]
    elif case == "params-not-object":
        doc["params"] = list(params.values())
    elif case == "entry-not-object":
        params["head.bias"] = entry["data"]
    elif case == "entry-without-shape":
        del entry["shape"]
    elif case == "entry-without-data":
        del entry["data"]
    elif case == "non-numeric-data":
        entry["data"] = ["x"] * len(entry["data"])
    elif case == "data-wrong-length":
        entry["data"] = entry["data"][1:]
    elif case == "nan-data":
        entry["data"][0] = float("nan")
    return doc


@pytest.mark.parametrize(
    "case, named",
    [
        ("top-level-array", "not a JSON object"),
        ("no-vocab-tokens", "vocab_tokens"),
        ("vocab-tokens-not-list", "vocab_tokens"),
        ("no-params", "params"),
        ("params-not-object", "params"),
        ("entry-not-object", "head.bias"),
        ("entry-without-shape", "head.bias"),
        ("entry-without-data", "head.bias"),
        ("non-numeric-data", "head.bias"),
        ("data-wrong-length", "head.bias"),
        ("nan-data", "head.bias"),
    ],
)
def test_malformed_document_rejected(tmp_path, case, named):
    _, glove, vocab, model = trained_setup(tmp_path)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, vocab)
    path.write_text(json.dumps(malformed(json.loads(path.read_text()), case)))
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(path, glove=glove)
    assert named in str(e.value) and str(path) in str(e.value)
