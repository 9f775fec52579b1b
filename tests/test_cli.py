import json
import subprocess
import sys

import pytest

from objcap.checkpoint import save_checkpoint
from objcap.cli import load_runspec, main
from objcap.data import ValidationError, build_vocab, load_glove, load_records
from objcap.models import ModelConfig, build


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
    doc = json.loads(checkpoint.read_text())
    doc["model_config"]["decoder_layers"] = 2
    checkpoint.write_text(json.dumps(doc))
    assert main(args) == 1
    assert "decoder_layers" in capsys.readouterr().err
    del doc["model_config"]
    checkpoint.write_text(json.dumps(doc))
    assert main(args) == 1
    assert "model_config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["caption", "eval"])
def test_malformed_checkpoint_exits_1(tmp_path, capsys, command):
    checkpoint, args = untrained_caption_args(tmp_path)
    if command == "eval":
        data_dir = tmp_path / "data"
        args = ["eval", "--checkpoint", str(checkpoint), "--test", str(data_dir / "records.jsonl"),
                "--glove", str(data_dir / "glove.txt")]
    doc = json.loads(checkpoint.read_text())
    for broken in ([doc], {k: v for k, v in doc.items() if k != "params"},
                   {k: v for k, v in doc.items() if k != "vocab_tokens"}):
        checkpoint.write_text(json.dumps(broken))
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
    assert "hash mismatch" in capsys.readouterr().err


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


def test_module_entry_point(tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("a b\n")
    proc = subprocess.run(
        [sys.executable, "-m", "objcap.cli", "bleu", "--hyp", str(hyp), "--refs", str(hyp)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.0"
