"""Command line entry point.

Subcommands cover the full pipeline: ``prepare`` converts caption/feature
JSON into the records format, ``synth`` emits a synthetic corpus, ``train``
runs a config-file-driven training job, ``eval`` scores a checkpoint,
``caption`` decodes a single record, and ``bleu`` scores token files.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bleu import corpus_bleu
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    ValidationError,
    build_vocab,
    convert_coco,
    load_glove,
    load_records,
    split_dataset,
    synth_corpus,
    write_glove,
    write_records,
)
from .models import ModelConfig, build, decode_beam, decode_greedy, encode, example_from_record
from .training import TrainConfig, evaluate, train

_RUNSPEC_DEFAULTS = {
    "reduced_dim": 128,
    "text_embed_dim": 256,
    "lang_hidden": 256,
    "decoder_hidden": None,
    "label_embed_dim": None,
    "max_objects": None,
    "model_seed": 0,
    "learning_rate": 1e-3,
    "batch_size": 4,
    "optimizer": "adam",
    "grad_clip_norm": 5.0,
    "train_seed": 0,
    "glove": None,
    "min_count": 1,
    "split_seed": 0,
}
_RUNSPEC_REQUIRED = {"variant", "visual_dim", "max_caption_len", "epochs", "records", "out_dir"}
_RUNSPEC_KEYS = _RUNSPEC_REQUIRED | set(_RUNSPEC_DEFAULTS)


def load_runspec(path) -> dict:
    """Read a training run description; unknown keys are rejected outright
    so a typo cannot silently fall back to a default."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("run config must be a JSON object")
    unknown = sorted(doc.keys() - _RUNSPEC_KEYS)
    if unknown:
        raise ValidationError(f"unknown run config key(s): {unknown}")
    missing = sorted(_RUNSPEC_REQUIRED - doc.keys())
    if missing:
        raise ValidationError(f"missing run config key(s): {missing}")
    spec = dict(_RUNSPEC_DEFAULTS)
    spec.update(doc)
    base = Path(path).resolve().parent
    for key in ("records", "glove", "out_dir"):
        if spec.get(key) is not None:
            spec[key] = str(base / spec[key])  # absolute inputs pass through
    return spec


def _cmd_prepare(args) -> int:
    count = convert_coco(args.coco_captions, args.features, args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    records, glove = synth_corpus(
        seed=args.seed,
        n_images=args.images,
        n_labels=args.labels,
        visual_dim=args.visual_dim,
        glove_dim=args.glove_dim,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records(out / "records.jsonl", records)
    write_glove(out / "glove.txt", glove)
    print(f"wrote {len(records)} records and {len(glove.vectors)} label vectors to {out}")
    return 0


def _cmd_train(args) -> int:
    spec = load_runspec(args.config)
    records = load_records(spec["records"])
    glove = load_glove(spec["glove"]) if spec["glove"] else None
    train_set, val_set, test_set = split_dataset(records, seed=spec["split_seed"])
    vocab = build_vocab(train_set, min_count=spec["min_count"])
    config = ModelConfig(
        variant=spec["variant"],
        visual_dim=spec["visual_dim"],
        vocab_size=len(vocab),
        max_caption_len=spec["max_caption_len"],
        reduced_dim=spec["reduced_dim"],
        text_embed_dim=spec["text_embed_dim"],
        lang_hidden=spec["lang_hidden"],
        decoder_hidden=spec["decoder_hidden"],
        label_embed_dim=spec["label_embed_dim"],
        max_objects=spec["max_objects"],
        rng_seed=spec["model_seed"],
    )
    model = build(config, glove=glove if config.variant == "m3" else None)
    train_config = TrainConfig(
        epochs=spec["epochs"],
        learning_rate=spec["learning_rate"],
        batch_size=spec["batch_size"],
        optimizer=spec["optimizer"],
        grad_clip_norm=spec["grad_clip_norm"],
        rng_seed=spec["train_seed"],
    )
    history = train(model, train_set, val_set, train_config, vocab)
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.json", model, vocab)
    history.to_csv(out_dir / "history.csv")
    write_records(out_dir / "test_records.jsonl", test_set)
    last = history.epochs[-1]
    print(f"trained {config.variant} for {last.epoch} epochs on {len(train_set)} images")
    print(f"final train loss {last.train_loss:.4f} nats/token, val bleu {last.val_bleu:.4f}")
    print(f"outputs in {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    glove = load_glove(args.glove) if args.glove else None
    model, vocab = load_checkpoint(args.checkpoint, glove=glove)
    test_set = load_records(args.test)
    report = evaluate(model, test_set, vocab, max_n=args.max_n)
    out = Path(args.out) if args.out else Path(args.checkpoint).parent / "eval_report.json"
    out.write_text(report.to_json() + "\n", encoding="utf-8")
    print(report.to_json())
    return 0


def _cmd_caption(args) -> int:
    glove = load_glove(args.glove) if args.glove else None
    model, vocab = load_checkpoint(args.checkpoint, glove=glove)
    records = load_records(args.records)
    matches = [r for r in records if r.id == args.record_id]
    if not matches:
        raise ValidationError(f"record id {args.record_id!r} not found in {args.records}")
    ex = example_from_record(matches[0], vocab, model.config)
    enc = encode(model, ex)
    if args.beam is not None:
        ids = decode_beam(model, enc, width=args.beam)
    else:
        ids = decode_greedy(model, enc)
    print(" ".join(vocab.token_at(i) for i in ids))
    return 0


def _cmd_bleu(args) -> int:
    with open(args.hyp, encoding="utf-8") as fh:
        hyp_lines = fh.read().splitlines()
    with open(args.refs, encoding="utf-8") as fh:
        ref_lines = fh.read().splitlines()
    if len(hyp_lines) != len(ref_lines):
        raise ValidationError(
            f"line count mismatch: {len(hyp_lines)} hypotheses vs {len(ref_lines)} reference lines"
        )
    if not hyp_lines:
        raise ValidationError("empty input files")
    pairs = []
    for lineno, (hline, rline) in enumerate(zip(hyp_lines, ref_lines), start=1):
        refs = [chunk.split() for chunk in rline.split("\t") if chunk.split()]
        if not refs:
            raise ValidationError(f"refs line {lineno}: no reference tokens")
        pairs.append((hline.split(), refs))
    print(corpus_bleu(pairs, max_n=args.max_n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objcap",
        description="object-level image captioning: data prep, training, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="convert caption + feature JSON into records")
    p.add_argument("--coco-captions", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--visual-dim", type=int, default=64)
    p.add_argument("--glove-dim", type=int, default=16)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on test records")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--glove", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("caption", help="decode one record")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--record-id", required=True)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--glove", default=None)
    p.set_defaults(func=_cmd_caption)

    p = sub.add_parser("bleu", help="score hypothesis/reference token files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=_cmd_bleu)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
