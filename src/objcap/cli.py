"""Command line entry point.

Subcommands cover the full pipeline: ``prepare`` converts caption/feature
JSON into the records format, ``synth`` emits a synthetic corpus, ``train``
runs a config-file-driven training job, ``eval`` scores a checkpoint,
``caption`` decodes a single record, and ``bleu`` scores token files.

Exit codes: 0 success, 1 validation failure, 2 usage error. Every command
runs with numpy's floating-point warnings off: an input that overflows is
refused by the program's own finiteness checks, with a message naming it.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .bleu import corpus_bleu
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    ValidationError,
    _atomic_writer,
    _fits,
    _read_json,
    _text_lines,
    build_vocab,
    convert_coco,
    load_glove,
    load_records,
    split_dataset,
    synth_corpus,
    write_glove,
    write_records,
)
from .models import ModelConfig, build, check_beam_width, decode_beam, decode_greedy, encode, example_from_record
from .training import TrainConfig, check_max_n, evaluate, train


@dataclass
class _DataKeys:
    """The run config keys that name the data rather than a config field."""

    records: str
    out_dir: str
    glove: str | None = None
    min_count: int = 1
    split_seed: int = 0


def _config_fields():
    """(owner class, run config key, field) for every key of a run config:
    the data keys, then every ModelConfig and TrainConfig field but
    vocab_size, which the vocabulary fixes, with each rng_seed spelled
    model_seed or train_seed."""
    yield from ((_DataKeys, f.name, f) for f in fields(_DataKeys))
    for cls, seed_key in ((ModelConfig, "model_seed"), (TrainConfig, "train_seed")):
        for f in fields(cls):
            if f.name != "vocab_size":
                yield cls, seed_key if f.name == "rng_seed" else f.name, f


_RUNSPEC_DEFAULTS = {key: f.default for _, key, f in _config_fields() if f.default is not MISSING}
_RUNSPEC_REQUIRED = {key for _, key, f in _config_fields() if f.default is MISSING}
_RUNSPEC_KEYS = _RUNSPEC_REQUIRED | set(_RUNSPEC_DEFAULTS)


def load_runspec(path) -> dict:
    """Read a training run description; unknown keys are rejected outright
    so a typo cannot silently fall back to a default, and each value must
    have its field's type. Errors name the file."""
    doc = _read_json(path, "run config")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: run config must be a JSON object")
    unknown = sorted(doc.keys() - _RUNSPEC_KEYS)
    if unknown:
        raise ValidationError(f"{path}: unknown run config key(s): {unknown}")
    missing = sorted(_RUNSPEC_REQUIRED - doc.keys())
    if missing:
        raise ValidationError(f"{path}: missing run config key(s): {missing}")
    for _, key, f in _config_fields():
        if key in doc and not _fits(doc[key], f.type):
            raise ValidationError(f"{path}: run config key {key!r} must be {f.type}, got {doc[key]!r}")
    for key in ("split_seed", "model_seed", "train_seed"):
        if doc.get(key, 0) < 0:  # numpy's generators take only non-negative seeds
            raise ValidationError(f"{path}: run config key {key!r} must be >= 0, got {doc[key]}")
    spec = dict(_RUNSPEC_DEFAULTS)
    spec.update(doc)
    base = Path(path).resolve().parent
    for key in ("records", "glove", "out_dir"):
        if spec.get(key) is not None:
            spec[key] = str(base / spec[key])  # absolute inputs pass through
    return spec


def _config_args(spec: dict, cls) -> dict:
    """The constructor arguments of ``cls`` that a run config sets."""
    return {f.name: spec[key] for owner, key, f in _config_fields() if owner is cls}


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
    try:
        train_set, val_set, test_set = split_dataset(records, seed=spec["split_seed"])
    except ValidationError as e:  # too few records
        raise ValidationError(f"{spec['records']}: {e}") from None
    try:
        vocab = build_vocab(train_set, min_count=spec["min_count"])
        config = ModelConfig(vocab_size=len(vocab), **_config_args(spec, ModelConfig))
        if config.variant == "m3" and glove is None:
            raise ValidationError("an m3 model needs a GLOVE table: set the 'glove' key to its file")
        model = build(config, glove=glove if config.variant == "m3" else None)
        train_config = TrainConfig(**_config_args(spec, TrainConfig))
    except (ValueError, MemoryError, OverflowError) as e:  # a bad or too large setting
        raise ValidationError(f"{args.config}: {e}") from None
    try:  # every record first, so none fails to fit after training has begun
        for rec in records:
            example_from_record(rec, vocab, config)
        history = train(model, train_set, val_set, train_config, vocab)
    except ValidationError as e:  # a record that does not fit the model, or a batch that is not finite
        raise ValidationError(f"{spec['records']}: {e}") from None
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
    try:
        report = evaluate(model, test_set, vocab, max_n=args.max_n)
    except ValidationError as e:  # records that do not fit the model
        raise ValidationError(f"{args.test} with {args.checkpoint}: {e}") from None
    out = Path(args.out) if args.out else Path(args.checkpoint).parent / "eval_report.json"
    with _atomic_writer(out) as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_json())
    return 0


def _cmd_caption(args) -> int:
    glove = load_glove(args.glove) if args.glove else None
    model, vocab = load_checkpoint(args.checkpoint, glove=glove)
    records = load_records(args.records)
    matches = [r for r in records if r.id == args.record_id]
    if not matches:
        raise ValidationError(f"record id {args.record_id!r} not found in {args.records}")
    try:
        enc = encode(model, example_from_record(matches[0], vocab, model.config))
        ids = decode_greedy(model, enc) if args.beam is None else decode_beam(model, enc, width=args.beam)
    except ValidationError as e:  # a record that does not fit the model, or encodes to overflow
        raise ValidationError(f"{args.records} with {args.checkpoint}: {e}") from None
    print(" ".join(vocab.token_at(i) for i in ids))
    return 0


def _read_lines(path) -> list[str]:
    """The text lines of ``path``; a line that is not UTF-8 raises
    ValidationError naming the file and line."""
    with open(path, "rb") as fh:
        return "".join(text for _, text in _text_lines(fh, path)).splitlines()


def _cmd_bleu(args) -> int:
    hyp_lines, ref_lines = _read_lines(args.hyp), _read_lines(args.refs)
    if len(hyp_lines) != len(ref_lines):
        raise ValidationError(
            f"line count mismatch: {len(hyp_lines)} hypotheses in {args.hyp} vs "
            f"{len(ref_lines)} reference lines in {args.refs}"
        )
    if not hyp_lines:
        raise ValidationError(f"empty input files: {args.hyp} and {args.refs}")
    pairs = []
    for lineno, (hline, rline) in enumerate(zip(hyp_lines, ref_lines), start=1):
        refs = [chunk.split() for chunk in rline.split("\t") if chunk.split()]
        if not refs:
            raise ValidationError(f"{args.refs}, line {lineno}: no reference tokens")
        pairs.append((hline.split(), refs))
    print(corpus_bleu(pairs, max_n=args.max_n))
    return 0


def _checked_int(check):
    """An argparse type for an int that ``check`` accepts, checked while the
    arguments are parsed: a bad value is a usage error, reported before any
    file is read."""

    def parse(text: str) -> int:
        try:
            return check(int(text))
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


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
    p.add_argument("--max-n", type=_checked_int(check_max_n), default=4)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("caption", help="decode one record")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--record-id", required=True)
    p.add_argument("--beam", type=_checked_int(check_beam_width), default=None)
    p.add_argument("--glove", default=None)
    p.set_defaults(func=_cmd_caption)

    p = sub.add_parser("bleu", help="score hypothesis/reference token files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--max-n", type=_checked_int(check_max_n), default=4)
    p.set_defaults(func=_cmd_bleu)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with np.errstate(all="ignore"):  # the finiteness checks name an input that overflows
            return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
