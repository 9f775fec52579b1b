"""Checkpoint persistence.

A checkpoint is one JSON document: format version, model config, vocabulary,
and every named parameter as a decimal array. Floats serialize through
Python's shortest round-trip repr, so load(save(model)) reproduces forward
passes bit for bit. For m3 models the document also carries a fingerprint of
the GLOVE table the model was built against; loading with different label
vectors is refused.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import RESERVED_TOKENS, GloveTable, ValidationError, Vocabulary, glove_lines
from .models import Model, ModelConfig, build

FORMAT_VERSION = 1


class CheckpointError(ValidationError):
    """Raised when a checkpoint cannot be loaded against the given inputs."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def glove_fingerprint(table: GloveTable) -> str:
    return _sha256("\n".join(glove_lines(table)))


def vocab_fingerprint(tokens: list[str]) -> str:
    return _sha256("\n".join(tokens))


def save_checkpoint(path, model: Model, vocab: Vocabulary) -> None:
    if len(vocab) != model.config.vocab_size:
        raise CheckpointError(
            f"vocabulary size {len(vocab)} != model vocab_size {model.config.vocab_size}"
        )
    doc = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "vocab_tokens": vocab.tokens,
        "vocab_sha256": vocab_fingerprint(vocab.tokens),
        "glove_sha256": glove_fingerprint(model.glove) if model.glove is not None else None,
        "params": {
            name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in model.params.items()
        },
    }
    # write a sibling temp file, then rename it over the target: an
    # interrupted save leaves the previous checkpoint as it was
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, glove: GloveTable | None = None) -> tuple[Model, Vocabulary]:
    """Rebuild the model and vocabulary. m3 checkpoints require the same
    GLOVE table they were saved with (checked by fingerprint). A document
    that is malformed or does not fit raises CheckpointError naming the file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint format version {version!r}")

    saved_config = doc.get("model_config")
    if not isinstance(saved_config, dict):
        raise CheckpointError(f"{path}: checkpoint has no model_config object")
    try:
        config = ModelConfig(**saved_config)
    except (TypeError, ValidationError) as e:  # unknown or missing key, bad value
        raise CheckpointError(f"{path}: bad model_config: {e}") from e
    tokens = doc.get("vocab_tokens")
    if not isinstance(tokens, list):
        raise CheckpointError(f"{path}: checkpoint has no vocab_tokens list")
    tokens = [str(t) for t in tokens]
    if tuple(tokens[:4]) != RESERVED_TOKENS:
        raise CheckpointError(
            f"{path}: checkpoint vocabulary lacks the reserved tokens {RESERVED_TOKENS}"
        )
    if vocab_fingerprint(tokens) != doc.get("vocab_sha256"):
        raise CheckpointError(f"{path}: vocabulary hash mismatch: checkpoint is corrupt or was edited")
    vocab = Vocabulary(tokens[4:])
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"{path}: vocabulary size {len(vocab)} != config vocab_size {config.vocab_size}"
        )

    if config.variant == "m3":
        if glove is None:
            raise CheckpointError(f"{path}: this checkpoint needs the GLOVE table it was trained with")
        if glove_fingerprint(glove) != doc.get("glove_sha256"):
            raise CheckpointError(
                f"{path}: GLOVE table hash mismatch: checkpoint was saved with different label vectors"
            )

    saved = doc.get("params")
    if not isinstance(saved, dict):
        raise CheckpointError(f"{path}: checkpoint has no params object")
    model = build(config, glove=glove if config.variant == "m3" else None)
    if set(saved) != set(model.params):
        raise CheckpointError(
            f"{path}: parameter names do not match config: saved {sorted(saved)} "
            f"vs expected {sorted(model.params)}"
        )
    for name, p in model.params.items():
        entry = saved[name]
        if not (isinstance(entry, dict) and isinstance(entry.get("shape"), list)
                and isinstance(entry.get("data"), list)):
            raise CheckpointError(f"{path}: parameter {name} needs a shape list and a data list")
        shape = tuple(entry["shape"])
        if shape != p.shape:
            raise CheckpointError(f"{path}: parameter {name}: shape {shape} != expected {p.shape}")
        try:
            values = np.asarray(entry["data"], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: parameter {name}: bad data: {e}") from None
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"{path}: parameter {name} holds NaN or infinite values")
        p.data[:] = values
    return model, vocab
