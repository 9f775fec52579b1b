"""Checkpoint persistence.

A checkpoint is one JSON document: format version, model config, vocabulary,
and every named parameter as its shape and a base64 string of its
little-endian float64 bytes in C order. The bytes are the array's own, so
load(save(model)) reproduces forward passes bit for bit. For m3 models the
document also carries a fingerprint of the GLOVE table the model was built
against; loading with different label vectors is refused.

The float64 payload codec, ``data._encode_float64`` and
``data._decode_float64``, is the one records use for object features.
Format 1 documents, which held each parameter as a flat decimal list, still
load; only format 2 is written.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields

import numpy as np

from .data import (
    RESERVED_TOKENS,
    GloveTable,
    ValidationError,
    Vocabulary,
    _atomic_writer,
    _decode_float64,
    _encode_float64,
    _fits,
    _is_string_list,
    _read_json,
    glove_lines,
)
from .models import Model, ModelConfig, build

FORMAT_VERSION = 2


class CheckpointError(ValidationError):
    """Raised when a checkpoint cannot be loaded against the given inputs."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def glove_fingerprint(table: GloveTable) -> str:
    return _sha256("\n".join(glove_lines(table)))


def vocab_fingerprint(tokens: list[str]) -> str:
    return _sha256("\n".join(tokens))


def _decode(data, version: int) -> np.ndarray:
    """A saved parameter's values, for the caller to reshape: in format 2 a
    base64 string of little-endian float64 bytes, in format 1 a decimal list.
    Raises TypeError or ValueError on a payload of the wrong type or encoding."""
    if version == 1:
        if not isinstance(data, list):
            raise TypeError("format 1 data must be a list of numbers")
        return np.asarray(data, dtype=np.float64)
    return _decode_float64(data)


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
            name: {"shape": list(p.shape), "data": _encode_float64(p.data)}
            for name, p in model.params.items()
        },
    }
    with _atomic_writer(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path, glove: GloveTable | None = None) -> tuple[Model, Vocabulary]:
    """Rebuild the model and vocabulary. m3 checkpoints require the same
    GLOVE table they were saved with (checked by fingerprint). A document
    that is malformed or does not fit raises CheckpointError naming the file."""
    doc = _read_json(path, "checkpoint", CheckpointError)
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"{path}: unsupported checkpoint format version {version!r}")

    saved_config = doc.get("model_config")
    if not isinstance(saved_config, dict):
        raise CheckpointError(f"{path}: checkpoint has no model_config object")
    try:
        for f in fields(ModelConfig):
            if f.name in saved_config and not _fits(saved_config[f.name], f.type):
                raise ValidationError(f"{f.name} must be {f.type}, got {saved_config[f.name]!r}")
        config = ModelConfig(**saved_config)
    except (TypeError, ValidationError) as e:  # wrong type, unknown or missing key, bad value
        raise CheckpointError(f"{path}: bad model_config: {e}") from e
    tokens = doc.get("vocab_tokens")
    if not _is_string_list(tokens):
        raise CheckpointError(f"{path}: checkpoint has no vocab_tokens list of strings")
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
                f"{path}: GLOVE table hash mismatch: checkpoint was saved with different label "
                f"vectors than {glove.source or 'the given table'}"
            )

    saved = doc.get("params")
    if not isinstance(saved, dict):
        raise CheckpointError(f"{path}: checkpoint has no params object")
    try:
        model = build(config, glove=glove if config.variant == "m3" else None)
    except (ValueError, MemoryError, OverflowError) as e:  # GLOVE dimension, sizes too large
        raise CheckpointError(f"{path}: cannot build the saved model: {e}") from None
    if set(saved) != set(model.params):
        raise CheckpointError(
            f"{path}: parameter names do not match config: saved {sorted(saved)} "
            f"vs expected {sorted(model.params)}"
        )
    for name, p in model.params.items():
        entry = saved[name]
        if not (isinstance(entry, dict) and isinstance(entry.get("shape"), list)):
            raise CheckpointError(f"{path}: parameter {name} needs a shape list and a data payload")
        shape = tuple(entry["shape"])
        if shape != p.shape:
            raise CheckpointError(f"{path}: parameter {name}: shape {shape} != expected {p.shape}")
        try:
            values = _decode(entry.get("data"), version).reshape(shape)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: parameter {name}: bad data: {e}") from None
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"{path}: parameter {name} holds NaN or infinite values")
        p.data[:] = values
    return model, vocab
