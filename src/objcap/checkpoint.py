"""Checkpoint persistence.

A checkpoint is one line of JSON, the header, followed by the body. The
header holds the format version, model config, vocabulary, fingerprints, and
every parameter's name and shape in ``Model.params`` order. The body is each
parameter's little-endian float64 bytes in C order, in that order, and
nothing after. The bytes are the array's own, so load(save(model))
reproduces forward passes bit for bit; load reads them straight into the
built model's parameters. For m3 models the header also carries a
fingerprint of the GLOVE table the model was built against; loading with
different label vectors is refused.

Formats 1 and 2 were single JSON documents holding each parameter as a
decimal list or a base64 string, so their first line is the whole file.
Every format writes its keys sorted, so a file starts
``{"format_version":N,``; load refuses another version from those first
bytes, before it reads the line.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, fields

import numpy as np

from .data import (
    RESERVED_TOKENS,
    GloveTable,
    ValidationError,
    Vocabulary,
    _atomic_writer,
    _fits,
    _is_string_list,
    glove_lines,
)
from .models import Model, ModelConfig, build

FORMAT_VERSION = 3
# the start of a header written with sorted keys and no spaces, every format's
_VERSION_PREFIX = re.compile(rb'\{"format_version":(0|[1-9][0-9]*),')


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
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "vocab_tokens": vocab.tokens,
        "vocab_sha256": vocab_fingerprint(vocab.tokens),
        "glove_sha256": glove_fingerprint(model.glove) if model.glove is not None else None,
        "params": [[name, list(p.shape)] for name, p in model.params.items()],
    }
    with _atomic_writer(path, binary=True) as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n")
        for p in model.params.values():
            fh.write(p.data.astype("<f8", copy=False))


def _unsupported(path, version) -> CheckpointError:
    return CheckpointError(f"{path}: unsupported checkpoint format version {version!r}")


def load_checkpoint(path, glove: GloveTable | None = None) -> tuple[Model, Vocabulary]:
    """Rebuild the model and vocabulary. m3 checkpoints require the same
    GLOVE table they were saved with (checked by fingerprint). A file that is
    malformed or does not fit raises CheckpointError naming it, and the
    parameter where there is one."""
    with open(path, "rb") as fh:
        prefix = _VERSION_PREFIX.match(fh.read(32))
        if prefix and int(prefix[1]) != FORMAT_VERSION:
            raise _unsupported(path, int(prefix[1]))
        fh.seek(0)
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or too many digits; nesting too deep
            raise CheckpointError(f"{path}: checkpoint header is not a line of UTF-8 JSON: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise _unsupported(path, header.get("format_version"))

        saved_config = header.get("model_config")
        if not isinstance(saved_config, dict):
            raise CheckpointError(f"{path}: checkpoint has no model_config object")
        try:
            for f in fields(ModelConfig):
                if f.name in saved_config and not _fits(saved_config[f.name], f.type):
                    raise ValidationError(f"{f.name} must be {f.type}, got {saved_config[f.name]!r}")
            config = ModelConfig(**saved_config)
        except (TypeError, ValidationError) as e:  # wrong type, unknown or missing key, bad value
            raise CheckpointError(f"{path}: bad model_config: {e}") from e
        tokens = header.get("vocab_tokens")
        if not _is_string_list(tokens):
            raise CheckpointError(f"{path}: checkpoint has no vocab_tokens list of strings")
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise CheckpointError(
                f"{path}: checkpoint vocabulary lacks the reserved tokens {RESERVED_TOKENS}"
            )
        if vocab_fingerprint(tokens) != header.get("vocab_sha256"):
            raise CheckpointError(f"{path}: vocabulary hash mismatch: checkpoint is corrupt or was edited")
        try:
            vocab = Vocabulary(tokens[4:])
        except ValidationError as e:  # a repeated token
            raise CheckpointError(f"{path}: {e}") from None
        if len(vocab) != config.vocab_size:
            raise CheckpointError(
                f"{path}: vocabulary size {len(vocab)} != config vocab_size {config.vocab_size}"
            )

        if config.variant == "m3":
            if glove is None:
                raise CheckpointError(f"{path}: this checkpoint needs the GLOVE table it was trained with")
            if glove_fingerprint(glove) != header.get("glove_sha256"):
                raise CheckpointError(
                    f"{path}: GLOVE table hash mismatch: checkpoint was saved with different label "
                    f"vectors than {glove.source or 'the given table'}"
                )

        try:
            model = build(config, glove=glove if config.variant == "m3" else None)
        except (ValueError, MemoryError, OverflowError) as e:  # GLOVE dimension, sizes too large
            raise CheckpointError(f"{path}: cannot build the saved model: {e}") from None
        expected = [[name, list(p.shape)] for name, p in model.params.items()]
        saved = header.get("params")
        if saved != expected:
            if not isinstance(saved, list):
                raise CheckpointError(f"{path}: checkpoint has no params list of [name, shape] pairs")
            pairs = enumerate(zip(saved, expected))
            i = next((i for i, (s, e) in pairs if s != e), min(len(saved), len(expected)))
            have = f"{saved[i]!r:.60}" if i < len(saved) else "nothing"
            want = f"parameter {expected[i][0]} of shape {expected[i][1]}" if i < len(expected) else "nothing"
            raise CheckpointError(f"{path}: params entry {i} holds {have} where the config has {want}")

        for name, p in model.params.items():
            read = fh.readinto(p.data)
            if read < p.data.nbytes:
                raise CheckpointError(
                    f"{path}: parameter {name}: the body ends {read} bytes into its {p.data.nbytes}"
                )
            if not np.little_endian:
                p.data.byteswap(inplace=True)
            # min and max propagate NaN, so no temporary the parameter's size is needed
            if not (np.isfinite(p.data.min()) and np.isfinite(p.data.max())):
                raise CheckpointError(f"{path}: parameter {name} holds NaN or infinite values")
        if fh.read(1):
            raise CheckpointError(f"{path}: the body runs on past its last parameter, {name}")
    return model, vocab
