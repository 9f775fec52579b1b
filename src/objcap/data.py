"""Object-level caption dataset: loading, validation, vocabulary, GLOVE
vectors, deterministic splits, and a synthetic desk-scale corpus.

The on-disk record format is JSON-lines, one image per line:

    {"id": ..., "num_objects": N, "objects": [{"label": ..., "feature":
    "<base64>", "bbox": [x, y, w, h], "distance": D}, ...], "captions": [5 strings]}

Captions are JSON strings and ``num_objects`` a JSON integer equal to the
object count; ``id`` and ``label`` are names, read as text. ``distance`` is
the distance from the bbox center to the image origin, validated against the
bbox on load; ``prepare`` derives it from the bbox and reads each image
through the same record reader. A feature is written as base64 of its
little-endian float64 bytes (``_encode_float64``); a feature given as a
decimal list still loads, so ``write_records(p, load_records(p))`` rewrites
an older file. In memory each object's feature is a 1-D float64 array, built
once where the record is read or made.
"""
from __future__ import annotations

import base64
import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DISTANCE_TOL = 1e-6
CAPTIONS_PER_IMAGE = 5

PAD, START, END, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<start>", "<end>", "<unk>")

_PUNCT = '.,!?;:"()'


class ValidationError(ValueError):
    """Raised when input data or configuration fails validation."""


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value has a field's annotated type ("int", "float | None",
    ...): a bool is not a number and a float must be finite."""
    kinds = {"str": str, "int": int, "float": (int, float), "None": type(None)}
    allowed = tuple(kinds[name.strip()] for name in annotation.split("|"))
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        return False
    return isinstance(value, allowed)


def _text_lines(fh, path):
    """(line number, text) for each line of ``fh``, a binary file opened on
    ``path``; a line that is not UTF-8 raises ValidationError naming the file
    and line."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}, line {lineno}: not UTF-8 text: {e}") from None


def _read_json(path, what: str):
    """The JSON document in ``path``; a file that is not UTF-8 JSON raises
    ValidationError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or too many digits; nesting too deep
        raise ValidationError(f"{path}: {what} is not valid UTF-8 JSON: {e}") from None


@contextmanager
def _atomic_writer(path, binary: bool = False):
    """A text (or, if ``binary``, binary) file handle on a temp file beside
    ``path``, renamed over ``path`` when the block ends: an interrupted write
    leaves ``path`` as it was and removes the temp file."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class ObjectInstance:
    label: str
    feature: np.ndarray  # 1-D float64
    bbox: tuple[float, float, float, float]  # x, y, w, h in pixels
    distance: float

    def __eq__(self, other):  # the generated one would take an array comparison's truth value
        return isinstance(other, ObjectInstance) and np.array_equal(self.feature, other.feature) and (
            (self.label, self.bbox, self.distance) == (other.label, other.bbox, other.distance)
        )


@dataclass
class ImageRecord:
    id: str
    num_objects: int
    objects: list[ObjectInstance]
    captions: list[str]


def bbox_center_distance(bbox) -> float:
    x, y, w, h = bbox
    return math.hypot(x + w / 2.0, y + h / 2.0)


def validate_record(rec: ImageRecord, where: str = "") -> None:
    ctx = f"record {rec.id!r}{where}"
    if rec.num_objects != len(rec.objects):
        raise ValidationError(
            f"{ctx}: num_objects is {rec.num_objects} but {len(rec.objects)} object entries"
        )
    if len(rec.captions) != CAPTIONS_PER_IMAGE:
        raise ValidationError(f"{ctx}: expected {CAPTIONS_PER_IMAGE} captions, got {len(rec.captions)}")
    for k, obj in enumerate(rec.objects):
        if len(obj.feature) == 0:
            raise ValidationError(f"{ctx}: object {k} has an empty feature vector")
        if not np.isfinite(obj.feature).all():
            raise ValidationError(f"{ctx}: object {k} feature holds NaN or Infinity")
        if len(obj.feature) != len(rec.objects[0].feature):
            raise ValidationError(
                f"{ctx}: object {k} feature length {len(obj.feature)} != {len(rec.objects[0].feature)}"
            )
        if len(obj.bbox) != 4 or not all(map(math.isfinite, obj.bbox)):
            raise ValidationError(f"{ctx}: object {k} bbox must be 4 finite numbers [x, y, w, h]: {obj.bbox}")
        if not math.isfinite(obj.distance):
            raise ValidationError(f"{ctx}: object {k} distance must be finite, got {obj.distance}")
        x, y, w, h = obj.bbox
        if x < 0 or y < 0 or w <= 0 or h <= 0:
            raise ValidationError(f"{ctx}: object {k} has invalid bbox {obj.bbox}")
        expected = bbox_center_distance(obj.bbox)
        if abs(obj.distance - expected) > DISTANCE_TOL:
            raise ValidationError(
                f"{ctx}: object {k} distance {obj.distance} inconsistent with bbox "
                f"center distance {expected}"
            )


_RECORD_FIELDS = {"id", "num_objects", "objects", "captions"}
_OBJECT_FIELDS = {"label", "feature", "bbox", "distance"}
_NUMBER_TYPES = frozenset((int, float))  # as json parses numbers; bool is a type of its own


def _floats(values, ctx: str, what: str) -> np.ndarray:
    """A JSON array of numbers, as a 1-D float64 array. A boolean, string or
    null entry is rejected, not converted."""
    if isinstance(values, list) and _NUMBER_TYPES.issuperset(map(type, values)):
        try:
            return np.fromiter(values, np.float64, len(values))
        except OverflowError:  # an integer beyond float range
            pass
    raise ValidationError(f"{ctx}: {what}: expected a list of numbers, got {values!r:.60}")


def _encode_float64(values: np.ndarray) -> str:
    """Base64 text of ``values``' little-endian float64 bytes in C order: a
    record's feature as written."""
    return base64.b64encode(values.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode_float64(text) -> np.ndarray:
    """The flat values of an ``_encode_float64`` payload, a read-only view of
    the decoded bytes. Raises TypeError or ValueError on a payload that is not
    ASCII base64 of a whole number of float64 values."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def _feature(value, ctx: str, what: str) -> np.ndarray:
    """An object's feature: an ``_encode_float64`` string, as written, or a
    list of numbers, as ``_floats`` reads it."""
    if type(value) is not str:
        return _floats(value, ctx, what)
    try:
        return _decode_float64(value).astype(np.float64)  # an owned, writable, native copy
    except ValueError as e:
        raise ValidationError(f"{ctx}: {what}: not base64 of float64 bytes: {e}") from None


def _number(value, ctx: str, what: str) -> float:
    """A JSON number as a float, rejected like an entry of ``_floats``."""
    if type(value) in _NUMBER_TYPES:
        try:
            return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ValidationError(f"{ctx}: {what}: expected a number, got {value!r:.60}")


def _name(value, ctx: str, what: str) -> str:
    """A JSON string, or a finite JSON number read as its text: the rule for
    ids and labels. NaN, an infinity, null, a boolean, an array or an object
    is rejected."""
    if _fits(value, "str | float"):
        return str(value)
    raise ValidationError(f"{ctx}: {what}: expected a string or a number, got {value!r:.60}")


def _is_string_list(values) -> bool:
    """Whether a JSON value is a list of strings: the rule for captions."""
    return type(values) is list and all(type(v) is str for v in values)


def _object_from_json(o, ctx: str, k: int) -> ObjectInstance:
    if type(o) is not dict:
        raise ValidationError(f"{ctx}: object {k} is not a JSON object")
    miss = _OBJECT_FIELDS - o.keys()
    if miss:
        raise ValidationError(f"{ctx}: object {k} missing field(s) {sorted(miss)}")
    return ObjectInstance(
        label=_name(o["label"], ctx, f"object {k} label"),
        feature=_feature(o["feature"], ctx, f"object {k} feature"),
        bbox=tuple(_floats(o["bbox"], ctx, f"object {k} bbox").tolist()),
        distance=_number(o["distance"], ctx, f"object {k} distance"),
    )


def _record_from_json(doc, where: str) -> ImageRecord:
    """The one reader of a records-format document; errors name ``where``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: a record must be a JSON object, got {type(doc).__name__}")
    missing = _RECORD_FIELDS - doc.keys()
    if missing:
        raise ValidationError(f"{where}: missing field(s) {sorted(missing)}")
    rec_id = _name(doc["id"], where, "record id")
    ctx = f"{where}: record {rec_id!r}"
    if type(doc["objects"]) is not list:
        raise ValidationError(f"{ctx}: objects must be a list")
    if not _is_string_list(doc["captions"]):
        raise ValidationError(f"{ctx}: captions must be a list of strings, got {doc['captions']!r:.60}")
    if type(doc["num_objects"]) is not int:  # a bool is a type of its own
        raise ValidationError(f"{ctx}: num_objects must be an integer, got {doc['num_objects']!r:.60}")
    rec = ImageRecord(
        id=rec_id,
        num_objects=doc["num_objects"],
        objects=[_object_from_json(o, ctx, k) for k, o in enumerate(doc["objects"])],
        captions=doc["captions"],
    )
    validate_record(rec, where=f" ({where})")
    return rec


def load_records(path) -> list[ImageRecord]:
    """Read and validate a JSON-lines records file; errors name file and line."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in _text_lines(fh, path):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError) as e:  # an integer of too many digits; nesting too deep
                raise ValidationError(f"{path}, line {lineno}: not valid JSON: {e}") from None
            records.append(_record_from_json(doc, where=f"{path}, line {lineno}"))
    return records


def record_to_json(rec: ImageRecord) -> str:
    doc = {
        "id": rec.id,
        "num_objects": rec.num_objects,
        "objects": [
            {
                "label": o.label,
                "feature": _encode_float64(o.feature),
                "bbox": list(o.bbox),
                "distance": o.distance,
            }
            for o in rec.objects
        ],
        "captions": rec.captions,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_records(path, records) -> None:
    with _atomic_writer(path) as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


# ---------------------------------------------------------------------------
# captions and vocabulary


def tokenize(caption: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    out = []
    for raw in caption.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


class Vocabulary:
    """Bidirectional token<->index mapping with fixed reserved slots 0-3."""

    def __init__(self, content_tokens: list[str]):
        self.tokens = list(RESERVED_TOKENS) + list(content_tokens)
        self._index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ValidationError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index_of(self, token: str) -> int:
        return self._index.get(token, UNK)

    def token_at(self, index: int) -> str:
        return self.tokens[index]


def build_vocab(records, min_count: int = 1) -> Vocabulary:
    """Vocabulary over all caption tokens with corpus frequency >= min_count.

    Order is (descending frequency, ascending lexicographic) so the same
    corpus always yields the same index assignment.
    """
    if min_count < 1:
        raise ValidationError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for rec in records:
        for caption in rec.captions:
            counts.update(tokenize(caption))
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept)


def encode_caption(vocab: Vocabulary, tokens: list[str], max_len: int) -> list[int]:
    """<start> + token indices + <end>, truncated/padded to exactly max_len.

    The <end> marker survives truncation; <pad> fills the tail.
    """
    if max_len < 2:
        raise ValidationError(f"max_len must be >= 2, got {max_len}")
    body = [vocab.index_of(t) for t in tokens][: max_len - 2]
    ids = [START] + body + [END]
    ids.extend([PAD] * (max_len - len(ids)))
    return ids


def decode_caption(vocab: Vocabulary, ids) -> list[str]:
    """Tokens between <start> and the first <end>, specials stripped."""
    out = []
    for i in ids:
        if i == END:
            break
        if i in (PAD, START):
            continue
        out.append(vocab.token_at(i))
    return out


# ---------------------------------------------------------------------------
# GLOVE vectors


@dataclass
class GloveTable:
    vectors: dict[str, np.ndarray]
    dim: int
    source: str = field(default="", compare=False)  # the file it was read from, for messages

    def lookup(self, word: str) -> np.ndarray:
        """Vector for word; unknown words map to the zero vector."""
        vec = self.vectors.get(word)
        if vec is None:
            return np.zeros(self.dim, dtype=np.float64)
        return vec

    def __contains__(self, word: str) -> bool:
        return word in self.vectors


def _decimal(text: str) -> float:
    """``float(text)`` for ASCII text without ``_``: ``float`` would also read
    ``1_5`` as 15.0 and non-ASCII digits. Raises ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def load_glove(path) -> GloveTable:
    """Parse the standard text format: word followed by d finite decimal values."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "rb") as fh:
        for lineno, line in _text_lines(fh, path):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}, line {lineno}"
            word, values = parts[0], parts[1:]
            if dim is None:
                if not values:
                    raise ValidationError(f"{where}: no vector values")
                dim = len(values)
            elif len(values) != dim:
                raise ValidationError(f"{where}: expected {dim} values, got {len(values)}")
            try:
                vectors[word] = np.array([_decimal(v) for v in values], dtype=np.float64)
            except ValueError:
                raise ValidationError(f"{where}: non-numeric vector value") from None
            if not np.isfinite(vectors[word]).all():
                raise ValidationError(f"{where}: vector value is NaN or infinite")
    if dim is None:
        raise ValidationError(f"{path}: GLOVE file is empty")
    return GloveTable(vectors=vectors, dim=dim, source=str(path))


def glove_lines(table: GloveTable):
    """The GLOVE text lines of ``table``, sorted by word, without newlines:
    the word, then each value as its shortest round-trip repr."""
    for word in sorted(table.vectors):
        yield word + " " + " ".join(repr(float(v)) for v in table.vectors[word])


def write_glove(path, table: GloveTable) -> None:
    with _atomic_writer(path) as fh:
        fh.writelines(line + "\n" for line in glove_lines(table))


# ---------------------------------------------------------------------------
# splits


# The train/val/test ratio of split_dataset: a 12000/6000/1000 split, scaled to the corpus.
SPLIT_RATIO = (12, 6, 1)


def split_dataset(records, seed: int):
    """Deterministic shuffle and partition into (train, val, test) in
    SPLIT_RATIO. Every part gets at least one record.
    """
    n = len(records)
    if n < 3:
        raise ValidationError(f"need at least 3 records to split, got {n}")
    total = sum(SPLIT_RATIO)
    n_train = max(1, n * SPLIT_RATIO[0] // total)
    n_val = max(1, n * SPLIT_RATIO[1] // total)
    if n_train + n_val >= n:
        raise ValidationError(f"ratio {SPLIT_RATIO} leaves no test records for corpus of {n}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [records[i] for i in order]
    train = shuffled[:n_train]
    val = shuffled[n_train : n_train + n_val]
    test = shuffled[n_train + n_val :]
    return train, val, test


# ---------------------------------------------------------------------------
# synthetic corpus

_NOUNS = [
    "apple", "ball", "cat", "dog", "egg", "fish", "goat", "hat", "kite",
    "lamp", "mug", "nest", "owl", "pig", "quilt", "rose", "sock", "tree",
    "vase", "wolf", "yak", "zebra", "bench", "chair", "drum", "flag",
    "grape", "horse", "melon", "piano",
]

_CAPTION_TEMPLATES = [
    "a photo of {}",
    "an image of {}",
    "there is {} in the picture",
    "the picture shows {}",
    "a scene with {}",
]


def synth_label_names(n_labels: int) -> list[str]:
    names = list(_NOUNS[:n_labels])
    names.extend(f"object{i}" for i in range(len(names), n_labels))
    return names


def synth_captions(labels) -> list[str]:
    phrase = " and ".join(sorted(set(labels)))
    return [t.format(phrase) for t in _CAPTION_TEMPLATES]


def synth_corpus(seed: int, n_images: int, n_labels: int, visual_dim: int, glove_dim: int):
    """Generate a learnable toy corpus plus its GLOVE table.

    Each label owns a unit-norm prototype feature vector; every object's
    feature is its label prototype plus N(0, 0.1) noise, so object identity
    is recoverable from features. All five captions are fixed paraphrases
    over the sorted set of object labels, making the caption a deterministic
    function of which labels appear.
    """
    if min(n_images, n_labels, visual_dim, glove_dim) < 1:
        raise ValidationError("synth_corpus: all counts must be positive")
    rng = np.random.default_rng(seed)
    names = synth_label_names(n_labels)
    glove_vecs = rng.uniform(-1.0, 1.0, size=(n_labels, glove_dim))
    protos = rng.standard_normal((n_labels, visual_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    records = []
    max_k = min(5, n_labels)
    for i in range(n_images):
        k = int(rng.integers(1, max_k + 1))
        chosen = rng.choice(n_labels, size=k, replace=False)
        objects = []
        for j in chosen:
            feature = protos[j] + rng.normal(0.0, 0.1, size=visual_dim)
            x = float(rng.uniform(0.0, 400.0))
            y = float(rng.uniform(0.0, 300.0))
            w = float(rng.uniform(8.0, 120.0))
            h = float(rng.uniform(8.0, 120.0))
            bbox = (x, y, w, h)
            objects.append(
                ObjectInstance(
                    label=names[j],
                    feature=feature,
                    bbox=bbox,
                    distance=bbox_center_distance(bbox),
                )
            )
        labels = [o.label for o in objects]
        records.append(
            ImageRecord(
                id=f"img{i:05d}",
                num_objects=k,
                objects=objects,
                captions=synth_captions(labels),
            )
        )
    glove = GloveTable(
        vectors={names[j]: glove_vecs[j].copy() for j in range(n_labels)}, dim=glove_dim
    )
    return records, glove


# ---------------------------------------------------------------------------
# MSCOCO-style ingestion


def load_coco_captions(path) -> dict[str, list[str]]:
    """Accept either a plain {image_id: [caption, ...]} mapping or the
    annotation-list layout with "images"/"annotations" keys. Each caption
    must be a JSON string. Errors name the file."""
    doc = _read_json(path, "captions file")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: unrecognized captions JSON layout")
    if "annotations" in doc:
        anns = doc["annotations"]
        if not isinstance(anns, list) or not all(
            isinstance(a, dict) and {"image_id", "caption"} <= a.keys() and type(a["caption"]) is str
            and _fits(a.get("id", 0), "float")
            for a in anns
        ):
            raise ValidationError(f"{path}: each annotation needs an image_id, a caption string and a numeric id")
        grouped: dict[str, list[str]] = {}
        for ann in sorted(anns, key=lambda a: a.get("id", 0)):
            grouped.setdefault(str(ann["image_id"]), []).append(ann["caption"])
        return grouped
    if not all(map(_is_string_list, doc.values())):
        raise ValidationError(f"{path}: each image id must map to a list of caption strings")
    return doc


def _with_distance(o):
    """A features-file object in the records format: with the distance its
    bbox gives, or NaN where it gives none, for the reader to reject the bbox."""
    if type(o) is not dict:
        return o
    try:
        distance = bbox_center_distance(o.get("bbox"))
    except (TypeError, ValueError, OverflowError):  # not 4 numbers, or an integer beyond float range
        distance = math.nan
    return {**o, "distance": distance}


def convert_coco(captions_path, features_path, out_path) -> int:
    """Join caption and per-object feature files into the records format.

    The feature file is {image_id: [{"label", "feature", "bbox"}, ...]}; each
    image is read as a records document with its first five captions and the
    distances its bboxes give. Returns the record count.
    """
    captions_by_id = load_coco_captions(captions_path)
    features_by_id = _read_json(features_path, "features file")
    if not isinstance(features_by_id, dict):
        raise ValidationError(f"{features_path}: features JSON must map image id to an object list")

    records = []
    for image_id in sorted(features_by_id):
        ctx = f"{features_path}: image {image_id!r}"
        caps = captions_by_id.get(image_id)
        if caps is None:
            raise ValidationError(f"{ctx}: no captions found in {captions_path}")
        if len(caps) < CAPTIONS_PER_IMAGE:
            raise ValidationError(
                f"{ctx}: need {CAPTIONS_PER_IMAGE} captions in {captions_path}, got {len(caps)}"
            )
        objects = features_by_id[image_id]
        if type(objects) is not list:
            raise ValidationError(f"{ctx}: expected a list of objects")
        doc = {"id": image_id, "num_objects": len(objects), "captions": caps[:CAPTIONS_PER_IMAGE],
               "objects": [_with_distance(o) for o in objects]}
        records.append(_record_from_json(doc, where=str(features_path)))
    write_records(out_path, records)
    return len(records)
