"""Object-level caption dataset: loading, validation, vocabulary, GLOVE
vectors, deterministic splits, and a synthetic desk-scale corpus.

The on-disk record format is JSON-lines, one image per line:

    {"id": ..., "num_objects": N, "objects": [{"label": ..., "feature":
    [...], "bbox": [x, y, w, h], "distance": D}, ...], "captions": [5 strings]}

``distance`` is the distance from the bbox center to the image origin and
is validated against the bbox on load.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

DISTANCE_TOL = 1e-6
CAPTIONS_PER_IMAGE = 5

PAD, START, END, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<start>", "<end>", "<unk>")

_PUNCT = '.,!?;:"()'


class ValidationError(ValueError):
    """Raised when input data or configuration fails validation."""


@dataclass
class ObjectInstance:
    label: str
    feature: list[float]
    bbox: tuple[float, float, float, float]  # x, y, w, h in pixels
    distance: float


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
    feat_len = None
    for k, obj in enumerate(rec.objects):
        if not obj.feature:
            raise ValidationError(f"{ctx}: object {k} has an empty feature vector")
        # one sum shows a NaN or an infinity; only an overflowing sum needs the per-value check
        if not math.isfinite(sum(obj.feature)) and not all(map(math.isfinite, obj.feature)):
            raise ValidationError(f"{ctx}: object {k} feature holds NaN or Infinity")
        if feat_len is None:
            feat_len = len(obj.feature)
        elif len(obj.feature) != feat_len:
            raise ValidationError(
                f"{ctx}: object {k} feature length {len(obj.feature)} != {feat_len}"
            )
        if len(obj.bbox) != 4 or not all(map(math.isfinite, (*obj.bbox, obj.distance))):
            raise ValidationError(
                f"{ctx}: object {k} needs a bbox of 4 finite numbers [x, y, w, h] and a finite "
                f"distance, got {obj.bbox} and {obj.distance}"
            )
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


def _floats(values, ctx: str, what: str) -> list[float]:
    """A JSON array of numbers, as Python floats."""
    if isinstance(values, list):
        try:
            return list(map(float, values))
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{ctx}: {what}: expected a list of numbers, got {values!r:.60}")


def _record_from_json(doc, where: str) -> ImageRecord:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: a record must be a JSON object, got {type(doc).__name__}")
    missing = _RECORD_FIELDS - doc.keys()
    if missing:
        raise ValidationError(f"{where}: missing field(s) {sorted(missing)}")
    ctx = f"{where}: record {str(doc['id'])!r}"
    if not isinstance(doc["objects"], list):
        raise ValidationError(f"{ctx}: objects must be a list")
    if not isinstance(doc["captions"], list):
        raise ValidationError(f"{ctx}: captions must be a list")
    try:
        num_objects = int(doc["num_objects"])
    except (TypeError, ValueError):
        raise ValidationError(f"{ctx}: num_objects must be an integer") from None
    objects = []
    for k, o in enumerate(doc["objects"]):
        if not isinstance(o, dict):
            raise ValidationError(f"{ctx}: object {k} is not a JSON object")
        miss = _OBJECT_FIELDS - o.keys()
        if miss:
            raise ValidationError(f"{ctx}: object {k} missing field(s) {sorted(miss)}")
        objects.append(
            ObjectInstance(
                label=str(o["label"]),
                feature=_floats(o["feature"], ctx, f"object {k} feature"),
                bbox=tuple(_floats(o["bbox"], ctx, f"object {k} bbox")),
                distance=_floats([o["distance"]], ctx, f"object {k} distance")[0],
            )
        )
    rec = ImageRecord(
        id=str(doc["id"]),
        num_objects=num_objects,
        objects=objects,
        captions=[str(c) for c in doc["captions"]],
    )
    validate_record(rec, where=f" ({where})")
    return rec


def load_records(path) -> list[ImageRecord]:
    """Read and validate a JSON-lines records file; errors name file and line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
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
                "feature": o.feature,
                "bbox": list(o.bbox),
                "distance": o.distance,
            }
            for o in rec.objects
        ],
        "captions": rec.captions,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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

    def lookup(self, word: str) -> np.ndarray:
        """Vector for word; unknown words map to the zero vector."""
        vec = self.vectors.get(word)
        if vec is None:
            return np.zeros(self.dim, dtype=np.float64)
        return vec

    def __contains__(self, word: str) -> bool:
        return word in self.vectors


def load_glove(path) -> GloveTable:
    """Parse the standard text format: word followed by d finite decimal values."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
                vectors[word] = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise ValidationError(f"{where}: non-numeric vector value") from None
            if not np.isfinite(vectors[word]).all():
                raise ValidationError(f"{where}: vector value is NaN or infinite")
    if dim is None:
        raise ValidationError(f"{path}: GLOVE file is empty")
    return GloveTable(vectors=vectors, dim=dim)


def glove_lines(table: GloveTable):
    """The GLOVE text lines of ``table``, sorted by word, without newlines:
    the word, then each value as its shortest round-trip repr."""
    for word in sorted(table.vectors):
        yield word + " " + " ".join(repr(float(v)) for v in table.vectors[word])


def write_glove(path, table: GloveTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in glove_lines(table))


# ---------------------------------------------------------------------------
# splits


def split_dataset(records, seed: int, ratio=(12, 6, 1)):
    """Deterministic shuffle and partition into (train, val, test).

    The default ratio mirrors a 12000/6000/1000 split, scaled to the corpus.
    Every part gets at least one record.
    """
    n = len(records)
    if n < 3:
        raise ValidationError(f"need at least 3 records to split, got {n}")
    total = sum(ratio)
    n_train = max(1, n * ratio[0] // total)
    n_val = max(1, n * ratio[1] // total)
    if n_train + n_val >= n:
        raise ValidationError(f"ratio {ratio} leaves no test records for corpus of {n}")
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
                    feature=[float(v) for v in feature],
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
    annotation-list layout with "images"/"annotations" keys."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "annotations" in doc:
        grouped: dict[str, list[str]] = {}
        anns = sorted(doc["annotations"], key=lambda a: a.get("id", 0))
        for ann in anns:
            grouped.setdefault(str(ann["image_id"]), []).append(str(ann["caption"]))
        return grouped
    if isinstance(doc, dict):
        return {str(k): [str(c) for c in v] for k, v in doc.items()}
    raise ValidationError("unrecognized captions JSON layout")


def convert_coco(captions_path, features_path, out_path) -> int:
    """Join caption and per-object feature files into the records format.

    The feature file is {image_id: [{"label", "feature", "bbox"}, ...]};
    distances are derived from the bboxes. Returns the record count.
    """
    captions_by_id = load_coco_captions(captions_path)
    with open(features_path, encoding="utf-8") as fh:
        features_by_id = json.load(fh)
    if not isinstance(features_by_id, dict):
        raise ValidationError("features JSON must map image id to an object list")

    records = []
    for image_id in sorted(features_by_id):
        caps = captions_by_id.get(str(image_id))
        if caps is None:
            raise ValidationError(f"image {image_id!r}: no captions found")
        if len(caps) < CAPTIONS_PER_IMAGE:
            raise ValidationError(
                f"image {image_id!r}: need {CAPTIONS_PER_IMAGE} captions, got {len(caps)}"
            )
        objects = []
        for k, o in enumerate(features_by_id[image_id]):
            miss = {"label", "feature", "bbox"} - o.keys()
            if miss:
                raise ValidationError(f"image {image_id!r}: object {k} missing {sorted(miss)}")
            bbox = tuple(float(v) for v in o["bbox"])
            objects.append(
                ObjectInstance(
                    label=str(o["label"]),
                    feature=[float(v) for v in o["feature"]],
                    bbox=bbox,
                    distance=bbox_center_distance(bbox),
                )
            )
        rec = ImageRecord(
            id=str(image_id),
            num_objects=len(objects),
            objects=objects,
            captions=caps[:CAPTIONS_PER_IMAGE],
        )
        validate_record(rec)
        records.append(rec)
    write_records(out_path, records)
    return len(records)
