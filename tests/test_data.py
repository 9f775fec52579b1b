import json
import math

import numpy as np
import pytest

from objcap.data import (
    END,
    PAD,
    START,
    UNK,
    GloveTable,
    ImageRecord,
    ObjectInstance,
    ValidationError,
    Vocabulary,
    bbox_center_distance,
    build_vocab,
    convert_coco,
    decode_caption,
    encode_caption,
    glove_lines,
    load_glove,
    load_records,
    split_dataset,
    synth_corpus,
    tokenize,
    validate_record,
    write_glove,
    write_records,
)


def make_record(rec_id="r1", labels=("cat",), captions=None):
    objects = []
    for k, label in enumerate(labels):
        bbox = (10.0 * k, 5.0, 20.0, 30.0)
        objects.append(
            ObjectInstance(
                label=label,
                feature=[0.1 * k, 0.2, 0.3],
                bbox=bbox,
                distance=bbox_center_distance(bbox),
            )
        )
    if captions is None:
        captions = [f"caption number {i} here now" for i in range(5)]
    return ImageRecord(id=rec_id, num_objects=len(objects), objects=objects, captions=list(captions))


# --- tokenize ---


def test_tokenize_basic():
    assert tokenize("A man riding a horse.") == ["a", "man", "riding", "a", "horse"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   ") == []


def test_tokenize_punctuation_and_case():
    assert tokenize("The  DOG!!") == ["the", "dog"]
    assert tokenize('He said: "hello, (world)!"') == ["he", "said", "hello", "world"]
    assert tokenize("...") == []


# --- vocabulary ---


def test_build_vocab_frequency_order():
    recs = [make_record(captions=["a b", "a", "x", "x", "x"])]
    vocab = build_vocab(recs, min_count=1)
    assert vocab.tokens[:4] == ["<pad>", "<start>", "<end>", "<unk>"]
    # x appears 3 times, a twice, b once
    assert vocab.tokens[4:] == ["x", "a", "b"]


def test_build_vocab_min_count():
    recs = [make_record(captions=["a b", "a", "c", "c", "d"])]
    vocab = build_vocab(recs, min_count=2)
    assert "a" in vocab and "c" in vocab
    assert "b" not in vocab and "d" not in vocab
    assert vocab.index_of("b") == UNK


def test_build_vocab_deterministic():
    recs = [make_record(captions=["pear plum", "plum apple", "apple pear", "kiwi", "fig"])]
    v1 = build_vocab(recs)
    v2 = build_vocab(recs)
    assert v1.tokens == v2.tokens


def test_build_vocab_min_count_validation():
    with pytest.raises(ValidationError):
        build_vocab([], min_count=0)


def test_encode_caption_layout():
    vocab = Vocabulary(["a", "b"])
    assert vocab.index_of("a") == 4
    assert encode_caption(vocab, ["a"], max_len=4) == [START, 4, END, PAD]


def test_encode_caption_unknown_token():
    vocab = Vocabulary(["a"])
    ids = encode_caption(vocab, ["zzz"], max_len=4)
    assert ids[1] == UNK


def test_encode_caption_truncation_keeps_end():
    vocab = Vocabulary(["a", "b", "c"])
    ids = encode_caption(vocab, ["a", "b", "c"], max_len=4)
    assert len(ids) == 4
    assert ids[0] == START and ids[-1] == END


def test_encode_decode_round_trip():
    vocab = Vocabulary(["cat", "dog", "sat"])
    tokens = ["cat", "sat", "dog"]
    assert decode_caption(vocab, encode_caption(vocab, tokens, max_len=8)) == tokens


# --- records io ---


def test_round_trip_bit_exact(tmp_path):
    recs, _ = synth_corpus(seed=5, n_images=6, n_labels=4, visual_dim=7, glove_dim=3)
    p = tmp_path / "records.jsonl"
    write_records(p, recs)
    loaded = load_records(p)
    assert len(loaded) == 6
    for a, b in zip(recs, loaded):
        assert a.id == b.id and a.num_objects == b.num_objects and a.captions == b.captions
        for oa, ob in zip(a.objects, b.objects):
            assert oa.label == ob.label
            assert oa.feature == ob.feature
            assert oa.bbox == ob.bbox
            assert oa.distance == ob.distance
    # a second write is byte-identical
    p2 = tmp_path / "records2.jsonl"
    write_records(p2, loaded)
    assert p.read_bytes() == p2.read_bytes()


def test_load_records_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert load_records(p) == []


def test_validate_num_objects_mismatch_names_id():
    rec = make_record(rec_id="bad-one", labels=("cat", "dog"))
    rec.num_objects = 3
    with pytest.raises(ValidationError) as e:
        validate_record(rec)
    assert "bad-one" in str(e.value)


def test_validate_caption_count():
    rec = make_record(captions=["only", "four", "captions", "here"][:4])
    with pytest.raises(ValidationError):
        validate_record(rec)


def test_validate_feature_length_mismatch():
    rec = make_record(labels=("cat", "dog"))
    rec.objects[1].feature = [1.0, 2.0]
    with pytest.raises(ValidationError) as e:
        validate_record(rec)
    assert "feature" in str(e.value)


def test_validate_distance_inconsistency():
    rec = make_record()
    rec.objects[0].distance += 1.0
    with pytest.raises(ValidationError) as e:
        validate_record(rec)
    assert "distance" in str(e.value)


def test_validate_bad_bbox():
    rec = make_record()
    rec.objects[0].bbox = (-1.0, 0.0, 10.0, 10.0)
    rec.objects[0].distance = bbox_center_distance(rec.objects[0].bbox)
    with pytest.raises(ValidationError):
        validate_record(rec)


def test_load_records_reports_line_numbers(tmp_path):
    good = make_record()
    bad = make_record(rec_id="broken")
    bad.num_objects = 9
    p = tmp_path / "records.jsonl"
    lines = []
    for rec in (good,):
        lines.append(json.dumps({
            "id": rec.id, "num_objects": rec.num_objects,
            "objects": [{"label": o.label, "feature": o.feature, "bbox": list(o.bbox), "distance": o.distance} for o in rec.objects],
            "captions": rec.captions,
        }))
    lines.append(json.dumps({
        "id": bad.id, "num_objects": bad.num_objects,
        "objects": [{"label": o.label, "feature": o.feature, "bbox": list(o.bbox), "distance": o.distance} for o in bad.objects],
        "captions": bad.captions,
    }))
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as e:
        load_records(p)
    assert "line 2" in str(e.value) and "broken" in str(e.value)


def test_load_records_missing_field(tmp_path):
    p = tmp_path / "records.jsonl"
    p.write_text('{"id": "x", "num_objects": 0, "objects": []}\n')
    with pytest.raises(ValidationError) as e:
        load_records(p)
    assert "captions" in str(e.value)


def record_doc(rec_id="r9"):
    rec = make_record(rec_id=rec_id, labels=("cat", "dog"))
    return json.loads(json.dumps({
        "id": rec.id, "num_objects": rec.num_objects,
        "objects": [{"label": o.label, "feature": o.feature, "bbox": list(o.bbox), "distance": o.distance}
                    for o in rec.objects],
        "captions": rec.captions,
    }))


def load_second_line(tmp_path, bad_line):
    """load_records on a file whose line 2 is ``bad_line``; returns the error."""
    p = tmp_path / "records.jsonl"
    p.write_text(json.dumps(record_doc("r1")) + "\n" + bad_line + "\n")
    with pytest.raises(ValidationError) as e:
        load_records(p)
    assert f"{p}, line 2" in str(e.value)
    return str(e.value)


def test_load_records_rejects_json_array_line(tmp_path):
    message = load_second_line(tmp_path, json.dumps([record_doc()]))
    assert "JSON object" in message


def test_load_records_rejects_invalid_json_line(tmp_path):
    assert "not valid JSON" in load_second_line(tmp_path, "{oops")


def test_load_records_rejects_non_list_objects(tmp_path):
    doc = record_doc()
    doc["objects"] = 5
    assert "r9" in load_second_line(tmp_path, json.dumps(doc))
    doc["objects"] = [record_doc()["objects"][0], 5]
    message = load_second_line(tmp_path, json.dumps(doc))
    assert "r9" in message and "object 1" in message


def test_load_records_rejects_three_number_bbox(tmp_path):
    doc = record_doc()
    doc["objects"][1]["bbox"] = [1.0, 2.0, 3.0]
    message = load_second_line(tmp_path, json.dumps(doc))
    assert "r9" in message and "object 1" in message and "bbox" in message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_load_records_rejects_non_finite_feature(tmp_path, value):
    doc = record_doc()
    doc["objects"][0]["feature"][1] = value
    message = load_second_line(tmp_path, json.dumps(doc))
    assert "r9" in message and "object 0 feature" in message


def test_load_records_rejects_non_numeric_values(tmp_path):
    for field, value in (("feature", ["a", "b", "c"]), ("bbox", "wide"), ("distance", None)):
        doc = record_doc()
        doc["objects"][0][field] = value
        message = load_second_line(tmp_path, json.dumps(doc))
        assert "r9" in message and f"object 0 {field}" in message


def test_validate_rejects_non_finite_bbox_and_distance():
    rec = make_record()
    rec.objects[0].distance = float("nan")
    with pytest.raises(ValidationError):
        validate_record(rec)
    rec = make_record()
    rec.objects[0].bbox = (float("inf"), 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        validate_record(rec)


# --- glove ---


def test_load_glove_basic(tmp_path):
    p = tmp_path / "glove.txt"
    p.write_text("cat 0.1 0.2\ndog 0.3 0.4\n")
    table = load_glove(p)
    assert table.dim == 2
    assert np.allclose(table.lookup("cat"), [0.1, 0.2])
    assert np.allclose(table.lookup("dog"), [0.3, 0.4])


def test_glove_unknown_is_zero(tmp_path):
    p = tmp_path / "glove.txt"
    p.write_text("cat 0.1 0.2\n")
    table = load_glove(p)
    assert np.array_equal(table.lookup("unseen"), [0.0, 0.0])


def test_glove_dimension_error_names_line(tmp_path):
    p = tmp_path / "glove.txt"
    p.write_text("cat 0.1 0.2\ndog 0.3 0.4 0.5\n")
    with pytest.raises(ValidationError) as e:
        load_glove(p)
    assert "line 2" in str(e.value)


@pytest.mark.parametrize("text", [
    "cat 0.1 0.2\ndog 0.3\n", "cat 0.1 0.2\ndog 0.3 x\n", "cat 0.1\ndog\n", "\n\n",
])
def test_glove_errors_name_the_file(tmp_path, text):
    p = tmp_path / "glove.txt"
    p.write_text(text)
    with pytest.raises(ValidationError) as e:
        load_glove(p)
    assert str(p) in str(e.value)
    assert "line 2" in str(e.value) or "empty" in str(e.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_glove_non_finite_value_rejected(tmp_path, value):
    p = tmp_path / "glove.txt"
    p.write_text(f"dog 0.5 2.0\ncat {value} 1.0\n")
    with pytest.raises(ValidationError) as e:
        load_glove(p)
    assert f"{p}, line 2: vector value is NaN or infinite" in str(e.value)


def test_write_glove_text_pinned(tmp_path):
    table = GloveTable(vectors={"dog": np.array([0.5, -1.25, 3.0]), "cat": np.array([1.0, 0.1, -2e-7])}, dim=3)
    p = tmp_path / "glove.txt"
    write_glove(p, table)
    assert p.read_text() == "cat 1.0 0.1 -2e-07\ndog 0.5 -1.25 3.0\n"
    assert list(glove_lines(table)) == p.read_text().splitlines()


def test_glove_write_read_round_trip(tmp_path):
    table = GloveTable(vectors={"cat": np.array([0.1, -2.5]), "dog": np.array([1e-17, 3.0])}, dim=2)
    p = tmp_path / "glove.txt"
    write_glove(p, table)
    loaded = load_glove(p)
    for w in table.vectors:
        assert np.array_equal(loaded.lookup(w), table.vectors[w])


def test_glove_empty_file(tmp_path):
    p = tmp_path / "glove.txt"
    p.write_text("")
    with pytest.raises(ValidationError):
        load_glove(p)


# --- splits ---


def test_split_default_ratio_19():
    recs = [make_record(rec_id=f"r{i}") for i in range(19)]
    train, val, test = split_dataset(recs, seed=0)
    assert (len(train), len(val), len(test)) == (12, 6, 1)


def test_split_deterministic_and_partition():
    recs = [make_record(rec_id=f"r{i}") for i in range(37)]
    a = split_dataset(recs, seed=9)
    b = split_dataset(recs, seed=9)
    assert [r.id for part in a for r in part] == [r.id for part in b for r in part]
    ids = [r.id for part in a for r in part]
    assert sorted(ids) == sorted(r.id for r in recs)
    assert len(set(ids)) == len(ids)
    c = split_dataset(recs, seed=10)
    assert [r.id for r in a[0]] != [r.id for r in c[0]]


def test_split_too_small():
    recs = [make_record(rec_id=f"r{i}") for i in range(2)]
    with pytest.raises(ValidationError):
        split_dataset(recs, seed=0)


def test_split_minimum_sizes():
    recs = [make_record(rec_id=f"r{i}") for i in range(3)]
    train, val, test = split_dataset(recs, seed=0)
    assert (len(train), len(val), len(test)) == (1, 1, 1)


# --- synthetic corpus ---


def test_synth_passes_validation():
    recs, glove = synth_corpus(seed=1, n_images=20, n_labels=6, visual_dim=10, glove_dim=4)
    assert len(recs) == 20
    for rec in recs:
        validate_record(rec)
        assert 1 <= rec.num_objects <= 5
        for obj in rec.objects:
            assert obj.label in glove


def test_synth_deterministic():
    a, ga = synth_corpus(seed=7, n_images=8, n_labels=5, visual_dim=6, glove_dim=3)
    b, gb = synth_corpus(seed=7, n_images=8, n_labels=5, visual_dim=6, glove_dim=3)
    for ra, rb in zip(a, b):
        assert ra.id == rb.id and ra.captions == rb.captions
        for oa, ob in zip(ra.objects, rb.objects):
            assert oa.feature == ob.feature and oa.bbox == ob.bbox
    for w in ga.vectors:
        assert np.array_equal(ga.vectors[w], gb.vectors[w])


def test_synth_captions_are_function_of_labels():
    recs, _ = synth_corpus(seed=3, n_images=30, n_labels=4, visual_dim=5, glove_dim=3)
    for rec in recs:
        phrase = " and ".join(sorted({o.label for o in rec.objects}))
        assert rec.captions[0] == f"a photo of {phrase}"
        assert len(set(rec.captions)) == 5


def test_synth_nearest_prototype_recovers_labels():
    # classification oracle: features must stay close to their label prototype
    recs, _ = synth_corpus(seed=11, n_images=60, n_labels=8, visual_dim=24, glove_dim=4)
    protos = {}
    for rec in recs:
        for obj in rec.objects:
            protos.setdefault(obj.label, []).append(np.array(obj.feature))
    labels = sorted(protos)
    centroids = np.stack([np.mean(protos[l], axis=0) for l in labels])
    total = correct = 0
    for rec in recs:
        for obj in rec.objects:
            d = np.linalg.norm(centroids - np.array(obj.feature), axis=1)
            total += 1
            correct += labels[int(np.argmin(d))] == obj.label
    assert correct / total >= 0.99


def test_synth_rejects_bad_counts():
    with pytest.raises(ValidationError):
        synth_corpus(seed=0, n_images=0, n_labels=3, visual_dim=4, glove_dim=2)


# --- coco conversion ---


def test_convert_coco_mapping_layout(tmp_path):
    caps = {
        "42": [f"a cat sits {i}" for i in range(6)],
        "43": [f"a dog runs {i}" for i in range(5)],
    }
    feats = {
        "42": [{"label": "cat", "feature": [1.0, 2.0], "bbox": [0, 0, 10, 10]}],
        "43": [{"label": "dog", "feature": [3.0, 4.0], "bbox": [5, 5, 10, 10]}],
    }
    cp, fp, op = tmp_path / "caps.json", tmp_path / "feats.json", tmp_path / "out.jsonl"
    cp.write_text(json.dumps(caps))
    fp.write_text(json.dumps(feats))
    assert convert_coco(cp, fp, op) == 2
    recs = load_records(op)
    assert [r.id for r in recs] == ["42", "43"]
    assert len(recs[0].captions) == 5  # extra captions dropped
    assert recs[0].objects[0].distance == bbox_center_distance((0, 0, 10, 10))


def test_convert_coco_annotation_layout(tmp_path):
    caps = {
        "images": [{"id": 7}],
        "annotations": [{"id": i, "image_id": 7, "caption": f"caption {i}"} for i in range(5)],
    }
    feats = {"7": [{"label": "owl", "feature": [0.5], "bbox": [1, 2, 3, 4]}]}
    cp, fp, op = tmp_path / "caps.json", tmp_path / "feats.json", tmp_path / "out.jsonl"
    cp.write_text(json.dumps(caps))
    fp.write_text(json.dumps(feats))
    assert convert_coco(cp, fp, op) == 1
    assert load_records(op)[0].captions == [f"caption {i}" for i in range(5)]


def test_convert_coco_missing_captions(tmp_path):
    cp, fp, op = tmp_path / "caps.json", tmp_path / "feats.json", tmp_path / "out.jsonl"
    cp.write_text(json.dumps({"1": ["a", "b", "c", "d", "e"]}))
    fp.write_text(json.dumps({"2": [{"label": "x", "feature": [1.0], "bbox": [0, 0, 1, 1]}]}))
    with pytest.raises(ValidationError) as e:
        convert_coco(cp, fp, op)
    assert "2" in str(e.value)


def test_convert_coco_too_few_captions(tmp_path):
    cp, fp, op = tmp_path / "caps.json", tmp_path / "feats.json", tmp_path / "out.jsonl"
    cp.write_text(json.dumps({"1": ["a", "b"]}))
    fp.write_text(json.dumps({"1": [{"label": "x", "feature": [1.0], "bbox": [0, 0, 1, 1]}]}))
    with pytest.raises(ValidationError):
        convert_coco(cp, fp, op)
