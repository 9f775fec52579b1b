import math

import numpy as np
import pytest

from objcap.bleu import (
    closest_ref_length,
    corpus_bleu,
    corpus_bleu_parts,
    corpus_stats,
    ngram_counts,
    sentence_bleu,
)


def test_identity_scores_one():
    ref = "a cat sat on the mat".split()
    assert sentence_bleu(ref, [ref]) == 1.0


def test_repeated_word_clipping():
    # "the" appears at most twice in the reference, so clipped count is 2 of 7;
    # hypothesis is longer than the reference, so no brevity penalty.
    hyp = ["the"] * 7
    ref = "the cat is on the mat".split()
    score = sentence_bleu(hyp, [ref], max_n=1)
    assert abs(score - 2.0 / 7.0) < 1e-9


def test_disjoint_tokens_score_zero():
    assert sentence_bleu("a b c".split(), ["x y z".split()]) == 0.0


def test_empty_hypothesis_scores_zero():
    assert sentence_bleu([], ["a b".split()]) == 0.0


def test_zero_precision_zeroes_score_no_smoothing():
    # unigrams match but no bigram does -> BLEU-2 is exactly 0
    hyp = "a b".split()
    ref = "b a".split()
    assert sentence_bleu(hyp, [ref], max_n=2) == 0.0
    assert sentence_bleu(hyp, [ref], max_n=1) == 1.0


def test_short_hypothesis_brevity_penalty():
    # p1 = p2 = 1, c=2, r=4 -> BP = exp(1 - 4/2) = e^-1
    hyp = "the cat".split()
    ref = "the cat sat down".split()
    score = sentence_bleu(hyp, [ref], max_n=2)
    assert abs(score - math.exp(-1.0)) < 1e-12


def test_closest_ref_length_tie_prefers_shorter():
    refs = [["a"] * 3, ["a"] * 5]
    assert closest_ref_length(4, refs) == 3
    assert closest_ref_length(5, refs) == 5


def test_ngram_counts():
    grams = ngram_counts("a b a b".split(), 2)
    assert grams[("a", "b")] == 2 and grams[("b", "a")] == 1


def test_corpus_two_pair_manual_aggregation():
    # pair 1: hyp=[the cat], ref=[the cat]        -> p1 2/2, p2 1/1
    # pair 2: hyp=[a dog runs], ref=[a dog sits]  -> p1 2/3, p2 1/2
    # corpus: p1 = 4/5, p2 = 2/3, c = r = 5 -> BLEU-2 = sqrt(8/15)
    pairs = [
        ("the cat".split(), ["the cat".split()]),
        ("a dog runs".split(), ["a dog sits".split()]),
    ]
    score = corpus_bleu(pairs, max_n=2)
    assert abs(score - math.sqrt(8.0 / 15.0)) < 1e-9
    # and it differs from the mean of sentence scores
    mean = sum(sentence_bleu(h, r, max_n=2) for h, r in pairs) / 2
    assert abs(score - mean) > 1e-3


def test_corpus_single_pair_equals_sentence():
    rng = np.random.default_rng(2)
    words = "a b c d e f g".split()
    for _ in range(25):
        hyp = [words[i] for i in rng.integers(0, 7, size=rng.integers(1, 9))]
        refs = [
            [words[i] for i in rng.integers(0, 7, size=rng.integers(1, 9))]
            for _ in range(rng.integers(1, 4))
        ]
        assert corpus_bleu([(hyp, refs)], max_n=2) == sentence_bleu(hyp, refs, max_n=2)


def test_corpus_all_identical_scores_one():
    pairs = [(["x", "y"], [["x", "y"]]), (["z"], [["z"]])]
    assert corpus_bleu(pairs) == 1.0


def test_corpus_stats_components():
    pairs = [("the cat".split(), ["the cat sat".split()])]
    clipped, totals, c, r = corpus_stats(pairs, max_n=2)
    assert clipped == [2, 1] and totals == [2, 1]
    assert c == 2 and r == 3


def test_scores_stay_in_unit_interval():
    rng = np.random.default_rng(4)
    words = "a b c d".split()
    for _ in range(50):
        hyp = [words[i] for i in rng.integers(0, 4, size=rng.integers(0, 8))]
        refs = [[words[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))] for _ in range(2)]
        s = sentence_bleu(hyp, refs, max_n=3)
        assert 0.0 <= s <= 1.0


def test_argument_validation():
    with pytest.raises(ValueError):
        sentence_bleu(["a"], [])
    with pytest.raises(ValueError):
        sentence_bleu(["a"], [["a"]], max_n=0)
    with pytest.raises(ValueError):
        corpus_bleu([])


def test_corpus_bleu_parts_manual_aggregation():
    # same corpus as the two-pair test, plus a short third pair:
    # hyp=[a], ref=[a cat] -> p1 1/1, no bigrams; c = 6, r = 7
    pairs = [
        ("the cat".split(), ["the cat".split()]),
        ("a dog runs".split(), ["a dog sits".split()]),
        (["a"], ["a cat".split()]),
    ]
    parts = corpus_bleu_parts(pairs, max_n=2)
    assert parts.precisions == [5 / 6, 2 / 3]
    assert parts.hyp_length == 6 and parts.ref_length == 7
    assert parts.brevity_penalty == math.exp(1.0 - 7 / 6)
    assert parts.score == corpus_bleu(pairs, max_n=2)
    assert abs(parts.score - math.exp(1.0 - 7 / 6) * math.sqrt(5 / 6 * 2 / 3)) < 1e-12


def test_corpus_bleu_parts_empty_hypotheses():
    parts = corpus_bleu_parts([([], ["a b".split()])], max_n=2)
    assert parts.score == 0.0 and parts.brevity_penalty == 0.0
    assert parts.precisions == [0.0, 0.0]


def test_corpus_argument_validation():
    pairs = [(["a"], [["a"]])]
    with pytest.raises(ValueError):
        corpus_bleu(pairs, max_n=0)
    with pytest.raises(ValueError):
        corpus_bleu([(["a"], [])])
