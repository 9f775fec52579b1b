import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objcap import bleu
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


@pytest.mark.parametrize("n", [0, -1])
def test_ngram_counts_rejects_an_order_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        ngram_counts("a b".split(), n)


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


# ---------------------------------------------------------------------------
# the brute-force reference: every n-gram of every reference counted and
# max-merged, for every order up to max_n


def brute_force_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def brute_force_pair_stats(hypothesis, references, max_n):
    """Per-pair clipped/total n-gram counts plus length bookkeeping."""
    if not references:
        raise ValueError("at least one reference is required")
    clipped = [0] * max_n
    totals = [0] * max_n
    for n in range(1, max_n + 1):
        counts = brute_force_ngram_counts(hypothesis, n)
        if not counts:
            continue
        max_ref = Counter()
        for ref in references:
            for gram, cnt in brute_force_ngram_counts(ref, n).items():
                if cnt > max_ref[gram]:
                    max_ref[gram] = cnt
        clipped[n - 1] = sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
        totals[n - 1] = sum(counts.values())
    return clipped, totals, len(hypothesis), closest_ref_length(len(hypothesis), references)


def brute_force_corpus_stats(pairs, max_n=4):
    stats = [brute_force_pair_stats(hyp, refs, max_n) for hyp, refs in pairs]
    return (
        [sum(s[0][n] for s in stats) for n in range(max_n)],
        [sum(s[1][n] for s in stats) for n in range(max_n)],
        sum(s[2] for s in stats),
        sum(s[3] for s in stats),
    )


@st.composite
def corpora(draw):
    """A corpus over an alphabet of 1-6 tokens, so n-grams repeat, with
    hypotheses of 0-8 tokens (often empty or shorter than max_n), 1-5
    references of 0-12 tokens each, and a max_n of 1-6."""
    alphabet = "abcdef"[: draw(st.integers(1, 6))]
    hypothesis = st.lists(st.sampled_from(alphabet), max_size=8)
    references = st.lists(st.lists(st.sampled_from(alphabet), max_size=12), min_size=1, max_size=5)
    return draw(st.lists(st.tuples(hypothesis, references), min_size=1, max_size=6)), draw(st.integers(1, 6))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(corpora())
def test_corpus_stats_and_parts_equal_the_brute_force_reference(corpus):
    pairs, max_n = corpus
    expected = brute_force_corpus_stats(pairs, max_n)
    assert corpus_stats(pairs, max_n) == expected
    with mock.patch.object(bleu, "corpus_stats", brute_force_corpus_stats):
        expected_parts = corpus_bleu_parts(pairs, max_n)
    assert corpus_bleu_parts(pairs, max_n) == expected_parts
    for tokens in [hyp for hyp, _ in pairs] + [ref for _, refs in pairs for ref in refs]:
        for n in range(1, max_n + 1):
            assert ngram_counts(tokens, n) == brute_force_ngram_counts(tokens, n)


def test_huge_max_n_holds_zeros_past_the_longest_hypothesis():
    # the brute-force reference would walk every order up to 10**6 for each pair
    pairs = [
        ("a cat sat on the mat".split(), ["a cat sat on a mat".split(), "the cat is on the mat".split()]),
        ("the cat".split(), ["the cat sat".split()]),
        ([], ["a b".split()]),
    ]
    longest = 6
    clipped, totals, hyp_len, ref_len = corpus_stats(pairs, max_n=10**6)
    short = brute_force_corpus_stats(pairs, max_n=longest)
    assert (clipped[:longest], totals[:longest], hyp_len, ref_len) == short
    assert len(clipped) == len(totals) == 10**6
    assert not any(clipped[longest:]) and not any(totals[longest:])
