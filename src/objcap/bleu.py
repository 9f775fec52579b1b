"""Multi-reference BLEU: clipped n-gram precisions, geometric mean, brevity
penalty. No smoothing: any zero precision zeroes the score.

Only the hypothesis' n-grams are counted against the references: for each
order n, each of the hypothesis' n-grams is looked up in each reference's
n-gram counts, and the counting stops at the first order with no match, since
a longer match contains a shorter one. A pair's cost thus grows with the
lengths of its sentences, not with ``max_n``.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


def ngram_counts(tokens, n: int) -> Counter:
    """How often each n-gram (a tuple of n tokens) occurs in ``tokens``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(zip(*[tokens[k:] for k in range(n)]))


def closest_ref_length(hyp_len: int, references) -> int:
    """Reference length nearest to hyp_len; ties go to the shorter."""
    return min((len(r) for r in references), key=lambda rl: (abs(rl - hyp_len), rl))


def _pair_stats(hypothesis, references, max_n):
    """One pair's clipped and total n-gram counts, per order from 1, plus its
    length and closest reference length. The lists end at the hypothesis
    length or ``max_n``, and ``clipped`` also at the first order with no
    match; every order past a list's end counts 0."""
    if not references:
        raise ValueError("at least one reference is required")
    orders = range(1, min(max_n, len(hypothesis)) + 1)
    clipped = []
    for n in orders:
        in_refs = [ngram_counts(ref, n) for ref in references]
        grams = ngram_counts(hypothesis, n).items()
        matched = sum(min(cnt, max(counts.get(gram, 0) for counts in in_refs)) for gram, cnt in grams)
        if not matched:
            break
        clipped.append(matched)
    totals = [len(hypothesis) - n + 1 for n in orders]
    return clipped, totals, len(hypothesis), closest_ref_length(len(hypothesis), references)


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    return 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)


def _score(clipped, totals, hyp_len, ref_len) -> float:
    """The brevity penalty times the geometric mean of the precisions, each
    order weighted 1 / max_n."""
    if hyp_len == 0:
        return 0.0
    w = 1.0 / len(clipped)
    log_sum = 0.0
    for num, den in zip(clipped, totals):
        if den == 0:
            # no hypothesis n-grams of this order exist anywhere; the
            # precision is undefined, not zero, so it carries no evidence
            continue
        if num == 0:
            return 0.0
        log_sum += w * math.log(num / den)
    return _brevity_penalty(hyp_len, ref_len) * math.exp(log_sum)


def corpus_stats(pairs, max_n: int = 4):
    """Summed n-gram and length statistics over (hypothesis, references) pairs.

    Returns (clipped, totals, hyp_len, ref_len) with per-n lists. Counts are
    summed before any division: this is corpus-level BLEU, not a mean of
    sentence scores.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if not pairs:
        raise ValueError("corpus BLEU needs at least one pair")
    clipped = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hypothesis, references in pairs:
        pc, pt, c, r = _pair_stats(hypothesis, references, max_n)
        for n, k in enumerate(pc):
            clipped[n] += k
        for n, k in enumerate(pt):
            totals[n] += k
        hyp_len += c
        ref_len += r
    return clipped, totals, hyp_len, ref_len


@dataclass
class CorpusBleu:
    """Corpus BLEU with its parts: per-order precisions (0.0 for an order
    with no hypothesis n-grams), brevity penalty and the summed lengths."""

    score: float
    precisions: list[float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


def corpus_bleu_parts(pairs, max_n: int = 4) -> CorpusBleu:
    """Corpus BLEU and its parts, from one corpus_stats pass."""
    clipped, totals, hyp_len, ref_len = corpus_stats(pairs, max_n)
    return CorpusBleu(
        score=_score(clipped, totals, hyp_len, ref_len),
        precisions=[(c / t) if t else 0.0 for c, t in zip(clipped, totals)],
        brevity_penalty=_brevity_penalty(hyp_len, ref_len),
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


def corpus_bleu(pairs, max_n: int = 4) -> float:
    return corpus_bleu_parts(pairs, max_n).score


def sentence_bleu(hypothesis, references, max_n: int = 4) -> float:
    """BLEU of one pair: corpus BLEU over a corpus of that one pair."""
    return corpus_bleu([(hypothesis, references)], max_n)
