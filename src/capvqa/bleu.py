"""Sentence-level BLEU-4 with uniform weights and brevity penalty.

BLEU-4 = BP * exp(sum_n w_n * ln p_n) with w_n = 1/4, where p_n is the
modified n-gram precision for orders 1..4 and BP penalizes candidates
shorter than the reference: BP = 1 if c > r else exp(1 - r/c).

Unsmoothed by default: any p_n of zero forces a zero score. The
`epsilon` policy floors zero precisions at 1e-9 for head-to-head
comparisons with smoothing scorers.
"""

import math
from typing import NamedTuple, Sequence

from .ngrams import MAX_ORDER, check_tokens, clipped_matches, ngram_table

ZERO_PRECISION_POLICIES = ("hard-zero", "epsilon")
EPSILON_FLOOR = 1e-9


class BleuBreakdown(NamedTuple):
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    score: float


def effective_reference_length(candidate_len: int, references: Sequence[Sequence[str]]) -> int:
    """Length of the reference closest to the candidate, ties to shorter."""
    best = None
    for ref in references:
        rlen = len(ref)
        if best is None:
            best = rlen
            continue
        if abs(rlen - candidate_len) < abs(best - candidate_len):
            best = rlen
        elif abs(rlen - candidate_len) == abs(best - candidate_len) and rlen < best:
            best = rlen
    return best


def modified_precision(matches: int, windows: int, zero_policy: str) -> float:
    """One order's modified precision: clipped matches over candidate windows.

    A candidate with no window of the order has precision 0; the `epsilon`
    policy floors a zero precision at `EPSILON_FLOOR`.
    """
    p = matches / windows if windows > 0 else 0.0
    if p == 0.0 and zero_policy == "epsilon":
        p = EPSILON_FLOOR
    return p


def brevity_penalty(c: int, r: int) -> float:
    """BP for a candidate of length c against reference length r; 0 when c is 0."""
    if c == 0:
        return 0.0
    return 1.0 if c > r else math.exp(1.0 - r / c)


def bleu_score(precisions: Sequence[float], bp: float) -> float:
    """BP times the geometric mean of the precisions; 0 if any precision is."""
    if any(p == 0.0 for p in precisions):
        return 0.0
    return bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)


def bleu4(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    zero_policy: str = "hard-zero",
) -> BleuBreakdown:
    """Score one candidate against one or more references.

    An empty candidate scores 0 (its brevity penalty degenerates to 0);
    an empty reference list is a caller error.
    """
    if not references:
        raise ValueError("bleu4 requires at least one reference")
    if zero_policy not in ZERO_PRECISION_POLICIES:
        raise ValueError(
            f"zero_policy must be one of {ZERO_PRECISION_POLICIES}, got {zero_policy!r}"
        )

    check_tokens(candidate, *references)
    c = len(candidate)
    if c == 0:
        return BleuBreakdown(precisions=(0.0,) * 4, brevity_penalty=0.0, score=0.0)
    cand_table = ngram_table(candidate)
    ref_tables = [ngram_table(ref) for ref in references]
    precisions = tuple(
        modified_precision(
            clipped_matches(cand_table[n - 1], [table[n - 1] for table in ref_tables]),
            c - n + 1,  # the candidate's order-n windows
            zero_policy,
        )
        for n in range(1, MAX_ORDER + 1)
    )
    bp = brevity_penalty(c, effective_reference_length(c, references))
    score = bleu_score(precisions, bp)
    return BleuBreakdown(precisions=precisions, brevity_penalty=bp, score=score)
