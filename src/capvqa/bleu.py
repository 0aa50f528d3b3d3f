"""Sentence-level BLEU-4 with uniform weights and brevity penalty.

BLEU-4 = BP * exp(sum_n w_n * ln p_n) with w_n = 1/4, where p_n is the
modified n-gram precision for orders 1..4 and BP penalizes candidates
shorter than the reference: BP = 1 if c > r else exp(1 - r/c).

Unsmoothed by default: any p_n of zero forces a zero score. The
`epsilon` policy floors zero precisions at 1e-9 for head-to-head
comparisons with smoothing scorers.
"""

import math
from typing import Mapping, NamedTuple, Sequence

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


def bleu_from_tables(
    cand_table: Sequence[Mapping[str, int]],
    ref_tables: Sequence[Sequence[Mapping[str, int]]],
    c: int,
    r: int,
    zero_policy: str,
) -> BleuBreakdown:
    """`bleu4` from the `ngram_table` of a candidate of c tokens and of its references.

    r is the effective reference length (`effective_reference_length`).
    An order-n precision counts the candidate's clipped matches over its
    c - n + 1 windows, and is 0 without a window; the `epsilon` policy
    floors a zero precision at `EPSILON_FLOOR`.
    """
    if c == 0:
        return BleuBreakdown(precisions=(0.0,) * 4, brevity_penalty=0.0, score=0.0)
    precisions = []
    # each order's candidate counts, and the references' counts of that order
    for n, cand, refs in zip(range(1, MAX_ORDER + 1), cand_table, zip(*ref_tables)):
        p = clipped_matches(cand, refs) / (c - n + 1) if c >= n else 0.0
        if p == 0.0 and zero_policy == "epsilon":
            p = EPSILON_FLOOR
        precisions.append(p)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    score = 0.0
    if 0.0 not in precisions:
        # added left to right from 0.0, not by `sum`, which compensates
        # its float additions since Python 3.12
        log_sum = 0.0
        for p in precisions:
            log_sum += math.log(p)
        score = bp * math.exp(log_sum / MAX_ORDER)
    return BleuBreakdown(precisions=tuple(precisions), brevity_penalty=bp, score=score)


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
    return bleu_from_tables(
        ngram_table(candidate),
        [ngram_table(ref) for ref in references],
        c,
        effective_reference_length(c, references),
        zero_policy,
    )
