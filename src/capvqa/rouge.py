"""ROUGE-L over token sequences.

score = (1 + beta^2) * R * P / (R + beta^2 * P), with R = LCS/m (reference
length m) and P = LCS/n (candidate length n).

Two conventions for beta are supported. The default, `precision-ratio`,
sets beta = P/R, which collapses algebraically to
R*P*(R^2+P^2)/(R^3+P^3). `recall-weighted` is the classic summarization
convention where beta is a large constant and the score reduces to
recall.
"""

from typing import NamedTuple, Sequence

BETA_CONVENTIONS = ("precision-ratio", "recall-weighted")
RECALL_WEIGHTED_BETA = 1e6


class RougeBreakdown(NamedTuple):
    lcs: int
    recall: float
    precision: float
    beta: float
    score: float


def lcs_length(x: Sequence[str], y: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel.

    The bit-vector recurrence of Allison & Dix (1986), in Hyyro's (2004)
    form: one Python int holds a bit per token of the shorter sequence,
    and each token of the longer one updates it with an add, a subtract
    and two bitwise operations. That is O(len(x) * ceil(min / w)) word
    operations for machine word size w, O(min) space, and the same
    integer as the quadratic dynamic program.
    """
    if len(x) < len(y):
        x, y = y, x
    masks: dict[str, int] = {}
    for j, token in enumerate(y):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(y)) - 1
    v = full  # a zero bit at j marks where the LCS so far grows
    for token in x:
        mask = masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(y) - v.bit_count()


def rouge_l(
    candidate: Sequence[str],
    reference: Sequence[str],
    convention: str = "precision-ratio",
) -> RougeBreakdown:
    """Score one candidate against one reference; empty inputs score 0."""
    if convention not in BETA_CONVENTIONS:
        raise ValueError(
            f"convention must be one of {BETA_CONVENTIONS}, got {convention!r}"
        )
    if not candidate or not reference:
        return RougeBreakdown(lcs=0, recall=0.0, precision=0.0, beta=0.0, score=0.0)
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return RougeBreakdown(lcs=0, recall=0.0, precision=0.0, beta=0.0, score=0.0)
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    if convention == "precision-ratio":
        beta = precision / recall
    else:
        beta = RECALL_WEIGHTED_BETA
    beta_sq = beta * beta
    score = (1.0 + beta_sq) * recall * precision / (recall + beta_sq * precision)
    return RougeBreakdown(
        lcs=lcs, recall=recall, precision=precision, beta=beta, score=score
    )
