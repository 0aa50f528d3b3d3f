"""Consensus caption scoring via TF-IDF weighted n-gram cosines.

For each order n in 1..4 the candidate and every reference are mapped to
sparse TF-IDF vectors over their n-grams; the per-order score is the mean
cosine against the reference set, and the final score averages the four
orders and applies a display scale.

Document frequency is counted at the reference-set level: an n-gram
contributes once per set no matter how many of the set's references (or
repetitions) contain it. IDF is ln(num_docs / df); n-grams never seen in
the corpus fall back to df = 1. Published values for this metric family
sit above 1, which a plain average of cosines cannot produce, so the
conventional scale of 10 is the default and is configurable.

Scoring is two-phase: build an immutable `CiderCorpusIdf` over the
evaluation corpus once, then score any number of candidates against it.
"""

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ngrams import MAX_ORDER, ngram_table
from .records import Frozen

DEFAULT_SCALE = 10.0
# The largest scale a corpus run accepts. A unit's score is at most the
# scale, a split mean first sums one score per unit, and reports print
# Cap_Score (a quarter of four such means) times 100; at 1e300 all of
# these stay finite for any split of fewer than 1e8 units.
MAX_SCALE = 1e300


class CiderCorpusIdf(Frozen):
    """Reference-set document frequencies for one evaluation corpus."""

    __slots__ = ("num_docs", "df", "log_idf")
    _fields = ("num_docs", "df")

    def __init__(self, num_docs: int, df: Mapping[int, Mapping[tuple, int]]):
        values = {1}.union(*(order.values() for order in df.values()))
        # ln(num_docs / df) per distinct df value, computed once, not per lookup
        log_idf = {count: math.log(num_docs / count) for count in values}
        self._set(num_docs=num_docs, df=df, log_idf=log_idf)

    def __repr__(self) -> str:
        return f"CiderCorpusIdf(num_docs={self.num_docs!r})"


class CiderBreakdown(NamedTuple):
    per_n: tuple[float, float, float, float]
    score: float


def compute_idf(corpus: Sequence[Sequence[Sequence[str]]]) -> CiderCorpusIdf:
    """Count, per order, how many reference sets contain each n-gram.

    `corpus` is one reference set per scoring unit, each set a list of
    token sequences. Order-independent: shuffling the corpus yields the
    same statistics.
    """
    grams = []
    for references in corpus:
        tables = [ngram_table(reference) for reference in references]
        # a set of several references takes each order's union, and an
        # empty set has no grams but still counts as a document
        grams.append(
            tables[0] if len(tables) == 1
            else [set().union(*[table[n] for table in tables]) for n in range(MAX_ORDER)]
        )
    return idf_from_tables(grams)


def idf_from_tables(tables: Sequence[Sequence[Iterable[tuple]]]) -> CiderCorpusIdf:
    """`compute_idf` from the grams of each reference set, one collection per order.

    `tables[d][n - 1]` holds the distinct order-n grams of set d: one
    reference's `ngram_table` serves as is, and any other collection of
    distinct grams, such as a set, does too. Counting every set's grams
    then counts each set once per gram it contains.
    """
    if not tables:
        raise ValueError("cider idf requires a non-empty corpus")
    df = {
        n: Counter(chain.from_iterable(table[n - 1] for table in tables))
        for n in range(1, MAX_ORDER + 1)
    }
    return CiderCorpusIdf(num_docs=len(tables), df=df)


def tfidf_weights(counts: Mapping[tuple, int], n: int, idf: CiderCorpusIdf) -> dict[tuple, float]:
    """Sparse TF-IDF vector of one caption's order-n window counts."""
    total = sum(counts.values())
    if total == 0:
        return {}
    df_get, log_idf = idf.df[n].get, idf.log_idf
    return {
        gram: (count / total) * log_idf[df_get(gram, 1)]
        for gram, count in counts.items()
    }


def _cosine(a: Mapping[tuple, float], b: Mapping[tuple, float], common: Iterable[tuple]) -> float:
    """Cosine of `a` and `b`, whose shared keys are `common`."""
    # zero vectors (empty captions, single-document corpora) score 0
    norm_a = math.sqrt(math.fsum([v * v for v in a.values()]))
    norm_b = math.sqrt(math.fsum([v * v for v in b.values()]))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    # a key outside `common` adds a zero term (weights are finite and >= 0);
    # fsum is exactly rounded, so leaving those out gives the same float
    dot = math.fsum([a[k] * b[k] for k in common])
    return dot / (norm_a * norm_b)


def similarity(
    cand_vec: Mapping[tuple, float],
    ref_vec: Mapping[tuple, float],
    common: Iterable[tuple],
    penalty: float,
) -> float:
    """One order's similarity of a candidate to one reference.

    The cosine of their TF-IDF vectors, whose shared grams are `common`,
    times the `length_penalty` of the pair.
    """
    # rounding can lift the cosine of equal vectors an ulp above 1
    return min(_cosine(cand_vec, ref_vec, common), 1.0) * penalty


def check_scale(scale: float, name: str = "scale") -> None:
    """ValueError unless 0 < scale <= `MAX_SCALE`, the scales a corpus run accepts."""
    # NaN fails the comparison and infinity the bound
    if not 0.0 < scale <= MAX_SCALE:
        raise ValueError(f"{name} must be a number > 0 and at most {MAX_SCALE:g}, got {scale!r}")


def length_penalty_spread(sigma: float, name: str = "length_penalty_sigma") -> float:
    """2 * sigma**2, the denominator of the Gaussian length penalty.

    ValueError unless sigma > 0 and the spread is finite and above zero: a
    sigma below about 1e-162 squares to 0, and one above about 1e154
    overflows.
    """
    try:
        spread = 2.0 * sigma**2
    except OverflowError:
        spread = math.inf
    if not (sigma > 0.0 and 0.0 < spread < math.inf):
        raise ValueError(
            f"{name} must be a number > 0 whose square is finite and > 0, got {sigma!r}"
        )
    return spread


def length_penalty(candidate_len: int, reference_len: int, spread: float | None) -> float:
    """The Gaussian length penalty for `length_penalty_spread` `spread`; 1 without one."""
    if spread is None:
        return 1.0
    delta = candidate_len - reference_len
    return math.exp(-(delta * delta) / spread)


def cider_score(per_n: Sequence[float], scale: float) -> float:
    """The score: the mean of the per-order similarities, times `scale`."""
    return scale * math.fsum(per_n) / MAX_ORDER


def cider(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    idf: CiderCorpusIdf,
    scale: float = DEFAULT_SCALE,
    length_penalty_sigma: float | None = None,
) -> CiderBreakdown:
    """Score one candidate against its reference set.

    `length_penalty_sigma` switches on the Gaussian length penalty used by
    the -D variant of this metric (off by default; the plain cosine form
    is the primary definition here).
    """
    if not references:
        raise ValueError("cider requires at least one reference")
    check_scale(scale)
    spread = None
    if length_penalty_sigma is not None:
        spread = length_penalty_spread(length_penalty_sigma)
    penalties = [length_penalty(len(candidate), len(ref), spread) for ref in references]
    cand_table = ngram_table(candidate)
    ref_tables = [ngram_table(reference) for reference in references]
    per_n = []
    for n in range(1, MAX_ORDER + 1):
        cand_counts = cand_table[n - 1]
        cand_vec = tfidf_weights(cand_counts, n, idf)
        sims = []
        for ref_table, penalty in zip(ref_tables, penalties):
            ref_counts = ref_table[n - 1]
            common = cand_counts.keys() & ref_counts.keys()
            sims.append(similarity(cand_vec, tfidf_weights(ref_counts, n, idf), common, penalty))
        per_n.append(math.fsum(sims) / len(references))
    return CiderBreakdown(per_n=tuple(per_n), score=cider_score(per_n, scale))
