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
Its document frequencies are keyed as `ngrams` keys grams, by their
tokens joined with one space. `cider_from_tables` scores a candidate
from the n-gram count tables of it and its references, which `cider`
builds and `scoring._score_unit` takes from its split; it weighs the
candidate's vector once per order and takes each cosine straight from
two count tables, so no TF-IDF vector is built as a dict; each order's
window count, the divisor of its weights, comes from the caption length.
"""

import math
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ngrams import MAX_ORDER, check_tokens, count_grams, ngram_table
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

    def __init__(self, num_docs: int, df: Mapping[int, Mapping[str, int]]):
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
        check_tokens(*references)
        tables = [ngram_table(reference) for reference in references]
        # a set of several references takes each order's union, and an
        # empty set has no grams but still counts as a document
        grams.append(
            tables[0] if len(tables) == 1
            else [set().union(*[table[n] for table in tables]) for n in range(MAX_ORDER)]
        )
    return idf_from_tables(grams)


def idf_from_tables(tables: Sequence[Sequence[Iterable[str]]]) -> CiderCorpusIdf:
    """`compute_idf` from the grams of each reference set, one collection per order.

    `tables[d][n - 1]` holds the distinct order-n grams of set d: one
    reference's `ngram_table` serves as is, and any other collection of
    distinct grams, such as a set, does too. Counting every set's grams
    then counts each set once per gram it contains.
    """
    if not tables:
        raise ValueError("cider idf requires a non-empty corpus")
    df = {
        n: count_grams(chain.from_iterable(table[n - 1] for table in tables))
        for n in range(1, MAX_ORDER + 1)
    }
    return CiderCorpusIdf(num_docs=len(tables), df=df)


def norm(counts: Mapping[str, int], n: int, idf: CiderCorpusIdf) -> float:
    """The length of the order-n TF-IDF vector of a count table.

    A gram's weight is (count / windows) * ln(num_docs / df), with
    `windows` the table's total count and df 1 for a gram the corpus
    lacks. The weights are one list: no vector is built as a dict.
    """
    return _norm(counts, sum(counts.values()), idf.df[n].get, idf.log_idf)


def _norm(counts: Mapping[str, int], windows: int, df_get, log_idf: Mapping[int, float]) -> float:
    """`norm` of a table of `windows` windows, with the order's bound `df.get`."""
    return math.sqrt(math.fsum([
        w * w
        for gram, count in counts.items()
        for w in ((count / windows) * log_idf[df_get(gram, 1)],)
    ]))


def cosine(
    cand: Mapping[str, int], ref: Mapping[str, int], n: int, idf: CiderCorpusIdf, cand_norm: float
) -> float:
    """Cosine of the order-n TF-IDF vectors of two count tables; `cand_norm` is `cand`'s `norm`.

    A zero vector (an empty caption, a single-document corpus) scores 0;
    the candidate's norm is checked before the reference's is computed.
    """
    return _cosine(
        cand, ref, sum(cand.values()), sum(ref.values()), idf.df[n].get, idf.log_idf, cand_norm
    )


def _cosine(
    cand: Mapping[str, int], ref: Mapping[str, int], cand_windows: int, ref_windows: int,
    df_get, log_idf: Mapping[int, float], cand_norm: float,
) -> float:
    """`cosine` from each table's window count and the order's bound `df.get`."""
    if cand_norm == 0.0:
        return 0.0
    ref_norm = _norm(ref, ref_windows, df_get, log_idf)
    if ref_norm == 0.0:
        return 0.0
    # a gram only one table holds adds a zero term (weights are finite and
    # >= 0); fsum is exactly rounded, so leaving those out gives the same float
    dot = math.fsum([
        ((cand[gram] / cand_windows) * log) * ((ref[gram] / ref_windows) * log)
        for gram in cand.keys() & ref.keys()
        for log in (log_idf[df_get(gram, 1)],)
    ])
    return dot / (cand_norm * ref_norm)


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


def cider_from_tables(
    cand_table: Sequence[Mapping[str, int]],
    ref_tables: Sequence[Sequence[Mapping[str, int]]],
    penalties: Sequence[float],
    idf: CiderCorpusIdf,
    scale: float,
) -> CiderBreakdown:
    """`cider` from the `ngram_table` of a candidate and of each of its references.

    `penalties[i]` scales every similarity to reference i (its
    `length_penalty`). Each order's similarity is the mean over the
    references, and the score the mean over the orders times `scale`.
    """
    log_idf = idf.log_idf
    # a caption of L tokens, its order-1 total, has L - n + 1 order-n
    # windows (`ngram_table`'s tables hold no others; none if below 1)
    c = sum(cand_table[0].values())
    ref_lens = [sum(table[0].values()) for table in ref_tables]
    per_n = []
    # each order's candidate counts, and the references' counts of that order
    for n, cand, refs in zip(range(1, MAX_ORDER + 1), cand_table, zip(*ref_tables)):
        df_get, cand_windows = idf.df[n].get, c - n + 1
        cand_norm = _norm(cand, cand_windows, df_get, log_idf)  # once per order
        sims = []
        for ref, r, penalty in zip(refs, ref_lens, penalties):
            sim = _cosine(cand, ref, cand_windows, r - n + 1, df_get, log_idf, cand_norm)
            # rounding can lift the cosine of equal vectors an ulp above 1
            sims.append(min(sim, 1.0) * penalty)
        per_n.append(math.fsum(sims) / len(refs))
    return CiderBreakdown(per_n=tuple(per_n), score=scale * math.fsum(per_n) / MAX_ORDER)


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
    check_tokens(candidate, *references)
    return cider_from_tables(
        ngram_table(candidate), [ngram_table(ref) for ref in references], penalties, idf, scale
    )
