"""n-gram extraction and clipped matching, shared by BLEU and CIDEr."""

from collections import Counter
from typing import Iterable, Mapping, Sequence

MAX_ORDER = 4


def extract_ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Count every n-token window with multiplicity.

    A sequence shorter than n has no windows and yields empty counts.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"n-gram order must be in [1, {MAX_ORDER}], got {n}")
    # zipping n shifted slices builds each window in C, not in a Python loop
    return Counter(zip(*(tokens[k:] for k in range(n))))


def ngram_table(tokens: Sequence[str]) -> tuple[Counter, ...]:
    """The 1-4-gram counts of `tokens`: index n - 1 holds the order-n counts."""
    # `extract_ngrams` for n = 1..4 (MAX_ORDER), each shifted copy sliced once
    t1, t2, t3 = tokens[1:], tokens[2:], tokens[3:]
    return (
        Counter(zip(tokens)),
        Counter(zip(tokens, t1)),
        Counter(zip(tokens, t1, t2)),
        Counter(zip(tokens, t1, t2, t3)),
    )


def clipped_count(
    candidate: Mapping[tuple, int], ceiling: Mapping[tuple, int], common: Iterable[tuple]
) -> int:
    """Sum over `common` of each gram's candidate count, clipped to its ceiling.

    `common` holds the grams both counts share; any other gram clips to 0.
    """
    return sum([min(candidate[gram], ceiling[gram]) for gram in common])


def clipped_matches(candidate: Mapping[tuple, int], references: Sequence[Mapping]) -> int:
    """Candidate n-gram count clipped to the per-gram maximum over references.

    This is the numerator of BLEU's modified precision: each candidate
    n-gram earns credit at most as many times as its best reference
    contains it. All counts are of one order and positive.
    """
    if not references:
        return 0
    ceiling = references[0]  # one reference is its own ceiling
    if len(references) > 1:
        # each gram's largest count; `|` would do this for Counters only,
        # and merge plain dicts instead, the last reference's count winning
        ceiling = {}
        for reference in references:
            for gram, count in reference.items():
                if count > ceiling.get(gram, 0):
                    ceiling[gram] = count
    return clipped_count(candidate, ceiling, candidate.keys() & ceiling.keys())
