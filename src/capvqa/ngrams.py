"""n-gram extraction and clipped matching, shared by BLEU and CIDEr."""

import operator
from collections import Counter
from functools import cached_property, reduce
from typing import Iterator, Sequence

MAX_ORDER = 4


def windows(tokens: Sequence[str], n: int) -> Iterator[tuple]:
    """Every n-token window of `tokens`, in order, as a tuple."""
    # zipping n shifted slices builds each window in C, not in a Python loop
    return zip(*(tokens[k:] for k in range(n)))


def extract_ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Count every n-token window with multiplicity.

    A sequence shorter than n has no windows and yields empty counts.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"n-gram order must be in [1, {MAX_ORDER}], got {n}")
    return Counter(windows(tokens, n))


class Tokens(tuple):
    """A token sequence that counts its 1-4-grams once, on first use.

    BLEU and CIDEr both read `ngrams`. A scoring unit wraps its candidate
    and its reference in one of these, so the two metrics share one table
    per caption, and the table is dropped with the unit.
    """

    @cached_property
    def ngrams(self) -> tuple[Counter, ...]:
        """Window counts by order: index n - 1 holds the order-n counts."""
        # `windows` for n = 1..4 (MAX_ORDER), each shifted copy sliced once
        t1, t2, t3 = self[1:], self[2:], self[3:]
        return (
            Counter(zip(self)),
            Counter(zip(self, t1)),
            Counter(zip(self, t1, t2)),
            Counter(zip(self, t1, t2, t3)),
        )


def ngram_table(tokens: Sequence[str]) -> tuple[Counter, ...]:
    """The 1-4-gram counts of `tokens`, counted once per `Tokens` object."""
    return (tokens if isinstance(tokens, Tokens) else Tokens(tokens)).ngrams


def clipped_matches(candidate: Counter, references: Sequence[Counter]) -> int:
    """Candidate n-gram count clipped to the per-gram maximum over references.

    This is the numerator of BLEU's modified precision: each candidate
    n-gram earns credit at most as many times as its best reference
    contains it. All counts are of one order and positive.
    """
    if not references:
        return 0
    # `|` keeps each gram's largest count; one reference is its own ceiling
    ceiling = references[0] if len(references) == 1 else reduce(operator.or_, references)
    return sum([min(candidate[gram], ceiling[gram]) for gram in candidate.keys() & ceiling.keys()])
