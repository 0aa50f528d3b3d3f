"""n-gram extraction and clipped matching, shared by BLEU and CIDEr.

An n-gram is keyed by its tokens joined with one space, and a unigram by
its token alone. A `str` caches its hash, where a tuple hashes its items
again on every lookup, and scoring looks each gram up several times.
Tokens from `tokenize` never hold whitespace, so a key names its gram
uniquely; the public functions that key grams reject a token holding a
space (`check_tokens`). `ngram_table` counts into plain dicts, which
scoring reads; `extract_ngrams` and `count_grams`, the IDF's counter,
return `Counter`s.
"""

from collections import Counter, _count_elements
from operator import add
from typing import Iterable, Mapping, Sequence

MAX_ORDER = 4


def check_tokens(*sequences: Sequence[str]) -> None:
    """ValueError if a token of the sequences holds a space: two grams would share a key."""
    # joined with nothing, the tokens hold a space only where one token does
    if any(" " in "".join(tokens) for tokens in sequences):
        token = next(token for tokens in sequences for token in tokens if " " in token)
        raise ValueError(f"a token holds a space, so its n-grams have no key: {token!r}")


def count_grams(grams: Iterable[str]) -> Counter:
    """`Counter(grams)`, counted by the C loop it runs, without its two Python frames."""
    counts = Counter()
    _count_elements(counts, grams)
    return counts


def extract_ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Count every n-token window with multiplicity, keyed by its joined tokens.

    A sequence shorter than n has no windows and yields empty counts.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"n-gram order must be in [1, {MAX_ORDER}], got {n}")
    check_tokens(tokens)
    return Counter(ngram_table(tokens)[n - 1])


def ngram_table(tokens: Sequence[str]) -> tuple[dict[str, int], ...]:
    """The 1-4-gram counts of `tokens`: index n - 1 holds the order-n counts.

    Each order is a plain dict counting its len(tokens) - n + 1 windows, by
    `Counter`'s C loop. The tokens must hold no space (`check_tokens`);
    this is not checked.
    """
    # each order's keys extend the last order's by a space and a token
    spaced = list(map(" ".__add__, tokens))
    bigrams = list(map(add, tokens, spaced[1:]))
    trigrams = list(map(add, bigrams, spaced[2:]))
    table = ({}, {}, {}, {})
    _count_elements(table[0], tokens)
    _count_elements(table[1], bigrams)
    _count_elements(table[2], trigrams)
    _count_elements(table[3], map(add, trigrams, spaced[3:]))
    return table


def clipped_matches(candidate: Mapping[str, int], references: Sequence[Mapping]) -> int:
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
    common = candidate.keys() & ceiling.keys()  # any other gram clips to 0
    return sum(map(min, map(candidate.__getitem__, common), map(ceiling.__getitem__, common)))
