"""n-gram extraction and clipped matching, shared by BLEU and CIDEr.

An n-gram is keyed by its tokens joined with one space, and a unigram by
its token alone. A `str` caches its hash, where a tuple hashes its items
again on every lookup, and scoring looks each gram up several times.
Tokens from `tokenize` never hold whitespace, so a key names its gram
uniquely; the public functions that key grams reject a token holding a
space (`check_tokens`).
"""

from collections import Counter, _count_elements
from operator import add
from typing import Collection, Iterable, Mapping, Sequence

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
    return ngram_table(tokens)[n - 1]


def ngram_table(tokens: Sequence[str]) -> tuple[Counter, ...]:
    """The 1-4-gram counts of `tokens`: index n - 1 holds the order-n counts.

    The tokens must hold no space (`check_tokens`); this is not checked.
    """
    # each order's keys extend the last order's by a space and a token
    spaced = [" " + token for token in tokens]
    bigrams = list(map(add, tokens, spaced[1:]))
    trigrams = list(map(add, bigrams, spaced[2:]))
    return (
        count_grams(tokens),
        count_grams(bigrams),
        count_grams(trigrams),
        count_grams(map(add, trigrams, spaced[3:])),
    )


def clipped_count(
    candidate: Mapping[str, int], ceiling: Mapping[str, int], common: Collection[str]
) -> int:
    """Sum over `common` of each gram's candidate count, clipped to its ceiling.

    `common` holds the grams both counts share; any other gram clips to 0.
    """
    return sum(map(min, map(candidate.__getitem__, common), map(ceiling.__getitem__, common)))


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
    return clipped_count(candidate, ceiling, candidate.keys() & ceiling.keys())
