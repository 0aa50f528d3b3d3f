"""METEOR with exact-match unigram alignment and fragmentation penalty.

score = F_mean * (1 - penalty), where F_mean = P*R / (alpha*P + (1-alpha)*R)
over matched unigrams, and penalty = gamma * (ch/m)**beta with ch the
number of contiguous matched chunks. Matching is surface-form only: no
stemming or synonym stages, so scores are reproducible without lexical
resources.

The alignment maximizes the number of matched unigrams and, among all
such matchings, minimizes the chunk count. Every pair takes one path. A
left-to-right greedy pass, which prefers the reference position that
extends the current chunk, gives the first answer: its matches are
always the maximum, and its chunks an upper bound. An exact
branch-and-bound search then looks for a max matching with strictly
fewer chunks, within a fixed budget of `NODE_BUDGET` search steps per
pair. The result is exact whenever the search completes, and never
worse than greedy when it does not. The problem is NP-hard in general
(minimum common string partition), so some budget is needed; no pair of
the caption workloads comes near it (a few hundred steps at most), while
pathological pairs, such as 80 tokens over 4 distinct words, stop at it
in a few tens of milliseconds.

The search walks the candidate left to right over every max-cardinality
matching and no other: a word with c candidate and r reference
occurrences leaves exactly c - min(c, r) candidate occurrences
unmatched, so a position may stay unmatched only while its word has such
slack left. A position with one possible move (a word the reference
lacks, or no slack and one free reference occurrence) is taken in place;
only real choices branch, and every branch ends in a matching. Chunks
are counted as pairs are added and never decrease along a path, so a
path whose chunks so far, plus the chunks later positions must open in
any matching, reach the best found is dropped. Branches wait on an
explicit stack, so a long caption cannot exhaust the interpreter's
recursion limit.
"""

import math
from collections import Counter, defaultdict
from itertools import chain
from typing import NamedTuple, Sequence

from .records import Frozen

# Search nodes (steps of the exact search) one pair may spend; no pair of the
# benchmark workloads or fixtures needs more than a few hundred.
NODE_BUDGET = 10_000


class MeteorParams(Frozen):
    __slots__ = _fields = ("alpha", "beta", "gamma")

    def __init__(self, alpha: float = 0.9, beta: float = 3.0, gamma: float = 0.5):
        # the bounded alpha and gamma ranges already exclude NaN and infinities
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not math.isfinite(beta) or beta <= 0.0:
            raise ValueError(f"beta must be a finite number > 0, got {beta}")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self._set(alpha=alpha, beta=beta, gamma=gamma)


DEFAULT_PARAMS = MeteorParams()


class MeteorAlignment(NamedTuple):
    matches: int      # matched unigram occurrences (m)
    chunks: int       # contiguous matched chunks (ch); 0 iff m == 0
    candidate_len: int
    reference_len: int


class MeteorBreakdown(NamedTuple):
    precision: float
    recall: float
    f_mean: float
    penalty: float
    score: float


def _align_greedy(
    candidate: Sequence[str], reference: Sequence[str], ref_positions: dict
) -> tuple[int, int]:
    used = [False] * len(reference)
    # per word, the index in its positions of the first occurrence that may
    # be free; greedy never frees one, so the cursors only move forward
    first_free = dict.fromkeys(ref_positions, 0)
    matches = chunks = 0
    ext_i = ext_j = -1  # the pair that would extend the current chunk
    for i, tok in enumerate(candidate):
        positions = ref_positions.get(tok)
        if positions is None:
            continue
        if i == ext_i and ext_j < len(reference) and reference[ext_j] == tok and not used[ext_j]:
            j = ext_j
        else:
            # the first free occurrence; it cannot extend the chunk, or the
            # test above would have taken it
            k = first_free[tok]
            while k < len(positions) and used[positions[k]]:
                k += 1
            first_free[tok] = k
            if k == len(positions):
                continue
            j = positions[k]
            chunks += 1
        used[j] = True
        matches += 1
        ext_i, ext_j = i + 1, j + 1
    return matches, chunks


def _align_exhaustive(
    candidate: Sequence[str], reference: Sequence[str], ref_positions: dict, best: int
) -> int:
    """Fewest chunks of a max matching, or `best` if none has fewer within the budget."""
    counts = Counter(candidate)
    ref_bigrams = set(zip(reference, reference[1:]))
    # The root's bound, starts[0] below, in one pass before any search state
    # is built: when greedy's chunks already meet it, no matching has fewer.
    # A max matching pairs min(c, r) of a word's c candidate and r reference
    # occurrences, so when c <= r every candidate occurrence is matched.
    forced = sum([
        tok in ref_positions
        and counts[tok] <= len(ref_positions[tok])
        and (previous, tok) not in ref_bigrams
        for previous, tok in zip(chain((None,), candidate), candidate)
    ])
    if forced >= best:
        return best

    # Candidate positions whose word the reference has; every other
    # position is left unmatched in every matching.
    positions = [i for i, tok in enumerate(candidate) if tok in ref_positions]
    # Exactly c - min(c, r) of a word's c candidate occurrences stay unmatched.
    slack = {
        tok: count - min(count, len(ref_positions[tok]))
        for tok, count in counts.items()
        if tok in ref_positions
    }
    last = len(positions) - 1
    # follows[k]: positions[k + 1] is the candidate position right after positions[k]
    follows = [positions[k + 1] == positions[k] + 1 for k in range(last)] + [False]
    # starts[k]: chunks that positions[k:] open in every matching -- those
    # of words with no slack whose bigram with the previous candidate word
    # is absent from the reference, so they can never extend a chunk
    starts = [0] * (last + 2)
    for k in range(last, -1, -1):
        i = positions[k]
        isolated = i == 0 or (candidate[i - 1], candidate[i]) not in ref_bigrams
        starts[k] = starts[k + 1] + (isolated and not slack[candidate[i]])

    used = [False] * len(reference)
    trail = []  # the moves of the current path: (word, reference position or -1)
    # Branches left to explore: take `move` at positions[k] after the first
    # `depth` moves of the trail. `extend` is the reference position that
    # continues the current chunk there (-1 if none), `chunks` the count so
    # far, which no later move lowers.
    stack = [(0, None, -1, 0, 0)]
    nodes = 0
    while stack and nodes < NODE_BUDGET:
        k, move, extend, chunks, depth = stack.pop()
        for tok, j in trail[depth:]:
            if j < 0:
                slack[tok] += 1
            else:
                used[j] = False
        del trail[depth:]
        while True:
            if move is not None:
                tok = candidate[positions[k]]
                if move < 0:
                    slack[tok] -= 1
                else:
                    used[move] = True
                    chunks += move != extend
                trail.append((tok, move))
                extend = move + 1 if move >= 0 and follows[k] else -1
                k += 1
            # a path at `best` chunks or more is dropped
            if nodes == NODE_BUDGET or chunks + starts[k] >= best:
                break
            nodes += 1
            if k > last:
                best = chunks
                break
            tok = candidate[positions[k]]
            free = [j for j in ref_positions[tok] if not used[j]]
            if extend in free:  # the chunk-extending pair first: it finds low counts early
                free.remove(extend)
                free.insert(0, extend)
            moves = free + [-1] * (slack[tok] > 0)
            if len(moves) > 1:
                stack.extend((k, j, extend, chunks, len(trail)) for j in reversed(moves))
                break
            # One move only: take it on this path instead of branching.
            move = moves[0]
    return best


def align(candidate: Sequence[str], reference: Sequence[str]) -> MeteorAlignment:
    """One-to-one exact-match alignment: most matches, then fewest chunks."""
    ref_positions = defaultdict(list)
    for j, tok in enumerate(reference):
        ref_positions[tok].append(j)
    matches, chunks = _align_greedy(candidate, reference, ref_positions)
    return MeteorAlignment(
        matches=matches,
        chunks=_align_exhaustive(candidate, reference, ref_positions, chunks),
        candidate_len=len(candidate),
        reference_len=len(reference),
    )


def _score_single(
    candidate: Sequence[str], reference: Sequence[str], params: MeteorParams
) -> MeteorBreakdown:
    alignment = align(candidate, reference)
    m = alignment.matches
    if m == 0:
        return MeteorBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
    precision = m / alignment.candidate_len
    recall = m / alignment.reference_len
    f_mean = precision * recall / (
        params.alpha * precision + (1 - params.alpha) * recall
    )
    penalty = params.gamma * (alignment.chunks / m) ** params.beta
    return MeteorBreakdown(
        precision=precision,
        recall=recall,
        f_mean=f_mean,
        penalty=penalty,
        score=f_mean * (1.0 - penalty),
    )


def meteor(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    params: MeteorParams = DEFAULT_PARAMS,
) -> MeteorBreakdown:
    """Best METEOR over the given references (ties keep the earliest)."""
    if not references:
        raise ValueError("meteor requires at least one reference")
    best = None
    for reference in references:
        result = _score_single(candidate, reference, params)
        if best is None or result.score > best.score:
            best = result
    return best
