import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capvqa.meteor import (
    DEFAULT_MAX_SEARCH,
    MeteorParams,
    _align_exhaustive,
    _align_greedy,
    _matching_count,
    align,
    meteor,
)

# Hand-applied formula values, confirmed by oracles.meteor_reference:
# identity of length 3 -> 1 - 0.5*(1/3)**3 = 53/54; fully scrambled -> 0.5;
# two-of-three overlap in one chunk -> (2/3) * (1 - 0.5*(1/2)**3) = 0.625.
IDENTITY_3 = 53 / 54
SCRAMBLED_3 = 0.5
RED_CAR = 0.625


def test_align_identity():
    result = align("the cat sat".split(), "the cat sat".split())
    assert (result.matches, result.chunks) == (3, 1)


def test_align_fully_scrambled():
    result = align("cat the sat".split(), "the cat sat".split())
    assert (result.matches, result.chunks) == (3, 3)


def test_align_contiguous_tail():
    result = align("a red car".split(), "the red car".split())
    assert (result.matches, result.chunks) == (2, 1)


def test_align_prefers_fewer_chunks_at_equal_cardinality():
    # naive leftmost matching gives (0,0),(1,2),(2,1): three chunks; pairing
    # the first "a" with the second reference "a" keeps "a b" contiguous
    result = align("a b a".split(), "a a b".split())
    assert (result.matches, result.chunks) == (3, 2)


def test_hand_computed_scores():
    assert meteor("the cat sat".split(), ["the cat sat".split()]).score == pytest.approx(
        IDENTITY_3, abs=1e-12
    )
    assert meteor("cat the sat".split(), ["the cat sat".split()]).score == pytest.approx(
        SCRAMBLED_3, abs=1e-12
    )
    assert meteor("a red car".split(), ["the red car".split()]).score == pytest.approx(
        RED_CAR, abs=1e-12
    )


def test_disjoint_vocabulary_scores_zero():
    result = meteor("x y z".split(), ["a b c".split()])
    assert result.score == 0.0
    assert result.penalty == 0.0


def test_empty_reference_list_rejected():
    with pytest.raises(ValueError):
        meteor(["a"], [])


def test_multi_reference_takes_best():
    cand = "the red car".split()
    refs = ["a blue bike".split(), "the red car".split()]
    assert meteor(cand, refs).score == meteor(cand, [refs[1]]).score


def test_identity_score_closed_form():
    rng = random.Random(11)
    params = MeteorParams()
    for _ in range(50):
        length = rng.randint(1, 12)
        tokens = [rng.choice("abcd") for _ in range(length)]
        expected = 1.0 - params.gamma * (1.0 / length) ** params.beta
        assert meteor(tokens, [tokens]).score == pytest.approx(expected, abs=1e-12)


def test_more_fragmentation_never_helps():
    # all candidates are permutations of the reference: m, w_t, w_r fixed
    ref = "a b c d".split()
    ordered = meteor("a b c d".split(), [ref]).score
    halved = meteor("c d a b".split(), [ref]).score
    scrambled = meteor("b a d c".split(), [ref]).score
    assert ordered > halved > scrambled


def test_statistics_are_consistent():
    rng = random.Random(12)
    for _ in range(300):
        cand = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        ref = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        result = align(cand, ref)
        assert 0 <= result.matches <= min(len(cand), len(ref))
        if result.matches == 0:
            assert result.chunks == 0
        else:
            assert 1 <= result.chunks <= result.matches


def test_align_matches_exhaustive_enumeration():
    rng = random.Random(123)
    for _ in range(500):
        cand = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        ref = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        result = align(cand, ref)
        assert (result.matches, result.chunks) == oracles.best_alignment_brute_force(
            cand, ref
        )


def _max_matchings(cand, ref):
    # per word: which candidate and which reference occurrences pair up, and how
    counts = Counter(ref)
    total = 1
    for word, c in Counter(cand).items():
        m = min(c, counts[word])
        total *= math.comb(c, m) * math.comb(counts[word], m) * math.factorial(m)
    return total


def _repetitive_caption(rng, repeated):
    return [
        rng.choice(repeated) if rng.random() < 0.5 else f"w{rng.randint(0, 30)}"
        for _ in range(rng.randint(8, 24))
    ]


def test_align_matches_exhaustive_enumeration_on_repetitive_pairs():
    # a few words repeated among distinct filler, up to the 10,000-matching
    # gate below which align must return the exhaustive optimum
    rng = random.Random(321)
    checked = 0
    while checked < 30:
        repeated = rng.sample("abcdef", 3)
        cand, ref = _repetitive_caption(rng, repeated), _repetitive_caption(rng, repeated)
        if not 500 <= _max_matchings(cand, ref) <= DEFAULT_MAX_SEARCH:
            continue
        checked += 1
        result = align(cand, ref)
        assert (result.matches, result.chunks) == oracles.best_alignment_brute_force(
            cand, ref
        )


def test_greedy_fallback_keeps_max_cardinality():
    # force the greedy path and check it still matches every matchable token
    cand = "a a a b a a a a".split()
    ref = "a a a c a a a a".split()
    exact = align(cand, ref)
    greedy = align(cand, ref, max_search=1)
    assert greedy.matches == exact.matches == 7
    assert greedy.chunks >= exact.chunks


def test_param_validation():
    with pytest.raises(ValueError):
        MeteorParams(alpha=1.0)
    with pytest.raises(ValueError):
        MeteorParams(beta=0.0)
    with pytest.raises(ValueError):
        MeteorParams(gamma=1.5)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_must_be_finite(name, value):
    with pytest.raises(ValueError, match=name):
        MeteorParams(**{name: value})


@st.composite
def _unique_matching_pair(draw):
    # every shared word once on each side; words only one side has may repeat
    shared = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=7))
    cand_only = draw(st.lists(st.sampled_from("xy"), max_size=5))
    ref_only = draw(st.lists(st.sampled_from("pq"), max_size=5))
    cand = draw(st.permutations(shared + cand_only))
    ref = draw(st.permutations(shared + ref_only))
    return cand, ref


@settings(max_examples=500, deadline=None)
@given(_unique_matching_pair())
def test_unique_matching_pairs_match_brute_force(pair):
    cand, ref = pair
    assert _matching_count(cand, ref, DEFAULT_MAX_SEARCH) == 1
    result = align(cand, ref)
    expected = oracles.best_alignment_brute_force(cand, ref)
    assert (result.matches, result.chunks) == expected
    assert _align_greedy(cand, ref) == _align_exhaustive(cand, ref) == expected


def test_only_several_max_matchings_take_the_exhaustive_search(monkeypatch):
    searched = []

    def recording_search(cand, ref):
        searched.append((cand, ref))
        return _align_exhaustive(cand, ref)

    # the package exports a function named `meteor`, so take the module itself
    monkeypatch.setattr(sys.modules[align.__module__], "_align_exhaustive", recording_search)
    assert (align(["b", "a", "c"], ["a", "b", "c"]).chunks, searched) == (3, [])
    # two max matchings: each "a" of the candidate may take either "a"
    assert align(["a", "b", "a"], ["a", "a", "b"]).chunks == 2
    assert searched == [(["a", "b", "a"], ["a", "a", "b"])]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from("abcde."), max_size=40),
    st.lists(st.sampled_from("abcdef."), max_size=40),
)
def test_greedy_pass_matches_its_reference(cand, ref):
    assert _align_greedy(cand, ref) == oracles.greedy_alignment_reference(cand, ref)


@pytest.mark.parametrize(
    "cand, ref",
    [
        ([], []),
        ([], ["a"]),
        (["a"], []),
        (["a", "b"], ["c", "d"]),
        (["x", "x"], ["y"]),
        (["b", "a", "c"], ["a", "b", "c"]),
    ],
)
def test_unique_matching_edge_cases(cand, ref):
    assert _matching_count(cand, ref, DEFAULT_MAX_SEARCH) == 1
    result = align(cand, ref)
    assert (result.matches, result.chunks) == oracles.best_alignment_brute_force(cand, ref)
