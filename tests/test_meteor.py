import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capvqa.meteor import MeteorParams, _align_greedy, align, meteor

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


def test_banerjee_lavie_fragmentation_example():
    # Banerjee and Lavie (2005), under the default MeteorParams: m = 4 matched
    # unigrams in ch = 2 chunks ("a b", "c d"), P = 1, R = 4/5
    candidate, reference = "a b c d".split(), "a b x c d".split()
    alignment = align(candidate, reference)
    assert (alignment.matches, alignment.chunks) == (4, 2)
    result = meteor(candidate, [reference])
    assert (result.precision, result.recall) == (1.0, 0.8)
    # Fmean = 10PR / (R + 9P) = 8 / 9.8, the harmonic mean at alpha = 0.9
    assert result.f_mean == pytest.approx(8 / 9.8, abs=1e-15)
    assert result.penalty == 0.5 * (2 / 4) ** 3 == 0.0625
    assert result.score == pytest.approx(8 / 9.8 * (1 - 0.0625), abs=1e-15)


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


def _check_repetitive_pairs(low, high, pairs):
    # a few words repeated among distinct filler, with between low and high
    # max matchings, which brute force can still enumerate
    rng = random.Random(321)
    checked = 0
    while checked < pairs:
        repeated = rng.sample("abcdef", 3)
        cand, ref = _repetitive_caption(rng, repeated), _repetitive_caption(rng, repeated)
        if not low <= _max_matchings(cand, ref) <= high:
            continue
        checked += 1
        result = align(cand, ref)
        assert (result.matches, result.chunks) == oracles.best_alignment_brute_force(
            cand, ref
        )


def test_align_matches_exhaustive_enumeration_on_repetitive_pairs():
    _check_repetitive_pairs(500, 10_000, 30)


def test_align_matches_exhaustive_enumeration_above_10000_matchings():
    # the count at which align used to fall back to the greedy pass alone
    _check_repetitive_pairs(10_001, 40_000, 8)


def _greedy(cand, ref):
    positions = {tok: [j for j, t in enumerate(ref) if t == tok] for tok in set(ref)}
    return _align_greedy(cand, ref, positions)


def test_greedy_fallback_keeps_max_cardinality():
    # the greedy pass alone still matches every matchable token
    cand = "a a a b a a a a".split()
    ref = "a a a c a a a a".split()
    exact = align(cand, ref)
    matches, chunks = _greedy(cand, ref)
    assert matches == exact.matches == 7
    assert chunks >= exact.chunks


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
    assert _max_matchings(cand, ref) == 1
    result = align(cand, ref)
    expected = oracles.best_alignment_brute_force(cand, ref)
    assert (result.matches, result.chunks) == expected
    assert _greedy(cand, ref) == expected


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from("abcde."), max_size=40),
    st.lists(st.sampled_from("abcdef."), max_size=40),
)
def test_greedy_pass_matches_its_reference(cand, ref):
    assert _greedy(cand, ref) == oracles.greedy_alignment_reference(cand, ref)


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
    assert _max_matchings(cand, ref) == 1
    result = align(cand, ref)
    assert (result.matches, result.chunks) == oracles.best_alignment_brute_force(cand, ref)


def _letters(max_letters):
    return st.integers(1, max_letters).map(lambda n: "abcdefgh"[:n])


@st.composite
def _pair_over_few_letters(draw, max_len, max_letters):
    alphabet = draw(_letters(max_letters))
    return (
        draw(st.lists(st.sampled_from(alphabet), max_size=max_len)),
        draw(st.lists(st.sampled_from(alphabet), max_size=max_len)),
    )


@settings(max_examples=300, deadline=None)
@given(_pair_over_few_letters(80, 8))
def test_align_keeps_greedy_matches_and_never_more_chunks(pair):
    cand, ref = pair
    result = align(cand, ref)
    matches, chunks = oracles.greedy_alignment_reference(cand, ref)
    assert result.matches == matches
    assert result.chunks <= chunks


@settings(max_examples=500, deadline=None)
@given(_pair_over_few_letters(8, 8))
def test_align_equals_brute_force_on_short_pairs(pair):
    cand, ref = pair
    result = align(cand, ref)
    assert (result.matches, result.chunks) == oracles.best_alignment_brute_force(cand, ref)


def test_pathological_pair_stops_at_the_search_budget():
    # 80 tokens over 4 words: far too many max matchings to search them all
    rng = random.Random(80)
    cand = [rng.choice("abcd") for _ in range(80)]
    ref = [rng.choice("abcd") for _ in range(80)]
    start = time.perf_counter()
    result = align(cand, ref)
    assert time.perf_counter() - start < 1.0
    matches, chunks = oracles.greedy_alignment_reference(cand, ref)
    assert result.matches == matches
    assert 1 <= result.chunks <= chunks


@settings(max_examples=300, deadline=None)
@given(_pair_over_few_letters(300, 3))
def test_greedy_cursors_match_the_rescanning_reference(pair):
    # long pairs over few words: each cursor skips many taken occurrences
    cand, ref = pair
    assert _greedy(cand, ref) == oracles.greedy_alignment_reference(cand, ref)


def test_greedy_pass_is_linear_on_a_long_pair_over_three_words():
    # the rescanning pass, oracles.greedy_alignment_reference, takes over a
    # second on this pair: O(n^2 / |V|)
    rng = random.Random(20_000)
    cand = [rng.choice("abc") for _ in range(20_000)]
    ref = [rng.choice("abc") for _ in range(20_000)]
    start = time.perf_counter()
    matches, _ = _greedy(cand, ref)
    assert time.perf_counter() - start < 0.25
    assert matches == sum(min(cand.count(w), ref.count(w)) for w in "abc")
