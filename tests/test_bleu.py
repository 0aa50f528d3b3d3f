import math
import random

import pytest

import oracles
from capvqa import tokenize
from capvqa.bleu import EPSILON_FLOOR, bleu4

# Frozen from oracles.bleu4_reference("the cat sat on mat", ["the cat sat on the mat"]):
# p = (1, 3/4, 2/3, 1/2), BP = exp(-0.2).
HAND_EXAMPLE_SCORE = 0.5789300674674098


def test_identical_sequences_score_one():
    tokens = "the car stopped at the light".split()
    result = bleu4(tokens, [tokens])
    assert result.score == 1.0
    assert result.brevity_penalty == 1.0
    assert result.precisions == (1.0, 1.0, 1.0, 1.0)


def test_hand_computed_example():
    cand = "the cat sat on mat".split()
    ref = "the cat sat on the mat".split()
    result = bleu4(cand, [ref])
    assert result.precisions == (1.0, 3 / 4, 2 / 3, 1 / 2)
    assert result.brevity_penalty == pytest.approx(math.exp(-0.2), abs=1e-15)
    assert result.score == pytest.approx(HAND_EXAMPLE_SCORE, abs=1e-12)
    assert result.score == pytest.approx(oracles.bleu4_reference(cand, [ref]), abs=1e-12)


def test_log_precisions_are_added_left_to_right():
    # p = (5/6, 4/5, 1/2, 1/3) and BP = exp(-1/2), so the score is
    # exp(-1/2) / sqrt(3). The logs add to -2.197224577336219 left to
    # right from 0.0; a compensated sum, as the built-in `sum` takes from
    # Python 3.12, rounds to -2.1972245773362196 and a score one bit lower.
    result = bleu4("d c b b c d".split(), ["a b d c c c b b c".split()])
    assert result.precisions == (5 / 6, 4 / 5, 1 / 2, 1 / 3)
    assert math.fsum(map(math.log, result.precisions)) == -2.1972245773362196
    assert result.score == 0.35018063965685026


def test_papineni_modified_unigram_precision():
    # Papineni et al. (2002), section 2.1.1: "the" is clipped to its largest
    # count in one reference, 2, so the seven-"the" candidate earns 2/7
    references = [
        ["the", "cat", "is", "on", "the", "mat"],
        ["there", "is", "a", "cat", "on", "the", "mat"],
    ]
    assert bleu4(["the"] * 7, references).precisions[0] == 2 / 7
    # Known departure: `tokenize` keeps each final period as a token, which
    # both references match, so the paper's sentences read 3/8 here
    candidate = tokenize("the the the the the the the.")
    references = [tokenize("The cat is on the mat."), tokenize("There is a cat on the mat.")]
    assert candidate == ["the"] * 7 + ["."]
    assert bleu4(candidate, references).precisions[0] == 3 / 8


def test_short_candidate_has_no_fourgrams_and_scores_zero():
    result = bleu4(["one", "two", "three"], [["one", "two", "three", "four"]])
    assert result.precisions[3] == 0.0
    assert result.score == 0.0


def test_empty_candidate_scores_zero_without_error():
    assert bleu4([], [["a", "b"]]).score == 0.0


def test_empty_reference_list_rejected():
    with pytest.raises(ValueError):
        bleu4(["a"], [])


def test_unknown_zero_policy_rejected():
    with pytest.raises(ValueError):
        bleu4(["a"], [["a"]], zero_policy="smooth")


def test_epsilon_policy_floors_zero_precisions():
    result = bleu4(["one", "two", "three"], [["one", "two", "three"]], zero_policy="epsilon")
    assert result.precisions[3] == EPSILON_FLOOR
    assert result.score > 0.0


def test_epsilon_policy_floors_a_long_pair_without_a_shared_fourgram():
    # 40-plus tokens: the candidate is the reference's first eleven trigrams,
    # each followed by a word the reference lacks, so every candidate 4-gram
    # holds that word and p4 is 0, floored, while p1-p3 are not
    reference = tokenize(
        "The pedestrian in a red coat waits at the curb while the white van slows down. "
        "The driver looks left, and the pedestrian starts to cross the road in front of "
        "the van. A cyclist passes behind the van on the right side."
    )
    pieces = [reference[k : k + 3] + ["then"] for k in range(0, 33, 3)]
    candidate = [token for piece in pieces for token in piece][:-1]
    c, r = len(candidate), len(reference)
    assert c >= 40 and "then" not in reference
    counts = [oracles.clipped_match_count(candidate, [reference], n) for n in range(1, 5)]
    assert counts[3] == 0 and 0 not in counts[:3]
    expected = [count / (c - n + 1) for n, count in zip(range(1, 4), counts)] + [EPSILON_FLOOR]
    bp = math.exp(1.0 - r / c)
    result = bleu4(candidate, [reference], zero_policy="epsilon")
    assert list(result.precisions) == expected
    assert result.brevity_penalty == bp < 1.0
    assert result.score == pytest.approx(bp * math.prod(expected) ** 0.25, rel=1e-12)
    assert bleu4(candidate, [reference]).score == 0.0


def test_reference_order_never_matters():
    rng = random.Random(4)
    for _ in range(100):
        cand = [rng.choice("abcde") for _ in range(rng.randint(1, 10))]
        refs = [
            [rng.choice("abcde") for _ in range(rng.randint(1, 10))]
            for _ in range(rng.randint(1, 4))
        ]
        shuffled = refs[:]
        rng.shuffle(shuffled)
        assert bleu4(cand, refs) == bleu4(cand, shuffled)


def test_identity_scores_one_from_length_four_up():
    rng = random.Random(5)
    for _ in range(50):
        tokens = [rng.choice("abcdef") for _ in range(rng.randint(4, 12))]
        assert bleu4(tokens, [tokens]).score == 1.0


@pytest.mark.parametrize("policy", ["hard-zero", "epsilon"])
def test_score_consistent_with_reported_breakdown(policy):
    rng = random.Random(6)
    for _ in range(200):
        cand = [rng.choice("abc") for _ in range(rng.randint(0, 10))]
        ref = [rng.choice("abc") for _ in range(rng.randint(1, 10))]
        result = bleu4(cand, [ref], zero_policy=policy)
        assert 0.0 <= result.score <= 1.0
        if all(p > 0 for p in result.precisions):
            recomputed = result.brevity_penalty * math.exp(
                sum(math.log(p) for p in result.precisions) / 4
            )
            assert result.score == pytest.approx(recomputed, abs=1e-12)
        else:
            assert result.score == 0.0


def test_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(8)
    for _ in range(300):
        cand = [rng.choice("abcd") for _ in range(rng.randint(0, 12))]
        refs = [
            [rng.choice("abcd") for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(1, 3))
        ]
        assert bleu4(cand, refs).score == pytest.approx(
            oracles.bleu4_reference(cand, refs), abs=1e-12
        )
