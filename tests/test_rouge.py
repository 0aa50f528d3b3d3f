import random

import pytest

import oracles
from capvqa.rouge import lcs_length, rouge_l

# 4-token LCS over a 4-token candidate and 6-token reference:
# R = 2/3, P = 1, beta = 1.5, score = 26/35.
POLICE_SCORE = 26 / 35


def test_lcs_identity():
    tokens = "a b c d".split()
    assert lcs_length(tokens, tokens) == 4


def test_lcs_reversed_shares_one_token():
    assert lcs_length(["a", "b", "c"], ["c", "b", "a"]) == 1


def test_lcs_hand_checked_example():
    cand = "police car on road".split()
    ref = "police car stopped on the road".split()
    assert lcs_length(cand, ref) == 4


def test_identical_sequences_score_one():
    tokens = "the van turned left".split()
    assert rouge_l(tokens, tokens).score == 1.0


def test_hand_evaluated_example():
    cand = "police car on road".split()
    ref = "police car stopped on the road".split()
    result = rouge_l(cand, ref)
    assert result.lcs == 4
    assert result.recall == pytest.approx(2 / 3, abs=1e-15)
    assert result.precision == 1.0
    assert result.beta == pytest.approx(1.5, abs=1e-15)
    assert result.score == pytest.approx(POLICE_SCORE, abs=1e-12)


@pytest.mark.parametrize("convention", ["precision-ratio", "recall-weighted"])
def test_lin_sentence_level_lcs_example(convention):
    # Lin (2004), section 3.1: against "police killed the gunman", S2 shares
    # the in-sequence words "police the gunman" and S3 only "the gunman"
    reference = "police killed the gunman".split()
    for candidate, expected in (("police kill the gunman", 0.75), ("the gunman kill police", 0.5)):
        # equal lengths give P = R, so every beta gives F = R
        assert rouge_l(candidate.split(), reference, convention).score == pytest.approx(
            expected, abs=1e-12
        )


def test_disjoint_sequences_score_zero():
    assert rouge_l("a b".split(), "c d".split()).score == 0.0


def test_empty_inputs_score_zero():
    assert rouge_l([], ["a"]).score == 0.0
    assert rouge_l(["a"], []).score == 0.0


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        rouge_l(["a"], ["a"], convention="f1")


def test_two_closed_forms_agree():
    rng = random.Random(21)
    for _ in range(300):
        cand = [rng.choice("abcd") for _ in range(rng.randint(1, 12))]
        ref = [rng.choice("abcd") for _ in range(rng.randint(1, 12))]
        result = rouge_l(cand, ref)
        if result.lcs == 0:
            assert result.score == 0.0
            continue
        r, p = result.recall, result.precision
        algebraic = r * p * (r * r + p * p) / (r**3 + p**3)
        assert result.score == pytest.approx(algebraic, abs=1e-12)
        assert result.score <= 1.0 + 1e-15
        assert result.score >= min(r, p) - 1e-15


def test_recall_weighted_convention_reduces_to_recall():
    rng = random.Random(22)
    for _ in range(100):
        cand = [rng.choice("abc") for _ in range(rng.randint(1, 10))]
        ref = [rng.choice("abc") for _ in range(rng.randint(1, 10))]
        result = rouge_l(cand, ref, convention="recall-weighted")
        assert result.score == pytest.approx(result.recall, abs=1e-6)


def test_lcs_matches_brute_force_enumeration():
    rng = random.Random(23)
    for _ in range(500):
        x = [rng.choice("abc") for _ in range(rng.randint(0, 10))]
        y = [rng.choice("abc") for _ in range(rng.randint(0, 10))]
        assert lcs_length(x, y) == oracles.lcs_brute_force(x, y)


def test_lcs_matches_quadratic_dp():
    # lengths past 64 cross a machine word in the bit-vector recurrence;
    # small alphabets give long, ambiguous common subsequences
    rng = random.Random(23)
    for _ in range(200):
        alphabet = "abcd"[: rng.randint(2, 4)]
        x = [rng.choice(alphabet) for _ in range(rng.randint(0, 150))]
        y = [rng.choice(alphabet) for _ in range(rng.randint(0, 150))]
        assert lcs_length(x, y) == oracles.lcs_dp(x, y) == lcs_length(y, x)


def test_lcs_of_a_sequence_with_its_own_subsequence():
    rng = random.Random(24)
    for length in (63, 64, 65, 128, 150):
        x = [rng.choice("ab") for _ in range(length)]
        sub = [tok for tok in x if rng.random() < 0.5]
        assert lcs_length(x, sub) == len(sub)
        assert lcs_length(x, x) == length
