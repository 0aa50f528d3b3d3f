import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capvqa.ngrams import clipped_matches, extract_ngrams, ngram_table


def test_unigram_counts():
    counts = extract_ngrams(["a", "b", "a"], 1)
    assert counts == {("a",): 2, ("b",): 1}
    assert counts.total() == 3


def test_bigram_counts():
    counts = extract_ngrams(["a", "b", "a"], 2)
    assert counts == {("a", "b"): 1, ("b", "a"): 1}


def test_window_longer_than_sequence_is_empty():
    counts = extract_ngrams(["a", "b"], 4)
    assert counts == {}
    assert counts.total() == 0


@pytest.mark.parametrize("n", [0, 5, -1])
def test_order_out_of_range_rejected(n):
    with pytest.raises(ValueError):
        extract_ngrams(["a"], n)


def test_total_matches_window_count():
    rng = random.Random(7)
    for _ in range(200):
        tokens = [rng.choice("abcd") for _ in range(rng.randint(0, 12))]
        for n in range(1, 5):
            assert extract_ngrams(tokens, n).total() == max(0, len(tokens) - n + 1)


def test_clipping_to_reference_maximum():
    cand = extract_ngrams(["the"] * 4, 1)
    ref = extract_ngrams(["the"], 1)
    assert clipped_matches(cand, [ref]) == 1


def test_clip_uses_max_over_references():
    cand = extract_ngrams(["a", "b"], 1)
    refs = [extract_ngrams(["a", "a"], 1), extract_ngrams(["b"], 1)]
    assert clipped_matches(cand, refs) == 2


def test_clip_takes_the_max_over_plain_dict_references():
    # merging plain dicts keeps the last reference's count (1), not the max
    cand = {("a",): 3, ("b",): 1}
    refs = [{("a",): 2, ("b",): 1}, {("a",): 1}]
    assert clipped_matches(cand, refs) == 3


def test_empty_candidate_matches_nothing():
    cand = extract_ngrams([], 1)
    assert clipped_matches(cand, [extract_ngrams(["a"], 1)]) == 0


def test_clipped_bounds_and_self_saturation():
    rng = random.Random(99)
    for _ in range(200):
        cand_tokens = [rng.choice("abc") for _ in range(rng.randint(0, 10))]
        ref_tokens = [rng.choice("abc") for _ in range(rng.randint(0, 10))]
        n = rng.randint(1, 4)
        cand = extract_ngrams(cand_tokens, n)
        matched = clipped_matches(cand, [extract_ngrams(ref_tokens, n)])
        assert 0 <= matched <= cand.total()
        assert clipped_matches(cand, [cand]) == cand.total()


def test_ngram_table_matches_extract_ngrams():
    rng = random.Random(5)
    for _ in range(100):
        tokens = [rng.choice("abc") for _ in range(rng.randint(0, 12))]
        table = ngram_table(tokens)
        assert len(table) == 4
        for n in range(1, 5):
            assert table[n - 1] == extract_ngrams(tokens, n)


_SHORT_TOKENS = st.lists(st.sampled_from("abcd"), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_SHORT_TOKENS, st.lists(_SHORT_TOKENS, min_size=1, max_size=3), st.integers(1, 4))
def test_clipped_counts_matches_ceiling_dict_reference(cand_tokens, ref_token_lists, n):
    cand = extract_ngrams(cand_tokens, n)
    refs = [extract_ngrams(tokens, n) for tokens in ref_token_lists]
    assert clipped_matches(cand, refs) == oracles.clipped_counts_reference(cand, refs)


def test_clipped_matches_without_references_is_zero():
    assert clipped_matches(extract_ngrams(["a", "b"], 1), []) == 0
