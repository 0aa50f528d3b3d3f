import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capvqa.cider import (
    cider, compute_idf, cosine, idf_from_tables, length_penalty, length_penalty_spread, norm,
)
from capvqa.ngrams import extract_ngrams, ngram_table


def _load_fixture(fixtures_dir):
    corpus = json.loads((fixtures_dir / "cider_corpus.json").read_text())["segments"]
    candidates = [entry["candidate"].split() for entry in corpus]
    reference_sets = [[ref.split() for ref in entry["references"]] for entry in corpus]
    return corpus, candidates, reference_sets


def test_single_document_corpus_df():
    idf = compute_idf([[["the", "cat"]]])
    assert idf.num_docs == 1
    assert all(df == 1 for order in idf.df.values() for df in order.values())


def test_disjoint_sets_all_df_one():
    idf = compute_idf([[["a", "b"]], [["c", "d"]]])
    assert all(df == 1 for order in idf.df.values() for df in order.values())


def test_df_counts_sets_not_occurrences():
    # "the cat" in 2 of 3 sets; repeats inside one set count once
    idf = compute_idf(
        [
            [["the", "cat"], ["the", "cat", "sat"]],
            [["the", "cat"]],
            [["a", "dog"]],
        ]
    )
    assert idf.df[2]["the cat"] == 2


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        compute_idf([])


def test_idf_is_order_independent():
    sets = [[["a", "b"]], [["b", "c"]], [["a", "c", "b"]]]
    shuffled = [sets[2], sets[0], sets[1]]
    assert compute_idf(sets) == compute_idf(shuffled)


def tfidf_weights(counts, n, idf):
    """Sparse TF-IDF vector of one caption's order-n window counts, as a dict."""
    total = sum(counts.values())
    return {
        gram: (count / total) * idf.log_idf[idf.df[n].get(gram, 1)]
        for gram, count in counts.items()
    }


def tfidf_vector(tokens, n, idf):
    """Sparse TF-IDF vector over the order-n n-grams of one caption."""
    return tfidf_weights(extract_ngrams(tokens, n), n, idf)


def test_single_document_corpus_gives_zero_vector():
    idf = compute_idf([[["the", "cat"]]])
    assert tfidf_vector(["the", "cat"], 1, idf) == {"the": 0.0, "cat": 0.0}


def test_unique_bigram_weight():
    idf = compute_idf([[["red", "car"]], [["blue", "van"]]])
    vec = tfidf_vector(["red", "car"], 2, idf)
    assert vec == {"red car": pytest.approx(math.log(2), abs=1e-15)}


def test_empty_caption_gives_zero_vector():
    idf = compute_idf([[["a"]], [["b"]]])
    assert tfidf_vector([], 1, idf) == {}


def test_identity_candidate_scores_scale():
    cand = "the red car stopped quickly".split()
    idf = compute_idf([[cand], [["a", "dog", "barked", "loudly", "today"]]])
    result = cider(cand, [cand], idf, scale=1.0)
    assert result.per_n == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)
    assert result.score == pytest.approx(1.0, abs=1e-12)


def test_disjoint_candidate_scores_zero():
    refs = [["a", "b", "c"]]
    idf = compute_idf([refs, [["d", "e"]]])
    assert cider(["x", "y", "z"], refs, idf).score == 0.0


def test_single_document_corpus_scores_zero_without_fault():
    refs = [["the", "cat", "sat"]]
    idf = compute_idf([refs])
    assert cider(["the", "cat", "sat"], refs, idf).score == 0.0


def test_empty_reference_list_rejected():
    idf = compute_idf([[["a"]]])
    with pytest.raises(ValueError):
        cider(["a"], [], idf)


def test_fixture_corpus_matches_brute_force_golden(fixtures_dir):
    corpus, candidates, reference_sets = _load_fixture(fixtures_dir)
    golden = json.loads((fixtures_dir / "golden" / "cider_scores.json").read_text())
    idf = compute_idf(reference_sets)
    for entry, expected in zip(corpus, golden["segments"]):
        index = [e["id"] for e in corpus].index(entry["id"])
        result = cider(candidates[index], reference_sets[index], idf, scale=golden["scale"])
        assert result.score == pytest.approx(expected["score"], abs=1e-9)
        for got_n, want_n in zip(result.per_n, expected["per_n"]):
            assert got_n == pytest.approx(want_n, abs=1e-9)


def test_matches_fresh_brute_force_on_random_corpora():
    rng = random.Random(31)
    for _ in range(20):
        num_segments = rng.randint(2, 5)
        candidates, reference_sets = [], []
        for _ in range(num_segments):
            candidates.append([rng.choice("abcdef") for _ in range(rng.randint(0, 12))])
            reference_sets.append(
                [
                    [rng.choice("abcdef") for _ in range(rng.randint(1, 12))]
                    for _ in range(rng.randint(1, 3))
                ]
            )
        idf = compute_idf(reference_sets)
        expected = oracles.cider_reference(candidates, reference_sets, scale=10.0)
        for cand, refs, (want_per_n, want_score) in zip(
            candidates, reference_sets, expected
        ):
            result = cider(cand, refs, idf, scale=10.0)
            assert result.score == pytest.approx(want_score, abs=1e-9)
            for got_n, want_n in zip(result.per_n, want_per_n):
                assert got_n == pytest.approx(want_n, abs=1e-9)
                assert -1e-12 <= got_n <= 1.0 + 1e-12


def _multi_reference_results():
    # reference sets of 2-5 captions of 0-30 tokens over 12 words, so grams
    # repeat within and across captions; every fourth candidate copies one
    # of its references, which puts some cosines at 1
    rng = random.Random(2502)
    words = [f"w{k}" for k in range(12)]

    def caption():
        return [rng.choice(words) for _ in range(rng.randint(0, 30))]

    corpus = [[caption() for _ in range(rng.randint(2, 5))] for _ in range(60)]
    idf = compute_idf(corpus)
    results = []
    for k, references in enumerate(corpus):
        candidate = list(rng.choice(references)) if k % 4 == 0 else caption()
        results.append(cider(candidate, references, idf))
        results.append(cider(candidate, references, idf, 1.0, 3.0))
    return results


def test_multi_reference_floats_are_pinned():
    # sha256 of repr of every breakdown: weighing the candidate once per
    # order, not once per reference, must leave every float as it is
    digest = hashlib.sha256(repr(_multi_reference_results()).encode()).hexdigest()
    assert digest == "98361fdb1c8b41c234f05585e1b1873a1a484f9c657924ec112e26b38b6c3db9"


def test_reference_permutation_never_matters(fixtures_dir):
    _, candidates, reference_sets = _load_fixture(fixtures_dir)
    idf = compute_idf(reference_sets)
    for cand, refs in zip(candidates, reference_sets):
        assert cider(cand, refs, idf) == cider(cand, list(reversed(refs)), idf)


def test_length_penalty_flag():
    refs = [["a", "b", "c", "d"]]
    idf = compute_idf([refs, [["e", "f"]]])
    plain = cider(["a", "b", "c", "d"], refs, idf)
    same_len = cider(["a", "b", "c", "d"], refs, idf, length_penalty_sigma=6.0)
    assert same_len.score == pytest.approx(plain.score, abs=1e-12)
    short = cider(["a", "b"], refs, idf)
    penalized = cider(["a", "b"], refs, idf, length_penalty_sigma=6.0)
    assert penalized.score == pytest.approx(short.score * math.exp(-4 / 72), abs=1e-12)


def test_cider_d_length_penalty_example():
    # CIDEr-D (Vedantam et al. 2015) scales each reference's similarity by
    # exp(-(l_c - l_s)**2 / (2 * sigma**2)) with sigma = 6
    spread = length_penalty_spread(6.0)
    assert spread == 72.0
    assert length_penalty(5, 8, spread) == length_penalty(8, 5, spread) == math.exp(-9 / 72)
    assert length_penalty(5, 5, spread) == length_penalty(5, 8, None) == 1.0


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_scale_must_be_finite_and_positive(scale):
    refs = [["a", "b"]]
    with pytest.raises(ValueError, match="scale"):
        cider(["a"], refs, compute_idf([refs]), scale=scale)


def test_scale_past_the_corpus_bound_is_rejected():
    # finite, but a perfect match would score inf; ScoringConfig rejects it too
    idf = compute_idf([[["a", "b"]], [["c"]]])
    with pytest.raises(ValueError) as error:
        cider(["a", "b"], [["a", "b"]], idf, scale=1e308)
    assert str(error.value) == "scale must be a number > 0 and at most 1e+300, got 1e+308"


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, 1e-200, 1e200])
def test_length_penalty_sigma_must_be_positive(sigma):
    refs = [["a", "b"]]
    with pytest.raises(ValueError, match="length_penalty_sigma"):
        cider(["a"], refs, compute_idf([refs]), length_penalty_sigma=sigma)


_REFERENCE_SETS = st.lists(
    st.lists(st.lists(st.sampled_from("abcde"), max_size=8), min_size=0, max_size=3),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_REFERENCE_SETS)
def test_idf_tables_match_per_set_update_reference(corpus):
    # an empty reference set has no grams but is still a document; the
    # oracle keys a gram by its tuple of tokens, the package by their join
    df = oracles.compute_idf_reference(corpus)
    expected = (
        len(corpus),
        {n: {" ".join(gram): count for gram, count in df[n].items()} for n in df},
    )
    idf = compute_idf(corpus)
    assert (idf.num_docs, idf.df) == expected
    if all(len(references) == 1 for references in corpus):
        # score_captions builds a split's IDF from its one-reference tables
        got = idf_from_tables([ngram_table(references[0]) for references in corpus])
        assert (got.num_docs, got.df) == expected


def test_idf_from_tables_rejects_an_empty_corpus():
    with pytest.raises(ValueError):
        idf_from_tables([])


_TOKENS = st.lists(st.sampled_from("abcdef"), max_size=10)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.lists(_TOKENS, max_size=2), min_size=1, max_size=4), _TOKENS, _TOKENS,
    st.integers(1, 4),
)
def test_cosine_is_bit_identical_to_all_keys_reference(corpus, cand_tokens, ref_tokens, n):
    # the dicts hold every gram of each caption, the cosine weighs the two
    # count tables; a one-set corpus gives zero vectors, and a gram the
    # corpus lacks takes df 1
    idf = compute_idf(corpus)
    cand, ref = extract_ngrams(cand_tokens, n), extract_ngrams(ref_tokens, n)
    expected = oracles.cosine_reference(tfidf_weights(cand, n, idf), tfidf_weights(ref, n, idf))
    assert repr(cosine(cand, ref, n, idf, norm(cand, n, idf))) == repr(expected)
