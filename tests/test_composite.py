import random

import pytest

from capvqa.composite import FinalScore, SplitScores, aggregate_splits, cap_score, s2


def _split(name, bleu4, meteor=0.0, rouge_l=0.0, cider=0.0, segments=0):
    return SplitScores(
        split=name, bleu4=bleu4, meteor=meteor, rouge_l=rouge_l, cider=cider,
        segments=segments,
    )


def test_published_baseline_row_mean():
    assert cap_score(0.2569, 0.4528, 0.4512, 1.1001) == 0.56525


def test_metrics_are_added_left_to_right():
    # a compensated sum, as the built-in `sum` takes from Python 3.12,
    # rounds these four to 3.299 and their mean to 0.82475
    assert cap_score(0.8606, 0.9646, 0.9047, 0.5691) == 0.8247500000000001


def test_degenerate_means():
    assert cap_score(0, 0, 0, 0) == 0.0
    assert cap_score(1, 1, 1, 1) == 1.0


def test_equal_inputs_pass_through():
    rng = random.Random(51)
    for _ in range(50):
        x = rng.random()
        assert cap_score(x, x, x, x) == pytest.approx(x, abs=1e-15)


def test_negative_metric_rejected():
    with pytest.raises(ValueError):
        cap_score(-0.1, 0.5, 0.5, 0.5)


def test_identical_splits_aggregate_to_themselves():
    split = _split("internal", 0.3, 0.4, 0.5, 1.2, segments=5)
    other = _split("external", 0.3, 0.4, 0.5, 1.2, segments=10)
    assert aggregate_splits(split, other) == {
        "bleu4": 0.3, "meteor": 0.4, "rouge_l": 0.5, "cider": 1.2,
    }


def test_unweighted_mean():
    # equal weights whatever the segment counts
    result = aggregate_splits(
        _split("internal", 0.2, segments=1), _split("external", 0.4, segments=3)
    )
    assert result["bleu4"] == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("empty", ["internal", "external"])
def test_mean_rejects_an_empty_split(empty):
    # averaging an empty split in as 0 would halve the caption score
    counts = {"internal": 4, "external": 4, empty: 0}
    with pytest.raises(ValueError, match=f"split '{empty}' has no segments.*segment-weighted"):
        aggregate_splits(
            _split("internal", 0.2, segments=counts["internal"]),
            _split("external", 0.4, segments=counts["external"]),
        )


def test_segment_weighted_mean():
    internal = _split("internal", 0.0, segments=1)
    external = _split("external", 0.4, segments=3)
    result = aggregate_splits(internal, external, mode="segment-weighted")
    assert result["bleu4"] == pytest.approx(0.3, abs=1e-15)


def test_weighted_mode_needs_counts():
    with pytest.raises(ValueError):
        aggregate_splits(_split("internal", 0.1), _split("external", 0.2), mode="segment-weighted")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        aggregate_splits(_split("internal", 0.1), _split("external", 0.2), mode="median")


def test_s2_symmetric_cases():
    assert s2(0.5, 0.5).s2 == 0.5
    assert s2(0.4, 0.6).s2 == 0.5


def test_s2_range_checks():
    with pytest.raises(ValueError):
        s2(0.5, 1.5)
    with pytest.raises(ValueError):
        s2(-0.1, 0.5)


def test_s2_symmetry_and_linearity():
    rng = random.Random(52)
    for _ in range(100):
        a, b = rng.random(), rng.random()
        assert s2(a, b).s2 == s2(b, a).s2
        assert s2(a, b).s2 == pytest.approx((a + b) / 2, abs=1e-15)
        # linear in the first argument
        assert s2(2 * a, b).s2 - s2(a, b).s2 == pytest.approx(a / 2, abs=1e-12)


def test_percent_view_is_exactly_100x():
    rng = random.Random(53)
    for _ in range(100):
        final = FinalScore(cap_score=rng.random() * 3, acc=rng.random(), s2=rng.random())
        percent = final.as_percent()
        assert percent["cap_score"] == final.cap_score * 100.0
        assert percent["acc"] == final.acc * 100.0
        assert percent["s2"] == final.s2 * 100.0
