import pytest

from capvqa import bleu4, cider, compute_idf, meteor, rouge_l, tokenize
from capvqa.dataset_io import ScenarioSet, load_ground_truth, load_predictions
from capvqa.scoring import ScoringConfig, score_captions


@pytest.mark.parametrize(
    "config",
    [
        ScoringConfig(),
        ScoringConfig(
            bleu_zero_policy="epsilon",
            rouge_convention="recall-weighted",
            cider_scale=1.0,
            cider_length_penalty_sigma=3.0,
        ),
    ],
)
def test_segments_equal_direct_metric_calls(fixtures_dir, config):
    # score_captions shares one n-gram table per caption between BLEU and
    # CIDEr; each segment must still equal the public metric functions
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    captions = {
        (s.id, g.phase, p): getattr(g, f"{p}_caption")
        for s in pred.scenarios for g in s.segments for p in ("pedestrian", "vehicle")
    }
    split_of = {s.id: s.split for s in gt.scenarios}
    references = {
        (s.id, g.phase, p): tokenize(getattr(g, f"{p}_caption"))
        for s in gt.scenarios for g in s.segments for p in ("pedestrian", "vehicle")
    }
    idf = {
        split: compute_idf([[ref] for key, ref in references.items() if split_of[key[0]] == split])
        for split in ("internal", "external")
    }
    segments = score_captions(gt, pred, config).segments
    assert len(segments) == len(references)
    for segment in segments:
        key = (segment.scenario_id, segment.phase, segment.perspective)
        candidate, reference = tokenize(captions.get(key, "")), references[key]
        assert segment.bleu4 == bleu4(candidate, [reference], config.bleu_zero_policy).score
        assert segment.meteor == meteor(candidate, [reference], config.meteor_params).score
        assert segment.rouge_l == rouge_l(candidate, reference, config.rouge_convention).score
        assert segment.cider == cider(
            candidate,
            [reference],
            idf[split_of[segment.scenario_id]],
            scale=config.cider_scale,
            length_penalty_sigma=config.cider_length_penalty_sigma,
        ).score


@pytest.mark.parametrize(
    "field, value",
    [
        ("cider_scale", float("nan")),
        ("cider_scale", float("inf")),
        ("cider_scale", -1.0),
        ("cider_scale", 0.0),
        ("cider_scale", 5e307),
        ("cider_length_penalty_sigma", float("nan")),
        ("cider_length_penalty_sigma", float("-inf")),
        ("cider_length_penalty_sigma", 0.0),
        ("cider_length_penalty_sigma", -3.0),
        ("cider_length_penalty_sigma", 1e-200),
    ],
)
def test_config_rejects_non_finite_or_non_positive_cider_values(field, value):
    with pytest.raises(ValueError, match=field):
        ScoringConfig(**{field: value})


def test_config_accepts_positive_cider_values_and_no_sigma():
    config = ScoringConfig(cider_scale=0.5, cider_length_penalty_sigma=None)
    assert (config.cider_scale, config.cider_length_penalty_sigma) == (0.5, None)
    assert ScoringConfig(cider_length_penalty_sigma=6.0).cider_length_penalty_sigma == 6.0


def test_ground_truth_without_scenarios_is_rejected(fixtures_dir):
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    with pytest.raises(ValueError, match="no scenarios"):
        score_captions(ScenarioSet(scenarios=[]), pred)
