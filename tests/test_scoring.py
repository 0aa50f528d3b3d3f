import hashlib
import importlib.util
import math
import os
import random
import threading
from array import array
from pathlib import Path

import pytest
from conftest import _assert_no_child_left

from capvqa import bleu4, cider, compute_idf, forking, meteor, rouge_l, scoring, tokenize
from capvqa.cider import CiderCorpusIdf
from capvqa.dataset_io import (
    PHASES,
    Scenario,
    ScenarioSet,
    Segment,
    load_ground_truth,
    load_predictions,
)
from capvqa.scoring import ScoringConfig, score_captions


# BLEU's epsilon floor, the recall-weighted ROUGE-L, CIDEr's scale and its
# length penalty: every option but METEOR's, away from its default
_NON_DEFAULT_CONFIG = ScoringConfig(
    bleu_zero_policy="epsilon",
    rouge_convention="recall-weighted",
    cider_scale=1.0,
    cider_length_penalty_sigma=3.0,
)


@pytest.mark.parametrize("config", [ScoringConfig(), _NON_DEFAULT_CONFIG])
def test_segments_equal_direct_metric_calls(fixtures_dir, config):
    # score_captions counts each caption's n-grams once and hands the tables
    # to the functions bleu4 and cider call; each segment must equal the
    # public metric functions, which count them from the tokens
    fixtures = (
        load_ground_truth(fixtures_dir / "captions_gt.json"),
        load_predictions(fixtures_dir / "captions_pred.json"),
    )
    for gt, pred in (fixtures, _generated_corpus()):
        _assert_segments_equal_direct_metric_calls(gt, pred, config)


def _assert_segments_equal_direct_metric_calls(gt, pred, config):
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
    scores = score_captions(gt, pred, config)
    segments = scores.segments
    assert len(segments) == len(references)
    # each split's means are the exactly rounded sums of its segments' values
    for split in (scores.internal, scores.external):
        scored = [s for s in segments if split_of[s.scenario_id] == split.split]
        assert split.segments == len(scored) // 2
        for name, mean in split.as_dict().items():
            values = [getattr(s, name) for s in scored]
            assert mean == math.fsum(values) / len(values)
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("bleu_zero_policy", "Epsilon"),
        ("bleu_zero_policy", ""),
        ("rouge_convention", "recall"),
        ("rouge_convention", None),
    ],
)
def test_config_rejects_unknown_policies(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be one of"):
        ScoringConfig(**{field: value})


def test_config_accepts_positive_cider_values_and_no_sigma():
    config = ScoringConfig(cider_scale=0.5, cider_length_penalty_sigma=None)
    assert (config.cider_scale, config.cider_length_penalty_sigma) == (0.5, None)
    assert ScoringConfig(cider_length_penalty_sigma=6.0).cider_length_penalty_sigma == 6.0


def test_ground_truth_without_scenarios_is_rejected(fixtures_dir):
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    with pytest.raises(ValueError, match="no scenarios"):
        score_captions(ScenarioSet(scenarios=[]), pred)


def _generated_corpus(scenarios=30, seed=11, external_every=3):
    # 30 scenarios: 300 units over both splits (2:1 by default, even with
    # `external_every=2`), some predictions missing, captions of 0-30
    # tokens over a small vocabulary so words repeat
    rng = random.Random(seed)
    words = "the a pedestrian vehicle driver car crossed stopped near road lane slowly . ,".split()

    def caption():
        return " ".join(rng.choice(words) for _ in range(rng.randint(0, 30)))

    gt, pred = [], []
    for k in range(scenarios):
        split = "external" if k % external_every == 0 else "internal"
        gt.append(Scenario(f"s{k:03d}", [Segment(p, caption(), caption()) for p in PHASES], split))
        predicted = [Segment(p, caption(), caption()) for p in PHASES if rng.random() < 0.9]
        pred.append(Scenario(f"s{k:03d}", predicted))
    return ScenarioSet(gt), ScenarioSet(pred)


def test_every_cpu_count_gives_equal_scores(monkeypatch, forks):
    # 2:1 splits put a split in two chunks under 2 CPUs; even ones do not
    for external_every in (3, 2):
        gt, pred = _generated_corpus(external_every=external_every)
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(forking, "_cpu_count", lambda: cpus)
            results.append(score_captions(gt, pred))
        assert len(results[0].segments) == 300
        assert results[0] == results[1] == results[2]
    assert len(forks) == 2 * (0 + 1 + 2)
    _assert_no_child_left()


def test_each_chunk_builds_only_the_idf_of_the_splits_it_scores(monkeypatch, forks):
    # even splits and 2 CPUs: the caller scores (and builds the IDF of) the
    # internal split alone, and its child the external one
    caller, idf_docs = os.getpid(), []
    init = CiderCorpusIdf.__init__

    def counted(idf, *args, **kwargs):
        init(idf, *args, **kwargs)
        if os.getpid() == caller:
            idf_docs.append(idf.num_docs)

    monkeypatch.setattr(forking, "_cpu_count", lambda: 2)
    monkeypatch.setattr(CiderCorpusIdf, "__init__", counted)
    gt, pred = _generated_corpus(external_every=2)
    score_captions(gt, pred)
    assert len(forks) == 1
    assert idf_docs == [150]
    _assert_no_child_left()


def test_small_corpora_and_threaded_callers_stay_serial(monkeypatch, forks, fixtures_dir):
    monkeypatch.setattr(forking, "_cpu_count", lambda: 2)
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    assert len(score_captions(gt, pred).segments) < 2 * scoring.MIN_CHUNK_UNITS

    # a fork copies only the forking thread, so a threaded caller scores in place
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        score_captions(*_generated_corpus())
    finally:
        release.set()
        waiter.join()
    assert forks == []


def test_a_failing_child_chunk_raises_in_the_caller_and_leaves_no_child(monkeypatch, forks):
    gt, pred = _generated_corpus()
    last = max(s.id for s in gt.scenarios if s.split == "external")  # in the last chunk
    score_unit = scoring._score_unit

    def failing(unit, *args):
        if unit.scenario_id == last:
            raise ValueError(f"cannot score {last}")
        return score_unit(unit, *args)

    monkeypatch.setattr(forking, "_cpu_count", lambda: 2)
    monkeypatch.setattr(scoring, "_score_unit", failing)
    with pytest.raises(ValueError, match=f"cannot score {last}"):
        score_captions(gt, pred)
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_child_that_sends_short_data_is_rescored_by_the_caller(monkeypatch, forks):
    gt, pred = _generated_corpus()
    monkeypatch.setattr(forking, "_cpu_count", lambda: 1)
    expected = score_captions(gt, pred)
    caller, score_unit = os.getpid(), scoring._score_unit

    def dying(unit, *args):
        if os.getpid() != caller:
            os._exit(0)  # a clean exit before any float is written
        return score_unit(unit, *args)

    monkeypatch.setattr(forking, "_cpu_count", lambda: 3)
    monkeypatch.setattr(scoring, "_score_unit", dying)
    assert score_captions(gt, pred) == expected
    assert len(forks) == 2
    _assert_no_child_left()


class _Miscounted(array):
    """An array whose count, as `len` gives it, is off by `extra` from its items."""

    extra = 0

    def __len__(self):
        return super().__len__() + self.extra


@pytest.mark.parametrize("extra", [1, -1])
def test_a_child_whose_count_is_not_what_it_sends_is_rescored_by_the_caller(
    monkeypatch, forks, extra
):
    # the child writes its count and then its items: a count that promises
    # more (or fewer) values than follow it fails the chunk, which the
    # caller then solves itself
    caller, solved_here = os.getpid(), []

    def solve(chunk):
        if os.getpid() != caller:
            values = _Miscounted("q", chunk)
            values.extra = extra
            return values
        solved_here.append(chunk)
        return array("q", chunk)

    monkeypatch.setattr(forking, "_cpu_count", lambda: 2)
    solved = forking.map_chunks(range(10), solve, 5)
    assert solved == [array("q", range(5)), array("q", range(5, 10))]
    assert solved_here == [range(5), range(5, 10)]
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_chunk_counts_each_reference_of_its_splits_and_each_candidate_once(monkeypatch):
    gt, pred = _generated_corpus()
    units_by_split = scoring._collect_units(gt, pred)
    internal = len(units_by_split["internal"])
    counted, ngram_table = [], scoring.ngram_table

    def counting(tokens):
        counted.append(tuple(tokens))
        return ngram_table(tokens)

    monkeypatch.setattr(scoring, "ngram_table", counting)
    # five units of each split: both splits' references, and ten candidates
    own = range(internal - 5, internal + 5)
    scoring._score_chunk(own, units_by_split, scoring.DEFAULT_CONFIG)
    units = [unit for split in ("internal", "external") for unit in units_by_split[split]]
    expected = [tokenize(unit.reference) for unit in units]
    expected += [tokenize(units[k].candidate) for k in own]
    assert sorted(counted) == sorted(map(tuple, expected))


_CORPUS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
# sha256 of repr([tuple(segment) for segment in segments]) on each seed-1
# workload, under the default config and under `_NON_DEFAULT_CONFIG`
_SEGMENT_DIGESTS = {
    "long-captions": (
        "3d4a30e1abb97dd74fe49adbd3325c0f47743d6cf0e83e377f9b84c1c2b8914c",
        "e94524b16342abf83f85260aba5217b1857746a9edb5a07d5dbe1430f7228015",
    ),
    "short-distinct": (
        "6c915b85d692e2df1e4831a84a9072f4184fba4797bcbded7922f76e7ddf16ea",
        "4b095877d9dbb7aa31706b57675feefcaa1a344551be2d2aae8347950657f103",
    ),
}


@pytest.mark.skipif(not _CORPUS_PY.is_file(), reason="needs the benchmark beside the tests")
@pytest.mark.parametrize("workload", sorted(_SEGMENT_DIGESTS))
def test_segment_floats_on_the_generated_caption_workloads_are_pinned(tmp_path, workload):
    # every per-segment float, as repr prints it, of the benchmark's seed-1
    # caption files: 300 and 1,500 units, where the goldens hold 10
    spec = importlib.util.spec_from_file_location("perfbench_corpus", _CORPUS_PY)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    files = corpus.write_workload(workload, 1, tmp_path)
    gt, pred = load_ground_truth(files["gt_captions"]), load_predictions(files["pred_captions"])
    digests = []
    for config in (ScoringConfig(), _NON_DEFAULT_CONFIG):
        segments = score_captions(gt, pred, config).segments
        digests.append(hashlib.sha256(repr([tuple(s) for s in segments]).encode()).hexdigest())
    assert tuple(digests) == _SEGMENT_DIGESTS[workload]


def test_an_interrupted_caller_reaps_its_children(monkeypatch, forks):
    gt, pred = _generated_corpus()
    caller, score_unit = os.getpid(), scoring._score_unit

    def interrupted(unit, *args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return score_unit(unit, *args)

    monkeypatch.setattr(forking, "_cpu_count", lambda: 3)
    monkeypatch.setattr(scoring, "_score_unit", interrupted)
    with pytest.raises(KeyboardInterrupt):
        score_captions(gt, pred)
    assert len(forks) == 2
    _assert_no_child_left()
