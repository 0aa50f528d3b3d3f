"""Corpus scoring pipeline: per-segment metrics, split means, accuracy.

Every (scenario, phase, perspective) pair is one scoring unit: its
predicted caption is the candidate, the ground-truth caption its single
reference. Units are scored on the CPUs the process may run on
(`taskset` limits that set), as `vqa.accuracy` resolves its answers:
through `forking.map_chunks`, the list of units, still raw caption text,
is cut into one contiguous chunk per CPU, and the caller scores the
first chunk and a forked child each other one. A chunk tokenizes the
references of every split it scores and builds that split's TF-IDF
statistics for the consensus metric from all of them; a split that spans
two chunks has its statistics built in both. Each unit then tokenizes
its own candidate in `_score_unit` and is scored against its tokenized
reference. The scores are reduced in a fixed sorted order. A unit's
score depends only on the unit, its split's statistics and the config,
and the children send their floats back bit for bit, so the output is
byte-identical for any CPU count.

Missing units score against an empty candidate (which gives 0 on every
metric); strict completeness checking lives in the CLI via
`dataset_io.validate`.
"""

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

from . import forking
from .bleu import ZERO_PRECISION_POLICIES, bleu_score, brevity_penalty, modified_precision
from .cider import (
    DEFAULT_SCALE,
    MAX_SCALE,
    CiderCorpusIdf,
    cider_score,
    idf_from_tables,
    length_penalty,
    length_penalty_spread,
    similarity,
    tfidf_weights,
)
from .composite import METRIC_NAMES, SplitScores
from .dataset_io import PHASES, SPLITS, ScenarioSet
from .meteor import DEFAULT_PARAMS as DEFAULT_METEOR_PARAMS
from .meteor import MeteorParams, meteor
from .ngrams import MAX_ORDER, clipped_count, ngram_table
from .rouge import BETA_CONVENTIONS, rouge_l
from .text_norm import tokenize

PERSPECTIVES = ("pedestrian", "vehicle")


@dataclass(frozen=True)
class ScoringConfig:
    bleu_zero_policy: str = "hard-zero"
    rouge_convention: str = "precision-ratio"
    meteor_params: MeteorParams = DEFAULT_METEOR_PARAMS
    cider_scale: float = DEFAULT_SCALE
    cider_length_penalty_sigma: float | None = None

    def __post_init__(self):
        for name, allowed in (
            ("bleu_zero_policy", ZERO_PRECISION_POLICIES),
            ("rouge_convention", BETA_CONVENTIONS),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        # NaN fails the comparison and infinity the bound
        if not 0.0 < self.cider_scale <= MAX_SCALE:
            raise ValueError(
                f"cider_scale must be a number > 0 and at most {MAX_SCALE:g}, "
                f"got {self.cider_scale!r}"
            )
        if self.cider_length_penalty_sigma is not None:
            length_penalty_spread(self.cider_length_penalty_sigma, "cider_length_penalty_sigma")


DEFAULT_CONFIG = ScoringConfig()


@dataclass(frozen=True)
class SegmentScore:
    scenario_id: str
    phase: str
    perspective: str
    bleu4: float
    meteor: float
    rouge_l: float
    cider: float


@dataclass
class CaptionScores:
    internal: SplitScores
    external: SplitScores
    segments: list[SegmentScore] = field(default_factory=list)


class _Unit(NamedTuple):
    """One (scenario, phase, perspective) caption pair, both captions raw text."""

    scenario_id: str
    phase: str
    perspective: str
    candidate: str
    reference: str


def _collect_units(gt: ScenarioSet, pred: ScenarioSet) -> dict[str, list[_Unit]]:
    pred_index: dict[tuple[str, str], object] = {}
    for scenario in pred.scenarios:
        for segment in scenario.segments:
            pred_index[(scenario.id, segment.phase)] = segment

    units: dict[str, list[_Unit]] = {split: [] for split in SPLITS}
    for scenario in sorted(gt.scenarios, key=lambda s: s.id):
        for segment in sorted(scenario.segments, key=lambda g: PHASES.index(g.phase)):
            predicted = pred_index.get((scenario.id, segment.phase))
            for perspective in PERSPECTIVES:
                reference = getattr(segment, f"{perspective}_caption")
                candidate = (
                    getattr(predicted, f"{perspective}_caption") if predicted else ""
                )
                units[scenario.split].append(
                    _Unit(scenario.id, segment.phase, perspective, candidate, reference)
                )
    return units


def _score_unit(
    unit: _Unit,
    reference: Sequence[str],
    reference_table: tuple[Counter, ...],
    idf: CiderCorpusIdf,
    config: ScoringConfig,
) -> tuple[float, float, float, float]:
    """The unit's scores, in `SegmentScore` field order (`METRIC_NAMES`).

    `reference` is the unit's reference caption tokenized, and
    `reference_table` its `ngram_table`, which the split's IDF is built
    from too. The candidate caption is tokenized here.
    """
    candidate = tokenize(unit.candidate)
    c, r = len(candidate), len(reference)
    sigma = config.cider_length_penalty_sigma
    penalty = length_penalty(c, r, None if sigma is None else length_penalty_spread(sigma))
    precisions, similarities = [], []
    # BLEU's clipped count and CIDEr's dot product both run over the grams
    # the two captions share, found once per order
    orders = zip(range(1, MAX_ORDER + 1), ngram_table(candidate), reference_table)
    for n, cand, ref in orders:
        common = cand.keys() & ref.keys()
        matches = clipped_count(cand, ref, common)
        precisions.append(modified_precision(matches, c - n + 1, config.bleu_zero_policy))
        similarities.append(
            similarity(tfidf_weights(cand, n, idf), tfidf_weights(ref, n, idf), common, penalty)
        )
    return (
        bleu_score(precisions, brevity_penalty(c, r)),
        meteor(candidate, [reference], config.meteor_params).score,
        rouge_l(candidate, reference, config.rouge_convention).score,
        # one reference: each order's similarity is its per-order mean
        cider_score(similarities, config.cider_scale),
    )


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


# Units a forked chunk must hold, or scoring stays serial. On a 2-CPU Xeon
# VM, forking, piping and reaping a child took 2.5-3.3 ms at a 17-19 MB
# heap and 6.5-8.6 ms at 62 MB, while tokenizing a candidate and scoring
# its unit took 0.25-0.29 ms for 10-25 tokens and 0.62-0.71 ms for 40-100.
# A chunk also tokenizes and counts every reference of its splits and
# builds their IDF, 60-170 us per unit of the split; chunks sharing a split
# do so at the same time, which costs CPU but no wall time. So a chunk of
# 64 short units does 16-19 ms of work against 3-9 ms of fixed cost.
MIN_CHUNK_UNITS = 64


def _score_chunk(
    positions: range, units_by_split: dict[str, list[_Unit]], config: ScoringConfig
) -> array:
    """The `METRIC_NAMES` floats of the units at `positions`, unit after unit.

    Positions count through the splits in `SPLITS` order. For each split
    the chunk reaches, it tokenizes all of that split's references, counts
    their n-grams and builds the split's IDF from those counts, then
    scores its own units of the split.
    """
    values = array("d")
    offset = 0
    for split in SPLITS:
        units = units_by_split[split]
        own = range(max(positions.start - offset, 0), min(positions.stop - offset, len(units)))
        offset += len(units)
        if not own:
            continue
        references = [tokenize(unit.reference) for unit in units]
        tables = [ngram_table(reference) for reference in references]
        idf = idf_from_tables(tables)
        for k in own:
            values.extend(_score_unit(units[k], references[k], tables[k], idf, config))
    return values


def score_captions(
    gt: ScenarioSet,
    pred: ScenarioSet,
    config: ScoringConfig = DEFAULT_CONFIG,
) -> CaptionScores:
    """Score a caption submission against ground truth, per split.

    Ground truth without scenarios is an error: it has nothing to score,
    and a score of zero would read as a real result.
    """
    if not gt.scenarios:
        raise ValueError("ground truth has no scenarios to score")
    units_by_split = _collect_units(gt, pred)
    units = [unit for split in SPLITS for unit in units_by_split[split]]
    width = len(METRIC_NAMES)  # floats per unit
    values = array("d")
    for chunk in forking.map_chunks(
        range(len(units)),
        lambda positions: _score_chunk(positions, units_by_split, config),
        lambda count: width * count,
        MIN_CHUNK_UNITS,
    ):
        values += chunk

    split_results: dict[str, SplitScores] = {}
    start = 0
    for split in SPLITS:
        count = len(units_by_split[split])
        stop = start + count
        means = [_mean(values[width * start + m : width * stop : width]) for m in range(width)]
        split_results[split] = SplitScores(split, *means, segments=count // len(PERSPECTIVES))
        start = stop
    rows = zip(*[iter(values)] * width)  # one unit's floats per row
    return CaptionScores(
        internal=split_results["internal"],
        external=split_results["external"],
        segments=[
            SegmentScore(unit.scenario_id, unit.phase, unit.perspective, *row)
            for unit, row in zip(units, rows)
        ],
    )


def identity_scores(gt: ScenarioSet, config: ScoringConfig = DEFAULT_CONFIG) -> CaptionScores:
    """Score the ground truth against itself (upper-bound sanity check)."""
    as_predictions = ScenarioSet(scenarios=[replace(s, split=None) for s in gt.scenarios])
    return score_captions(gt, as_predictions, config)
