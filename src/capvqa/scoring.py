"""Corpus scoring pipeline: per-segment metrics, split means, accuracy.

Every (scenario, phase, perspective) pair is one scoring unit: its
predicted caption is the candidate, the ground-truth caption its single
reference. Units are scored on the CPUs the process may run on
(`taskset` limits that set), as `vqa.accuracy` resolves its answers:
through `forking.map_chunks`, the list of units, still raw caption text,
is cut into one contiguous chunk per CPU, and the caller scores the
first chunk and a forked child each other one. A chunk tokenizes the
references of every split it scores, counts each one's n-grams once
(`ngrams.ngram_table`), and builds that split's TF-IDF statistics for
the consensus metric from those tables; a split that spans two chunks
has its statistics built in both. Each unit then tokenizes its own
candidate in `_score_unit` and counts its n-grams once; BLEU and CIDEr
score it from the two tables through the same functions `bleu4` and
`cider` call (`bleu.bleu_from_tables`, `cider.cider_from_tables`), and
METEOR and ROUGE-L score its tokens. The scores are reduced in a fixed
sorted order. A unit's score depends only on the unit, its split's
statistics and the config, and the children send their floats back bit
for bit, so the output is byte-identical for any CPU count.

Missing units score against an empty candidate (which gives 0 on every
metric); strict completeness checking lives in the CLI via
`dataset_io.validate`.
"""

import math
from array import array
from typing import NamedTuple, Sequence

from . import forking
from .bleu import ZERO_PRECISION_POLICIES, bleu_from_tables
from .cider import (
    DEFAULT_SCALE,
    CiderCorpusIdf,
    check_scale,
    cider_from_tables,
    idf_from_tables,
    length_penalty,
    length_penalty_spread,
)
from .composite import METRIC_NAMES, SplitScores
from .dataset_io import PHASES, SPLITS, ScenarioSet
from .meteor import DEFAULT_PARAMS as DEFAULT_METEOR_PARAMS
from .meteor import MeteorParams, meteor
from .ngrams import ngram_table
from .records import Frozen
from .rouge import BETA_CONVENTIONS, rouge_l
from .text_norm import tokenize

PERSPECTIVES = ("pedestrian", "vehicle")


class ScoringConfig(Frozen):
    __slots__ = _fields = (
        "bleu_zero_policy", "rouge_convention", "meteor_params", "cider_scale",
        "cider_length_penalty_sigma",
    )

    def __init__(
        self,
        bleu_zero_policy: str = "hard-zero",
        rouge_convention: str = "precision-ratio",
        meteor_params: MeteorParams = DEFAULT_METEOR_PARAMS,
        cider_scale: float = DEFAULT_SCALE,
        cider_length_penalty_sigma: float | None = None,
    ):
        for name, value, allowed in (
            ("bleu_zero_policy", bleu_zero_policy, ZERO_PRECISION_POLICIES),
            ("rouge_convention", rouge_convention, BETA_CONVENTIONS),
        ):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        check_scale(cider_scale, "cider_scale")
        if cider_length_penalty_sigma is not None:
            length_penalty_spread(cider_length_penalty_sigma, "cider_length_penalty_sigma")
        self._set(
            bleu_zero_policy=bleu_zero_policy, rouge_convention=rouge_convention,
            meteor_params=meteor_params, cider_scale=cider_scale,
            cider_length_penalty_sigma=cider_length_penalty_sigma,
        )


DEFAULT_CONFIG = ScoringConfig()


class SegmentScore(NamedTuple):
    scenario_id: str
    phase: str
    perspective: str
    bleu4: float
    meteor: float
    rouge_l: float
    cider: float


class CaptionScores(NamedTuple):
    internal: SplitScores
    external: SplitScores
    segments: list[SegmentScore]


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
    reference_table: tuple[dict[str, int], ...],
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
    cand_table = ngram_table(candidate)
    sigma = config.cider_length_penalty_sigma
    penalty = length_penalty(c, r, None if sigma is None else length_penalty_spread(sigma))
    return (
        bleu_from_tables(cand_table, [reference_table], c, r, config.bleu_zero_policy).score,
        meteor(candidate, [reference], config.meteor_params).score,
        rouge_l(candidate, reference, config.rouge_convention).score,
        cider_from_tables(cand_table, [reference_table], [penalty], idf, config.cider_scale).score,
    )


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


# Units a forked chunk must hold, or scoring stays serial. On a 2-CPU Xeon
# KVM guest, forking, piping and reaping a child took 1.8-2.1 ms at a
# 15-16 MB heap (q1-q3 of 30), and an earlier session measured 6.5-8.6 ms
# at 62 MB. Tokenizing a candidate and scoring its unit took 0.12-0.13 ms
# for 10-25 tokens and 0.35-0.36 ms for 40-100 (q1-q3 of 15 runs over the
# benchmark's seed-1 caption files, twice). A chunk also tokenizes and
# counts every reference of its splits and builds their IDF, 26-88 us
# per unit of the split; chunks sharing a split do so at the same time,
# which costs CPU but no wall time. So a chunk of 64 short units does about
# 9 ms of work against 2-9 ms of fixed cost; the crossover lies near 10-50
# units.
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
