"""Corpus scoring pipeline: per-segment metrics, split means, accuracy.

Every (scenario, phase, perspective) pair is one scoring unit: its
predicted caption is the candidate, the ground-truth caption its single
reference. The TF-IDF statistics for the consensus metric are built per
split, over that split's reference captions, before any unit is scored.
Units are then scored on the CPUs the process may run on (`taskset`
limits that set), as `vqa.accuracy` resolves its answers: through
`forking.map_chunks`, the unit list is cut into one contiguous chunk per
CPU, the caller scores the first and a forked child each other one, and
the scores are reduced in a fixed sorted order. A unit's score depends
only on the unit, its split's statistics and the config, and the
children send their floats back bit for bit, so the output is
byte-identical for any CPU count.

Missing units score against an empty candidate (which gives 0 on every
metric); strict completeness checking lives in the CLI via
`dataset_io.validate`.
"""

import itertools
import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence

from . import forking
from .bleu import bleu4
from .cider import (
    DEFAULT_SCALE,
    MAX_SCALE,
    CiderCorpusIdf,
    cider,
    compute_idf,
    length_penalty_spread,
)
from .composite import SplitScores
from .dataset_io import PHASES, SPLITS, ScenarioSet
from .meteor import DEFAULT_PARAMS as DEFAULT_METEOR_PARAMS
from .meteor import MeteorParams, meteor
from .ngrams import Tokens
from .rouge import rouge_l
from .text_norm import DEFAULT_TOKENIZER, TokenizerConfig, tokenize

PERSPECTIVES = ("pedestrian", "vehicle")


@dataclass(frozen=True)
class ScoringConfig:
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER
    bleu_zero_policy: str = "hard-zero"
    rouge_convention: str = "precision-ratio"
    meteor_params: MeteorParams = DEFAULT_METEOR_PARAMS
    cider_scale: float = DEFAULT_SCALE
    cider_length_penalty_sigma: float | None = None

    def __post_init__(self):
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


@dataclass(frozen=True)
class _Unit:
    scenario_id: str
    phase: str
    perspective: str
    candidate: tuple[str, ...]
    reference: tuple[str, ...]


def _collect_units(
    gt: ScenarioSet, pred: ScenarioSet, config: ScoringConfig
) -> dict[str, list[_Unit]]:
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
                    _Unit(
                        scenario_id=scenario.id,
                        phase=segment.phase,
                        perspective=perspective,
                        candidate=tuple(tokenize(candidate, config.tokenizer)),
                        reference=tuple(tokenize(reference, config.tokenizer)),
                    )
                )
    return units


def _score_unit(
    unit: _Unit, idf: CiderCorpusIdf, config: ScoringConfig
) -> tuple[float, float, float, float]:
    """The unit's scores, in `SegmentScore` field order (`_METRICS`)."""
    # BLEU and CIDEr share one n-gram table per caption, freed with the unit
    candidate, reference = Tokens(unit.candidate), Tokens(unit.reference)
    references = [reference]
    return (
        bleu4(candidate, references, config.bleu_zero_policy).score,
        meteor(candidate, references, config.meteor_params).score,
        rouge_l(candidate, reference, config.rouge_convention).score,
        cider(
            candidate,
            references,
            idf,
            scale=config.cider_scale,
            length_penalty_sigma=config.cider_length_penalty_sigma,
        ).score,
    )


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


# Units a forked chunk must hold, or scoring stays serial. Forking, piping
# and reaping a child of a 30-90 MB process took 3-5 ms on a 2-CPU Xeon
# VM, and the copy-on-write faults that follow about as much again: the
# work of 20-30 short units. A chunk of 64 gains at least twice its cost.
MIN_CHUNK_UNITS = 64

# Floats scored per unit, in `SegmentScore` field order.
_METRICS = ("bleu4", "meteor", "rouge_l", "cider")


def _score_chunk(work: Sequence, config: ScoringConfig) -> array:
    """The `_METRICS` floats of each (unit, idf) pair in `work`, unit after unit."""
    values = array("d")
    for unit, idf in work:
        values.extend(_score_unit(unit, idf, config))
    return values


def _score_units(work: list, config: ScoringConfig) -> list[SegmentScore]:
    """Score (unit, idf) pairs, in order, one contiguous chunk per CPU."""
    chunks = forking.map_chunks(
        work,
        lambda chunk: _score_chunk(chunk, config),
        "d",
        lambda units: len(_METRICS) * units,
        MIN_CHUNK_UNITS,
    )
    values = itertools.chain.from_iterable(chunks)
    rows = zip(*[values] * len(_METRICS))  # one unit's floats per row
    return [
        SegmentScore(unit.scenario_id, unit.phase, unit.perspective, *row)
        for (unit, _), row in zip(work, rows)
    ]


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
    units_by_split = _collect_units(gt, pred, config)
    idf_by_split = {
        split: compute_idf([[unit.reference] for unit in units])
        for split, units in units_by_split.items()
        if units
    }
    all_segments = _score_units(
        [(unit, idf_by_split[split]) for split in SPLITS for unit in units_by_split[split]],
        config,
    )

    split_results: dict[str, SplitScores] = {}
    start = 0
    for split in SPLITS:
        count = len(units_by_split[split])
        scored = all_segments[start : start + count]
        start += count
        split_results[split] = SplitScores(
            split=split,
            bleu4=_mean([s.bleu4 for s in scored]),
            meteor=_mean([s.meteor for s in scored]),
            rouge_l=_mean([s.rouge_l for s in scored]),
            cider=_mean([s.cider for s in scored]),
            segments=count // len(PERSPECTIVES),
        )
    return CaptionScores(
        internal=split_results["internal"],
        external=split_results["external"],
        segments=all_segments,
    )


def identity_scores(gt: ScenarioSet, config: ScoringConfig = DEFAULT_CONFIG) -> CaptionScores:
    """Score the ground truth against itself (upper-bound sanity check)."""
    as_predictions = ScenarioSet(scenarios=[replace(s, split=None) for s in gt.scenarios])
    return score_captions(gt, as_predictions, config)
