"""Composite scores: caption mean, split aggregation, and the final S2.

All values flow through here in one unit system: plain fractions (acc in
[0, 1], caption metrics raw, CIDEr on whatever scale it was computed at).
Percent is strictly a rendering concern; `FinalScore.as_percent` is the
same numbers times 100, nothing else.
"""

from typing import NamedTuple

METRIC_NAMES = ("bleu4", "meteor", "rouge_l", "cider")
AGGREGATION_MODES = ("mean", "segment-weighted")


class SplitScores(NamedTuple):
    """Mean per-segment metric values for one dataset split."""

    split: str
    bleu4: float
    meteor: float
    rouge_l: float
    cider: float
    segments: int = 0

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


class FinalScore(NamedTuple):
    cap_score: float
    acc: float
    s2: float

    def as_percent(self) -> dict[str, float]:
        return {
            "cap_score": self.cap_score * 100.0,
            "acc": self.acc * 100.0,
            "s2": self.s2 * 100.0,
        }


def cap_score(bleu4: float, meteor: float, rouge_l: float, cider: float) -> float:
    """Arithmetic mean of the four caption metrics, taken as given."""
    values = (bleu4, meteor, rouge_l, cider)
    for name, value in zip(METRIC_NAMES, values):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    # added left to right from 0.0, not by `sum`, which compensates its
    # float additions since Python 3.12
    return (0.0 + bleu4 + meteor + rouge_l + cider) / 4.0


def aggregate_splits(
    internal: SplitScores, external: SplitScores, mode: str = "mean"
) -> dict[str, float]:
    """Combine the two splits into one value per metric.

    `mean` weights the splits equally, so it rejects a split with no
    segments rather than average it in as 0; `segment-weighted` weights
    them by their segment counts.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
    if mode == "segment-weighted":
        total = internal.segments + external.segments
        if total == 0:
            raise ValueError("segment-weighted aggregation needs segment counts")
        w_int = internal.segments / total
        w_ext = external.segments / total
    else:
        for split in (internal, external):
            if split.segments == 0:
                raise ValueError(
                    f"split {split.split!r} has no segments, so mean aggregation would "
                    "average it in as 0; use segment-weighted aggregation"
                )
        w_int = w_ext = 0.5
    return {
        name: w_int * getattr(internal, name) + w_ext * getattr(external, name)
        for name in METRIC_NAMES
    }


def s2(cap: float, acc: float) -> FinalScore:
    """Final composite: the midpoint of caption score and VQA accuracy."""
    if cap < 0:
        raise ValueError(f"cap_score must be non-negative, got {cap}")
    if not 0.0 <= acc <= 1.0:
        raise ValueError(f"acc must be a fraction in [0, 1], got {acc}")
    return FinalScore(cap_score=cap, acc=acc, s2=(cap + acc) / 2.0)
