"""capvqa: scoring for dual-task traffic-video benchmarks.

Caption quality (BLEU-4, METEOR, ROUGE-L, CIDEr), multiple-choice VQA
accuracy, and the composite leaderboard score, plus the low-rank adapter
and log-likelihood arithmetic behind the models being scored.
"""

from .bleu import BleuBreakdown, bleu4
from .cider import CiderBreakdown, CiderCorpusIdf, cider, compute_idf
from .composite import FinalScore, SplitScores, aggregate_splits, cap_score, s2
from .dataset_io import (
    ScenarioSet,
    ValidationReport,
    load_ground_truth,
    load_predictions,
    load_vqa_items,
    load_vqa_predictions,
    validate,
)
from .errors import SchemaError, ValidationFailure
from .meteor import MeteorAlignment, MeteorBreakdown, MeteorParams, align, meteor
from .ngrams import clipped_matches, extract_ngrams
from .report import RankedEntry, ResultRow, rank_leaderboard, render_leaderboard, render_table
from .rouge import RougeBreakdown, lcs_length, rouge_l
from .scoring import CaptionScores, ScoringConfig, SegmentScore, score_captions
from .text_norm import TokenizerConfig, tokenize
from .vqa import NO_ANSWER, AccuracyResult, VqaItem, VqaPrediction, accuracy, normalize_answer

__version__ = "0.1.0"

# `adaptation` needs numpy, which the scoring CLI never uses, so its names
# are imported on first access (PEP 562) rather than with the package.
_ADAPTATION_NAMES = frozenset(
    {"LowRankAdapter", "SegmentedSample", "caption_nll", "lora_merge", "vqa_nll"}
)


def __getattr__(name):
    if name in _ADAPTATION_NAMES:
        from . import adaptation

        return getattr(adaptation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AccuracyResult",
    "BleuBreakdown",
    "CaptionScores",
    "CiderBreakdown",
    "CiderCorpusIdf",
    "FinalScore",
    "LowRankAdapter",
    "MeteorAlignment",
    "MeteorBreakdown",
    "MeteorParams",
    "NO_ANSWER",
    "RankedEntry",
    "ResultRow",
    "ScenarioSet",
    "SchemaError",
    "ScoringConfig",
    "SegmentScore",
    "SegmentedSample",
    "SplitScores",
    "TokenizerConfig",
    "ValidationFailure",
    "ValidationReport",
    "VqaItem",
    "VqaPrediction",
    "accuracy",
    "aggregate_splits",
    "align",
    "bleu4",
    "cap_score",
    "caption_nll",
    "cider",
    "clipped_matches",
    "compute_idf",
    "extract_ngrams",
    "lcs_length",
    "load_ground_truth",
    "load_predictions",
    "load_vqa_items",
    "load_vqa_predictions",
    "lora_merge",
    "meteor",
    "normalize_answer",
    "rank_leaderboard",
    "render_leaderboard",
    "render_table",
    "rouge_l",
    "s2",
    "score_captions",
    "tokenize",
    "validate",
    "vqa_nll",
]
