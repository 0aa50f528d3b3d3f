"""capvqa: scoring for dual-task traffic-video benchmarks.

Caption quality (BLEU-4, METEOR, ROUGE-L, CIDEr), multiple-choice VQA
accuracy, and the composite leaderboard score.
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
from .text_norm import tokenize
from .vqa import NO_ANSWER, AccuracyResult, VqaItem, VqaPrediction, accuracy, normalize_answer

__version__ = "0.1.0"

__all__ = [
    "AccuracyResult",
    "BleuBreakdown",
    "CaptionScores",
    "CiderBreakdown",
    "CiderCorpusIdf",
    "FinalScore",
    "MeteorAlignment",
    "MeteorBreakdown",
    "MeteorParams",
    "NO_ANSWER",
    "RankedEntry",
    "ResultRow",
    "RougeBreakdown",
    "ScenarioSet",
    "SchemaError",
    "ScoringConfig",
    "SegmentScore",
    "SplitScores",
    "ValidationFailure",
    "ValidationReport",
    "VqaItem",
    "VqaPrediction",
    "accuracy",
    "aggregate_splits",
    "align",
    "bleu4",
    "cap_score",
    "cider",
    "clipped_matches",
    "compute_idf",
    "extract_ngrams",
    "lcs_length",
    "load_ground_truth",
    "load_predictions",
    "load_vqa_items",
    "load_vqa_predictions",
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
]
