"""Command-line entry point.

Subcommands:

    capvqa score-captions --gt-captions GT --pred-captions PRED
    capvqa score-vqa      --gt-vqa GOLD --pred-vqa PRED
    capvqa score-all      --gt-captions GT --pred-captions PRED
                          --gt-vqa GOLD --pred-vqa PRED
    capvqa validate       --gt-captions GT --pred-captions PRED [--gt-vqa GOLD]

Exit codes: 0 success, 1 validation failure (strict mode or the validate
subcommand; `score-all --strict` and `validate --gt-vqa` also check that
every VQA question names a segment of the caption ground truth), 2 I/O,
schema or argument errors. Scoring flags default to the benchmark's
standard conventions, and equal inputs produce byte-identical output.
"""

import argparse
import math
import sys

from . import composite, dataset_io, report, scoring, vqa
from .bleu import ZERO_PRECISION_POLICIES
from .cider import MAX_SCALE, length_penalty_spread
from .errors import SchemaError, ValidationFailure
from .meteor import MeteorParams
from .rouge import BETA_CONVENTIONS

class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are one line, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite(text: str) -> float:
    """argparse type for a flag that must be a finite number."""
    value = _float_or_nan(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_finite(text: str) -> float:
    """argparse type for a flag that must be a finite number above zero."""
    value = _float_or_nan(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _cider_scale(text: str) -> float:
    """argparse type for --cider-scale: above zero, and small enough that means stay finite."""
    value = _positive_finite(text)
    if value > MAX_SCALE:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_SCALE:g}, so split means and Cap_Score stay finite, "
            f"got {text!r}"
        )
    return value


def _length_penalty_sigma(text: str) -> float:
    """argparse type for --cider-length-penalty-sigma: its square must be finite and > 0."""
    value = _positive_finite(text)
    try:
        length_penalty_spread(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number whose square is finite and > 0, got {text!r}"
        ) from None
    return value


def _add_caption_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--gt-captions", required=True, help="ground-truth caption JSON")
    parser.add_argument("--pred-captions", required=True, help="predicted caption JSON")
    parser.add_argument(
        "--bleu-zero-policy",
        choices=ZERO_PRECISION_POLICIES,
        default="hard-zero",
        help="how BLEU handles a zero n-gram precision (default: %(default)s)",
    )
    parser.add_argument(
        "--rouge-convention",
        choices=BETA_CONVENTIONS,
        default="precision-ratio",
        help="ROUGE-L beta convention (default: %(default)s)",
    )
    parser.add_argument("--meteor-alpha", type=_finite, default=0.9)
    parser.add_argument("--meteor-beta", type=_finite, default=3.0)
    parser.add_argument("--meteor-gamma", type=_finite, default=0.5)
    parser.add_argument(
        "--cider-scale",
        type=_cider_scale,
        default=10.0,
        help="display scale applied to the consensus metric (default: %(default)s)",
    )
    parser.add_argument(
        "--cider-length-penalty-sigma",
        type=_length_penalty_sigma,
        default=None,
        help="enable the Gaussian length penalty variant with this sigma",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and otherwise ignored: scoring runs in one thread",
    )


def _add_vqa_flags(parser: argparse.ArgumentParser, required: bool = True):
    parser.add_argument("--gt-vqa", required=required, help="VQA gold JSON")
    parser.add_argument("--pred-vqa", required=required, help="VQA answers JSON")


def _add_output_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--format", choices=report.FORMATS, default="markdown",
        help="output document format (default: %(default)s)",
    )
    parser.add_argument("--output", default=None, help="write the document here instead of stdout")
    parser.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) unless the submission is complete and aligned",
    )


def _emit(document: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document)


def _scoring_config(args) -> scoring.ScoringConfig:
    return scoring.ScoringConfig(
        bleu_zero_policy=args.bleu_zero_policy,
        rouge_convention=args.rouge_convention,
        meteor_params=MeteorParams(
            alpha=args.meteor_alpha, beta=args.meteor_beta, gamma=args.meteor_gamma
        ),
        cider_scale=args.cider_scale,
        cider_length_penalty_sigma=args.cider_length_penalty_sigma,
    )


def _score_caption_files(args) -> tuple[dataset_io.ScenarioSet, scoring.CaptionScores]:
    """The caption ground truth and the submission's scores against it."""
    if args.workers < 1:
        raise ValueError(f"worker count must be >= 1, got {args.workers}")
    gt = dataset_io.load_ground_truth(args.gt_captions)
    pred = dataset_io.load_predictions(args.pred_captions)
    if args.strict:
        validation = dataset_io.validate(gt, pred)
        if not validation.is_empty():
            raise ValidationFailure(validation.one_line())
    return gt, scoring.score_captions(gt, pred, _scoring_config(args))


def cmd_score_captions(args) -> int:
    _, scores = _score_caption_files(args)
    _emit(report.render_split_table([scores.internal, scores.external], args.format), args)
    return 0


def _check_vqa_segments(gt: dataset_io.ScenarioSet, items: list[vqa.VqaItem]) -> None:
    """Fail on the first question whose segment is not a scenario/phase of `gt`."""
    known = {f"{scenario_id}/{phase}" for scenario_id, phase in gt.segment_keys()}
    for idx, item in enumerate(items):
        if item.segment_id not in known:
            raise ValidationFailure(
                f"question {item.id!r} (at questions[{idx}]) names segment "
                f"{item.segment_id!r}, which is not a scenario/phase of the "
                "caption ground truth"
            )


def _score_vqa_files(args, gt: dataset_io.ScenarioSet | None = None) -> vqa.AccuracyResult:
    """VQA accuracy; under `--strict`, every question's segment must be in `gt` if given."""
    items = dataset_io.load_vqa_items(args.gt_vqa)
    if args.strict and gt is not None:
        _check_vqa_segments(gt, items)
    predictions = dataset_io.load_vqa_predictions(args.pred_vqa)
    policy = "strict" if args.strict else "missing-is-wrong"
    return vqa.accuracy(items, predictions, missing_policy=policy)


def cmd_score_vqa(args) -> int:
    _emit(report.render_vqa(_score_vqa_files(args), args.format), args)
    return 0


def cmd_score_all(args) -> int:
    if args.acc is None and not (args.gt_vqa and args.pred_vqa):
        raise ValueError("score-all needs --gt-vqa and --pred-vqa, or an --acc override")
    # checked here, not in argparse, so a bad --acc exits 2 through main before any input is read
    if args.acc is not None and not 0.0 <= args.acc <= 1.0:
        raise ValueError(f"--acc must be a finite fraction in [0, 1], got {args.acc}")
    gt, caption_scores = _score_caption_files(args)
    if args.acc is not None:
        acc = args.acc
    else:
        acc = _score_vqa_files(args, gt).acc_float
    internal, external = caption_scores.internal, caption_scores.external
    aggregated = composite.aggregate_splits(internal, external, mode=args.aggregation)
    final = composite.s2(composite.cap_score(**aggregated), acc)
    document = report.render_score_all(
        args.label, internal, external, aggregated, final, args.format
    )
    _emit(document, args)
    return 0


def cmd_validate(args) -> int:
    gt = dataset_io.load_ground_truth(args.gt_captions)
    pred = dataset_io.load_predictions(args.pred_captions)
    items = dataset_io.load_vqa_items(args.gt_vqa) if args.gt_vqa else None
    validation = dataset_io.validate(gt, pred)
    sys.stdout.write(validation.summary() + "\n")
    if items is not None:
        _check_vqa_segments(gt, items)
    return 0 if validation.is_empty() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capvqa",
        description="Score caption and multiple-choice VQA submissions for "
        "dual-task traffic-video benchmarks.",
    )
    # argparse builds subparsers with the parser's own class, so they share `error`
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("score-captions", help="caption metrics per split")
    _add_caption_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_score_captions)

    p = sub.add_parser("score-vqa", help="multiple-choice answer accuracy")
    _add_vqa_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_score_vqa)

    p = sub.add_parser("score-all", help="both tasks plus the composite scores")
    _add_caption_flags(p)
    _add_vqa_flags(p, required=False)
    _add_output_flags(p)
    p.add_argument(
        "--aggregation",
        choices=composite.AGGREGATION_MODES,
        default="mean",
        help="how the two splits combine (default: %(default)s)",
    )
    p.add_argument("--label", default="run", help="row label for the report")
    p.add_argument(
        "--acc",
        type=float,
        default=None,
        help="override VQA accuracy with a known fraction in [0, 1]",
    )
    p.set_defaults(func=cmd_score_all)

    p = sub.add_parser("validate", help="diff a submission against ground truth")
    p.add_argument("--gt-captions", required=True)
    p.add_argument("--pred-captions", required=True)
    p.add_argument(
        "--gt-vqa", default=None,
        help="VQA gold JSON; every question's segment must be a scenario/phase of --gt-captions",
    )
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValidationFailure as exc:
        sys.stderr.write(f"validation failed: {exc}\n")
        return 1
    except (SchemaError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
