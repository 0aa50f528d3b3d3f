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
import sys

from . import composite, dataset_io, report, scoring, vqa
from .bleu import ZERO_PRECISION_POLICIES
from .errors import SchemaError, ValidationFailure
from .meteor import DEFAULT_PARAMS, MeteorParams
from .rouge import BETA_CONVENTIONS

class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are one line, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(build):
    """argparse type: a float that `build(value)` accepts, its ValueError the flag's error."""

    def parse(text: str) -> float:
        value = float(text)
        try:
            build(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    # argparse names this in its own message for unparsable text: "invalid float value"
    parse.__name__ = "float"
    return parse


def _add_caption_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--gt-captions", required=True, help="ground-truth caption JSON")
    parser.add_argument("--pred-captions", required=True, help="predicted caption JSON")
    parser.add_argument(
        "--bleu-zero-policy",
        choices=ZERO_PRECISION_POLICIES,
        default=scoring.DEFAULT_CONFIG.bleu_zero_policy,
        help="how BLEU handles a zero n-gram precision (default: %(default)s)",
    )
    parser.add_argument(
        "--rouge-convention",
        choices=BETA_CONVENTIONS,
        default=scoring.DEFAULT_CONFIG.rouge_convention,
        help="ROUGE-L beta convention (default: %(default)s)",
    )
    for name in ("alpha", "beta", "gamma"):
        parser.add_argument(
            f"--meteor-{name}",
            type=_checked(lambda value, name=name: MeteorParams(**{name: value})),
            default=getattr(DEFAULT_PARAMS, name),
        )
    parser.add_argument(
        "--cider-scale",
        type=_checked(lambda value: scoring.ScoringConfig(cider_scale=value)),
        default=scoring.DEFAULT_CONFIG.cider_scale,
        help="display scale applied to the consensus metric (default: %(default)s)",
    )
    parser.add_argument(
        "--cider-length-penalty-sigma",
        type=_checked(lambda value: scoring.ScoringConfig(cider_length_penalty_sigma=value)),
        default=scoring.DEFAULT_CONFIG.cider_length_penalty_sigma,
        help="enable the Gaussian length penalty variant with this sigma",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and otherwise ignored: scoring uses every CPU "
        "the process may run on (limit them with taskset)",
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


def _segment_ids(gt: dataset_io.ScenarioSet) -> set[str]:
    """The `scenario/phase` segment id of every segment of `gt`."""
    return {f"{scenario_id}/{phase}" for scenario_id, phase in gt.segment_keys()}


def _check_vqa_segments(known: set[str], items: list[vqa.VqaItem]) -> None:
    """Fail on the first question whose segment is not in `known`."""
    for idx, item in enumerate(items):
        if item.segment_id not in known:
            raise ValidationFailure(
                f"question {item.id!r} (at questions[{idx}]) names segment "
                f"{item.segment_id!r}, which is not a scenario/phase of the "
                "caption ground truth"
            )


def _score_vqa_files(args, gt: dataset_io.ScenarioSet | None = None) -> vqa.AccuracyResult:
    """VQA accuracy; under `--strict`, every question's segment must be in `gt` if given.

    The files are scored in shares, one per CPU (`vqa_shares`). On any
    fault, the checked serial loaders and `vqa.accuracy` score them
    again, and they alone report errors: the gold file is checked before
    the answers are read.
    """
    from . import vqa_shares  # imported here, so `import capvqa.cli` does not compile it

    policy = "strict" if args.strict else "missing-is-wrong"
    known = _segment_ids(gt) if args.strict and gt is not None else None
    result = vqa_shares.score_vqa_in_shares(args.gt_vqa, args.pred_vqa, policy, known)
    if result is None:
        items = dataset_io.load_vqa_items(args.gt_vqa)
        if known is not None:
            _check_vqa_segments(known, items)
        predictions = dataset_io.load_vqa_predictions(args.pred_vqa)
        result = vqa.accuracy(items, predictions, missing_policy=policy)
    return result


def cmd_score_vqa(args) -> int:
    _emit(report.render_vqa(_score_vqa_files(args), args.format), args)
    return 0


def cmd_score_all(args) -> int:
    if args.acc is None and not (args.gt_vqa and args.pred_vqa):
        raise ValueError("score-all needs --gt-vqa and --pred-vqa, or an --acc override")
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
        _check_vqa_segments(_segment_ids(gt), items)
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
        type=_checked(lambda value: composite.s2(0.0, value)),
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
        # What a run builds per record holds no reference cycles, so the
        # collector's passes over it free nothing. Forked chunks inherit
        # the pause.
        with dataset_io.gc_paused():
            return args.func(args)
    except ValidationFailure as exc:
        sys.stderr.write(f"validation failed: {exc}\n")
        return 1
    except (SchemaError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
