"""Loaders, validators and serializers for the on-disk JSON formats.

Caption ground truth:

    {"scenarios": [{"id": str, "split": "internal"|"external",
                    "segments": [{"phase": <one of five>,
                                  "pedestrian_caption": str,
                                  "vehicle_caption": str}]}]}

Caption predictions use the same shape minus "split" (the split is taken
from the ground truth by id at scoring time). VQA files:

    {"questions": [{"id", "segment", "question", "options": [...], "correct": int}]}
    {"answers": [{"id", "raw"}]}

All files are UTF-8 JSON. Loading is strict about structure (every error
names the offending record) but deliberately lenient about cross-file
alignment: a prediction for an unknown scenario loads fine and is flagged
by `validate`, so partial submissions can still be inspected.
"""

import contextlib
import gc
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NoReturn

from .errors import SchemaError
from .vqa import VqaItem, VqaPrediction

PHASES = ("prerecognition", "recognition", "judgment", "action", "avoidance")
SPLITS = ("internal", "external")


@dataclass
class Segment:
    phase: str
    pedestrian_caption: str
    vehicle_caption: str


@dataclass
class Scenario:
    id: str
    segments: list[Segment]
    split: str | None = None


@dataclass
class ScenarioSet:
    scenarios: list[Scenario]

    def segment_keys(self) -> set[tuple[str, str]]:
        return {
            (scenario.id, segment.phase)
            for scenario in self.scenarios
            for segment in scenario.segments
        }

    @property
    def num_segments(self) -> int:
        return sum(len(scenario.segments) for scenario in self.scenarios)


@dataclass
class ValidationReport:
    missing_segments: list[tuple[str, str]] = field(default_factory=list)
    extra_segments: list[tuple[str, str]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.missing_segments or self.extra_segments)

    def summary(self) -> str:
        lines = []
        for scenario_id, phase in self.missing_segments:
            lines.append(f"missing: {scenario_id}/{phase}")
        for scenario_id, phase in self.extra_segments:
            lines.append(f"extra: {scenario_id}/{phase}")
        return "\n".join(lines) if lines else "submission is complete and well-formed"

    def one_line(self) -> str:
        """The counts and the first line of `summary`, for a strict failure."""
        first = self.summary().split("\n", 1)[0]
        return (
            f"{len(self.missing_segments)} missing and {len(self.extra_segments)} extra "
            f"segment(s), first {first}"
        )


def _load_json(path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path} is not valid UTF-8: {exc.reason}", locator=f"byte {exc.start}"
        ) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path} is not valid JSON: {exc.msg}",
            locator=f"line {exc.lineno}, column {exc.colno}",
        ) from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} is nested too deeply to parse") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise SchemaError(f"{path} holds a number that cannot be parsed: {exc}") from exc


def _expect(value, expected_type, locator: str):
    if not isinstance(value, expected_type):
        raise SchemaError(
            f"expected {expected_type.__name__}, got {type(value).__name__}",
            locator=locator,
        )
    return value


def _field(record: dict, name: str, expected_type, locator: str):
    if name not in record:
        raise SchemaError(f"missing field {name!r}", locator=locator)
    return _expect(record[name], expected_type, f"{locator}.{name}")


def _parse_scenarios(doc, path, with_split: bool) -> list[Scenario]:
    root = _expect(doc, dict, str(path))
    raw_scenarios = _field(root, "scenarios", list, str(path))
    scenarios = []
    seen_ids = set()
    for s_idx, raw in enumerate(raw_scenarios):
        locator = f"scenarios[{s_idx}]"
        record = _expect(raw, dict, locator)
        scenario_id = _field(record, "id", str, locator)
        if scenario_id in seen_ids:
            raise SchemaError(f"duplicate scenario id {scenario_id!r}", locator=locator)
        seen_ids.add(scenario_id)
        split = None
        if with_split:
            split = _field(record, "split", str, locator)
            if split not in SPLITS:
                raise SchemaError(
                    f"split must be one of {SPLITS}, got {split!r}",
                    locator=f"{locator}.split",
                )
        segments = []
        seen_phases = set()
        for g_idx, raw_segment in enumerate(_field(record, "segments", list, locator)):
            seg_locator = f"{locator}.segments[{g_idx}]"
            seg = _expect(raw_segment, dict, seg_locator)
            phase = _field(seg, "phase", str, seg_locator)
            if phase not in PHASES:
                raise SchemaError(
                    f"phase must be one of {PHASES}, got {phase!r}",
                    locator=f"{seg_locator}.phase",
                )
            if phase in seen_phases:
                raise SchemaError(
                    f"duplicate phase {phase!r} in scenario {scenario_id!r}",
                    locator=seg_locator,
                )
            seen_phases.add(phase)
            segments.append(
                Segment(
                    phase=phase,
                    pedestrian_caption=_field(seg, "pedestrian_caption", str, seg_locator),
                    vehicle_caption=_field(seg, "vehicle_caption", str, seg_locator),
                )
            )
        scenarios.append(Scenario(id=scenario_id, segments=segments, split=split))
    return scenarios


def load_ground_truth(path) -> ScenarioSet:
    """Load and schema-check a ground-truth caption file."""
    return ScenarioSet(scenarios=_parse_scenarios(_load_json(path), path, with_split=True))


def load_predictions(path) -> ScenarioSet:
    """Load and schema-check a caption submission file; every split is None."""
    return ScenarioSet(scenarios=_parse_scenarios(_load_json(path), path, with_split=False))


def scenario_set_to_dict(scenario_set: ScenarioSet) -> dict:
    """Inverse of the loaders; load(dump(x)) round-trips to an equal value."""
    scenarios = []
    for scenario in scenario_set.scenarios:
        record: dict[str, Any] = {"id": scenario.id}
        if scenario.split is not None:
            record["split"] = scenario.split
        record["segments"] = [
            {
                "phase": segment.phase,
                "pedestrian_caption": segment.pedestrian_caption,
                "vehicle_caption": segment.vehicle_caption,
            }
            for segment in scenario.segments
        ]
        scenarios.append(record)
    return {"scenarios": scenarios}


def validate(gt: ScenarioSet, pred: ScenarioSet) -> ValidationReport:
    """Exhaustive (scenario, phase) diff between ground truth and submission."""
    gt_keys = gt.segment_keys()
    pred_keys = pred.segment_keys()
    return ValidationReport(
        missing_segments=sorted(gt_keys - pred_keys),
        extra_segments=sorted(pred_keys - gt_keys),
    )


@contextlib.contextmanager
def _gc_paused():
    """Hold off cyclic GC while a loader builds many records.

    The records hold no reference cycles, so the collector's passes over
    them, triggered only by their number, free nothing. GC is enabled
    again on exit only if it was enabled on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def load_vqa_items(path) -> list[VqaItem]:
    """Load the VQA gold file.

    Each record is dropped from the parsed document once its item is
    built, and equal segment and question strings share one object, so
    the document's copies are freed as the load goes.
    """
    root = _expect(_load_json(path), dict, str(path))
    questions = _field(root, "questions", list, str(path))
    items = []
    seen_ids = set()
    memo: dict[str, str] = {}
    for idx, record in enumerate(questions):
        if not (
            isinstance(record, dict)
            and isinstance(item_id := record.get("id"), str)
            and item_id not in seen_ids
            and isinstance(options := record.get("options"), list)
            and all([isinstance(option, str) for option in options])
            and isinstance(segment_id := record.get("segment"), str)
            and isinstance(question := record.get("question"), str)
            and isinstance(gold := record.get("correct"), int)
            and not isinstance(gold, bool)
        ):
            _raise_question_error(record, f"questions[{idx}]", seen_ids)
        seen_ids.add(item_id)
        try:
            items.append(VqaItem(
                item_id, memo.setdefault(segment_id, segment_id),
                memo.setdefault(question, question), options, gold,
            ))
        except SchemaError as exc:
            # VqaItem does not know where its record sits in the file
            raise SchemaError(str(exc), locator=f"questions[{idx}]") from exc
        questions[idx] = None
    return items


def _raise_question_error(record, locator: str, seen_ids: set[str]) -> NoReturn:
    """Raise the error for a question that failed `load_vqa_items`' checks.

    The checks run one at a time here, in the order that picks which
    error a record with several faults reports.
    """
    record = _expect(record, dict, locator)
    item_id = _field(record, "id", str, locator)
    if item_id in seen_ids:
        raise SchemaError(f"duplicate question id {item_id!r}", locator=locator)
    for o_idx, option in enumerate(_field(record, "options", list, locator)):
        _expect(option, str, f"{locator}.options[{o_idx}]")
    _field(record, "segment", str, locator)
    _field(record, "question", str, locator)
    if isinstance(_field(record, "correct", int, locator), bool):
        raise SchemaError("expected int, got bool", locator=f"{locator}.correct")
    raise AssertionError(f"no check failed for {locator}")


@_gc_paused()
def load_vqa_predictions(path) -> list[VqaPrediction]:
    """Load the VQA submission file; id collisions are caught at scoring time."""
    root = _expect(_load_json(path), dict, str(path))
    predictions = []
    for idx, record in enumerate(_field(root, "answers", list, str(path))):
        if not (
            isinstance(record, dict)
            and isinstance(prediction_id := record.get("id"), str)
            and isinstance(raw := record.get("raw"), str)
        ):
            locator = f"answers[{idx}]"
            _field(_expect(record, dict, locator), "id", str, locator)
            _field(record, "raw", str, locator)
        predictions.append(VqaPrediction(prediction_id, raw))
    return predictions
