"""Loaders and validators for the on-disk JSON formats.

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
from typing import Any, NamedTuple

from .errors import SchemaError
from .vqa import VqaItem, VqaPrediction, _shape_error

PHASES = ("prerecognition", "recognition", "judgment", "action", "avoidance")
SPLITS = ("internal", "external")
_RECORD_TYPES = (VqaItem, VqaPrediction)


class Segment(NamedTuple):
    phase: str
    pedestrian_caption: str
    vehicle_caption: str


class Scenario(NamedTuple):
    id: str
    segments: list[Segment]
    split: str | None = None


class ScenarioSet(NamedTuple):
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


class ValidationReport(NamedTuple):
    # every report built without them shares these two empty lists
    missing_segments: list[tuple[str, str]] = []
    extra_segments: list[tuple[str, str]] = []

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


def _load_json(path, object_hook=None) -> Any:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path} is not valid UTF-8: {exc.reason}", locator=f"byte {exc.start}"
        ) from exc
    try:
        return json.loads(text, object_hook=object_hook)
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
        # a record built during the parse was a dict in the file
        got = "dict" if isinstance(value, _RECORD_TYPES) else type(value).__name__
        raise SchemaError(
            f"expected {expected_type.__name__}, got {got}",
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


def validate(gt: ScenarioSet, pred: ScenarioSet) -> ValidationReport:
    """Exhaustive (scenario, phase) diff between ground truth and submission."""
    gt_keys = gt.segment_keys()
    pred_keys = pred.segment_keys()
    return ValidationReport(
        missing_segments=sorted(gt_keys - pred_keys),
        extra_segments=sorted(pred_keys - gt_keys),
    )


@contextlib.contextmanager
def gc_paused():
    """Hold off cyclic GC while many records are built or held.

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


def _vqa_document(path, build, records: str):
    """Parse `path`, building each record as the parser closes it.

    `build` gets every object at every depth, and returns a record or the
    dict unchanged when it is not a well-formed record. A dict holding a
    `records` key stays a dict, so a well-formed root keeps its list. A
    root built into a record is a root without that list.
    """
    root = _load_json(path, build)
    if isinstance(root, _RECORD_TYPES):
        raise SchemaError(f"missing field {records!r}", locator=str(path))
    return _field(_expect(root, dict, str(path)), records, list, str(path))


def _question_hook(keep):
    """An `object_hook` that hands each well-formed question record to `keep`.

    A dict with the fields of a question, of the right types, at least two
    options and the gold index among them, becomes what `keep(id, segment,
    question, options, gold)` returns, so the parser frees its dict at
    once. Any other dict, one holding a `questions` key, and one whose
    `keep` raises `SchemaError` or `TypeError`, stays as it is. The hook
    checks neither that the options are strings nor that they stay
    distinct: that is `keep`'s part.
    """

    def hook(record: dict):
        if (
            type(item_id := record.get("id")) is str
            and type(options := record.get("options")) is list
            and type(segment_id := record.get("segment")) is str
            and type(question := record.get("question")) is str
            and type(gold := record.get("correct")) is int
            and _shape_error(item_id, options, gold) is None
            and "questions" not in record
        ):
            try:
                return keep(item_id, segment_id, question, options, gold)
            except (SchemaError, TypeError):
                pass
        return record

    return hook


@gc_paused()
def load_vqa_items(path) -> list[VqaItem]:
    """Load and check the VQA gold file.

    The parser builds each well-formed question into its `VqaItem`, which
    checks it and normalizes its options, the moment it closes the
    record, so the record's dict is freed at once and no whole document
    is ever held. Equal segment and question strings share one object. A
    record the parse left a dict is checked field by field after it, in
    the same pass, in file order, that checks every id is new, so the
    first faulty question in the file reports its error.
    """
    memo: dict[str, str] = {}

    def build(item_id, segment_id, question, options, gold):
        return VqaItem(
            item_id, memo.setdefault(segment_id, segment_id),
            memo.setdefault(question, question), options, gold,
        )

    questions = _vqa_document(path, _question_hook(build), "questions")
    seen_ids = set()
    for idx, record in enumerate(questions):
        questions[idx] = item = _item_from_record(record, f"questions[{idx}]", seen_ids)
        seen_ids.add(item.id)
    return questions


def _item_from_record(record, locator: str, seen_ids: set[str]) -> VqaItem:
    """The item of one question record, or its error.

    The checks run one at a time, in the order that picks which error a
    record with several faults reports. An item the parse built has
    passed all but one: a new id.
    """
    if isinstance(record, VqaItem):
        _check_new_id(record.id, seen_ids, locator)
        return record
    record = _expect(record, dict, locator)
    item_id = _field(record, "id", str, locator)
    _check_new_id(item_id, seen_ids, locator)
    options = _field(record, "options", list, locator)
    for o_idx, option in enumerate(options):
        _expect(option, str, f"{locator}.options[{o_idx}]")
    segment_id = _field(record, "segment", str, locator)
    question = _field(record, "question", str, locator)
    gold = _field(record, "correct", int, locator)
    if isinstance(gold, bool):
        raise SchemaError("expected int, got bool", locator=f"{locator}.correct")
    try:
        return VqaItem(item_id, segment_id, question, options, gold)
    except SchemaError as exc:
        # VqaItem does not know where its record sits in the file
        raise SchemaError(str(exc), locator=locator) from exc


def _check_new_id(item_id: str, seen_ids: set[str], locator: str) -> None:
    if item_id in seen_ids:
        raise SchemaError(f"duplicate question id {item_id!r}", locator=locator)


def _answer_hook(keep):
    """An `object_hook` that hands each well-formed answer record to `keep(id, raw)`.

    Any other dict, and one holding an `answers` key, stays as it is.
    """

    def hook(record: dict):
        if (
            type(prediction_id := record.get("id")) is str
            and type(raw := record.get("raw")) is str
            and "answers" not in record
        ):
            return keep(prediction_id, raw)
        return record

    return hook


@gc_paused()
def load_vqa_predictions(path) -> list[VqaPrediction]:
    """Load the VQA submission file; id collisions are caught at scoring time.

    Like the gold load, each answer is built as the parser closes it.
    """
    predictions = _vqa_document(path, _answer_hook(VqaPrediction), "answers")
    for idx, prediction in enumerate(predictions):
        if not isinstance(prediction, VqaPrediction):
            locator = f"answers[{idx}]"
            record = _expect(prediction, dict, locator)
            predictions[idx] = VqaPrediction(
                _field(record, "id", str, locator), _field(record, "raw", str, locator)
            )
    return predictions
