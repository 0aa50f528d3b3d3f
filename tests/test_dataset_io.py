import gc
import json
import random
import tracemalloc

import pytest

from capvqa import dataset_io
from capvqa.dataset_io import (
    PHASES,
    ValidationReport,
    load_ground_truth,
    load_predictions,
    load_vqa_items,
    load_vqa_predictions,
    validate,
)
from capvqa.errors import SchemaError
from oracles import _normalize_tokens, scenario_set_to_dict


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _segment(phase, suffix=""):
    return {
        "phase": phase,
        "pedestrian_caption": f"pedestrian did something {suffix}",
        "vehicle_caption": f"vehicle did something {suffix}",
    }


def test_toy_fixture_loads(fixtures_dir):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    assert gt.num_segments == 10
    splits = sorted(s.split for s in gt.scenarios)
    assert splits == ["external", "internal"]
    assert {s.phase for s in gt.scenarios[0].segments} == set(PHASES)


def test_predictions_fixture_loads(fixtures_dir):
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    assert pred.num_segments == 10
    assert all(s.split is None for s in pred.scenarios)


def test_invalid_phase_token_named_in_error(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "scenarios": [{"id": "s1", "split": "internal",
                       "segments": [_segment("pre_recognition")]}],
    })
    with pytest.raises(SchemaError, match="pre_recognition"):
        load_ground_truth(path)


def test_empty_scenarios_is_valid(tmp_path):
    path = _write(tmp_path, "empty.json", {"scenarios": []})
    assert load_ground_truth(path).num_segments == 0


def test_missing_caption_field_rejected(tmp_path):
    segment = _segment("action")
    del segment["vehicle_caption"]
    path = _write(tmp_path, "bad.json", {
        "scenarios": [{"id": "s1", "split": "internal", "segments": [segment]}],
    })
    with pytest.raises(SchemaError, match="vehicle_caption"):
        load_ground_truth(path)


def test_duplicate_scenario_id_rejected(tmp_path):
    scenario = {"id": "s1", "split": "internal", "segments": []}
    path = _write(tmp_path, "bad.json", {"scenarios": [scenario, dict(scenario)]})
    with pytest.raises(SchemaError, match="duplicate scenario id"):
        load_ground_truth(path)


def test_duplicate_phase_rejected(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "scenarios": [{"id": "s1", "split": "internal",
                       "segments": [_segment("action"), _segment("action", "again")]}],
    })
    with pytest.raises(SchemaError, match="duplicate phase"):
        load_ground_truth(path)


def test_unknown_split_rejected(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "scenarios": [{"id": "s1", "split": "validation", "segments": []}],
    })
    with pytest.raises(SchemaError, match="split"):
        load_ground_truth(path)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenarios": [', encoding="utf-8")
    with pytest.raises(SchemaError, match="line 1"):
        load_ground_truth(path)


def test_missing_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        load_ground_truth(tmp_path / "nope.json")


def test_errors_carry_locators(tmp_path):
    path = _write(tmp_path, "bad.json", {
        "scenarios": [
            {"id": "s1", "split": "internal", "segments": []},
            {"id": "s2", "split": "internal", "segments": [{"phase": 13}]},
        ],
    })
    with pytest.raises(SchemaError, match=r"scenarios\[1\].segments\[0\]"):
        load_ground_truth(path)


def test_unknown_scenario_in_predictions_is_deferred(tmp_path, fixtures_dir):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    path = _write(tmp_path, "pred.json", {
        "scenarios": [{"id": "mystery", "segments": [_segment("action")]}],
    })
    pred = load_predictions(path)
    assert pred.num_segments == 1
    report = validate(gt, pred)
    assert ("mystery", "action") in report.extra_segments
    assert len(report.missing_segments) == 10


def test_validate_aligned_fixture_is_empty(fixtures_dir):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    report = validate(gt, pred)
    assert report.is_empty()
    assert report == ValidationReport()
    assert report.summary() == "submission is complete and well-formed"


def test_validate_reports_exactly_the_missing_key(tmp_path, fixtures_dir):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    doc = json.loads((fixtures_dir / "captions_pred.json").read_text())
    removed = doc["scenarios"][0]["segments"].pop(2)
    pred = load_predictions(_write(tmp_path, "pred.json", doc))
    report = validate(gt, pred)
    assert report.missing_segments == [("scenario_001", removed["phase"])]
    assert report.extra_segments == []
    assert removed["phase"] in report.summary()


def test_validate_ground_truth_against_itself(fixtures_dir):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    assert validate(gt, gt).is_empty()


def test_round_trip(tmp_path, fixtures_dir):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    path = _write(tmp_path, "copy.json", scenario_set_to_dict(gt))
    assert load_ground_truth(path) == gt
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    path = _write(tmp_path, "pred_copy.json", scenario_set_to_dict(pred))
    assert load_predictions(path) == pred


def test_vqa_fixture_loads(fixtures_dir):
    items = load_vqa_items(fixtures_dir / "vqa_gold.json")
    assert [item.id for item in items] == ["q1", "q2", "q3", "q4", "q5"]
    assert items[0].gold == 1
    assert items[0].segment_id == "scenario_001/action"
    predictions = load_vqa_predictions(fixtures_dir / "vqa_pred.json")
    assert len(predictions) == 5


def test_vqa_duplicate_question_id_rejected(tmp_path):
    question = {
        "id": "q1", "segment": "s1/action", "question": "?",
        "options": ["a", "b"], "correct": 0,
    }
    path = _write(tmp_path, "vqa.json", {"questions": [question, dict(question)]})
    with pytest.raises(SchemaError, match="duplicate question id"):
        load_vqa_items(path)


def test_vqa_gold_index_validated(tmp_path):
    path = _write(tmp_path, "vqa.json", {"questions": [{
        "id": "q1", "segment": "s1/action", "question": "?",
        "options": ["a", "b"], "correct": 2,
    }]})
    with pytest.raises(SchemaError, match="gold index"):
        load_vqa_items(path)


def test_vqa_prediction_fields_required(tmp_path):
    path = _write(tmp_path, "vqa.json", {"answers": [{"id": "q1"}]})
    with pytest.raises(SchemaError, match="raw"):
        load_vqa_predictions(path)


_QUESTION = {
    "id": "q1", "segment": "s1/action", "question": "What?", "options": ["a", "b"], "correct": 0,
}

_MISSING = object()


def _question(**changes):
    record = {**_QUESTION, **changes}
    return {name: value for name, value in record.items() if value is not _MISSING}


@pytest.mark.parametrize(
    "records, message",
    [
        (["q"], "expected dict, got str (at questions[0])"),
        ([_question(id=_MISSING)], "missing field 'id' (at questions[0])"),
        ([_question(segment=_MISSING)], "missing field 'segment' (at questions[0])"),
        ([_question(question=_MISSING)], "missing field 'question' (at questions[0])"),
        ([_question(options=_MISSING)], "missing field 'options' (at questions[0])"),
        ([_question(correct=_MISSING)], "missing field 'correct' (at questions[0])"),
        ([_question(id=1)], "expected str, got int (at questions[0].id)"),
        ([_question(segment=None)], "expected str, got NoneType (at questions[0].segment)"),
        ([_question(question=["?"])], "expected str, got list (at questions[0].question)"),
        ([_question(options="a b")], "expected list, got str (at questions[0].options)"),
        ([_question(correct=0.0)], "expected int, got float (at questions[0].correct)"),
        ([_question(correct="0")], "expected int, got str (at questions[0].correct)"),
        ([_question(correct=True)], "expected int, got bool (at questions[0].correct)"),
        ([_question(options=["a", 2])], "expected str, got int (at questions[0].options[1])"),
        ([_question(options=["a"])], "question 'q1' needs at least 2 options, got 1 (at questions[0])"),
        ([_question(correct=2)], "question 'q1' gold index 2 is outside [0, 2) (at questions[0])"),
        ([_question(correct=-1)], "question 'q1' gold index -1 is outside [0, 2) (at questions[0])"),
        (
            [_question(options=["A b", "a, b!"])],
            "question 'q1' has options that collide after normalization (at questions[0])",
        ),
        ([_question(), _question(options=3)], "duplicate question id 'q1' (at questions[1])"),
        (
            [_question(), _question(id="q2", segment=5)],
            "expected str, got int (at questions[1].segment)",
        ),
        # the first faulty record is reported, whichever check finds its fault
        (
            [_question(), _question(id="q2", options=["A b", "a, b!"]), _question(id=3)],
            "question 'q2' has options that collide after normalization (at questions[1])",
        ),
    ],
)
def test_vqa_item_schema_error_messages(tmp_path, records, message):
    path = _write(tmp_path, "vqa.json", {"questions": records})
    with pytest.raises(SchemaError) as error:
        load_vqa_items(path)
    assert str(error.value) == message


def test_loaded_items_share_segment_strings_and_equal_items_built_one_by_one(tmp_path):
    records = [
        _question(id=f"q{i}", segment=f"s{i % 3}/action", options=[f"Option {i}.", "other"])
        for i in range(12)
    ]
    items = load_vqa_items(_write(tmp_path, "vqa.json", {"questions": records}))
    assert items == [
        dataset_io.VqaItem(r["id"], r["segment"], r["question"], r["options"], r["correct"])
        for r in records
    ]
    assert len({id(item.segment_id) for item in items}) == 3
    assert len({id(item.question) for item in items}) == 1


# Errors must come in file order across a large file: the files below
# hold more than two blocks of this many questions.
_BLOCK = 4096


def _blocks_of_questions(count=2 * _BLOCK + 10):
    """`count` well-formed questions, more than two blocks of `_BLOCK` by default."""
    return [_question(id=f"q{i}", options=[f"Option {i}.", f"other {i}"]) for i in range(count)]


def _collide(index):
    return _question(id=f"q{index}", options=["A b", "a, b!"])


@pytest.mark.parametrize(
    "faults, message",
    [
        # a collision in the second block beats a structural error and a
        # duplicate id after it
        (
            {_BLOCK + 5: _collide(_BLOCK + 5), _BLOCK + 7: _question(id="x", correct="0"),
             _BLOCK + 9: _question(id="q0")},
            f"question 'q{_BLOCK + 5}' has options that collide after normalization "
            f"(at questions[{_BLOCK + 5}])",
        ),
        # a structural error in the first block beats a later collision,
        # whichever pass finds it
        (
            {5: _question(id="q5", options=["a", 2]), _BLOCK + 5: _collide(_BLOCK + 5)},
            "expected str, got int (at questions[5].options[1])",
        ),
        (
            {5: _question(id="q5", segment=None), _BLOCK + 5: _collide(_BLOCK + 5)},
            "expected str, got NoneType (at questions[5].segment)",
        ),
        (
            {5: _question(id="q5", correct=2), 2 * _BLOCK + 1: _collide(2 * _BLOCK + 1)},
            "question 'q5' gold index 2 is outside [0, 2) (at questions[5])",
        ),
        # a repeat in the second block of an id from the first names the repeat
        (
            {_BLOCK + 3: _question(id="q3")},
            f"duplicate question id 'q3' (at questions[{_BLOCK + 3}])",
        ),
        (
            {_BLOCK + 3: _question(id="q3"), 2 * _BLOCK + 2: _collide(2 * _BLOCK + 2)},
            f"duplicate question id 'q3' (at questions[{_BLOCK + 3}])",
        ),
    ],
)
def test_vqa_errors_keep_file_order_across_blocks(tmp_path, faults, message):
    records = _blocks_of_questions()
    for index, record in faults.items():
        records[index] = record
    path = _write(tmp_path, "vqa.json", {"questions": records})
    with pytest.raises(SchemaError) as error:
        load_vqa_items(path)
    assert str(error.value) == message


def test_vqa_items_loaded_in_blocks_equal_items_built_one_by_one(tmp_path):
    # the second block's and the last's options need whitespace collapsed,
    # and one of them holds an empty option
    records = _blocks_of_questions()
    for index in range(_BLOCK, 2 * _BLOCK + 10, 3):
        records[index]["options"] = [f" Option\t{index}. ", f"\u00c9t\u00e9  {index}", "(x)"]
    records[2 * _BLOCK + 4]["options"] = ["", "empty?"]
    items = load_vqa_items(_write(tmp_path, "vqa.json", {"questions": records}))
    expected = [
        dataset_io.VqaItem(r["id"], r["segment"], r["question"], r["options"], r["correct"])
        for r in records
    ]
    assert items == expected
    joined = [item._normalized_options for item in items]
    assert joined == [item._normalized_options for item in expected]
    assert joined == [
        "\n".join(" ".join(_normalize_tokens(option)) for option in r["options"])
        for r in records
    ]


@pytest.mark.parametrize(
    "records, message",
    [
        ([3], "expected dict, got int (at answers[0])"),
        ([{"raw": "A"}], "missing field 'id' (at answers[0])"),
        ([{"id": "q1"}], "missing field 'raw' (at answers[0])"),
        ([{"id": "q1", "raw": 1}], "expected str, got int (at answers[0].raw)"),
        ([{"id": None, "raw": "A"}], "expected str, got NoneType (at answers[0].id)"),
    ],
)
def test_vqa_prediction_schema_error_messages(tmp_path, records, message):
    path = _write(tmp_path, "vqa.json", {"answers": records})
    with pytest.raises(SchemaError) as error:
        load_vqa_predictions(path)
    assert str(error.value) == message


@pytest.mark.parametrize("loader, name", [
    (load_vqa_items, "vqa_gold.json"), (load_vqa_predictions, "vqa_pred.json"),
])
def test_gc_pause_leaves_records_unchanged(fixtures_dir, loader, name):
    paused = loader(fixtures_dir / name)
    assert gc.isenabled()
    assert paused == loader.__wrapped__(fixtures_dir / name)


def test_gc_is_paused_while_questions_are_built(fixtures_dir, monkeypatch):
    # a subclass, not a wrapper: the loader tells built items from dicts
    # with `isinstance`
    states = []

    class RecordingItem(dataset_io.VqaItem):
        __slots__ = ()

        def __init__(self, *args):
            states.append(gc.isenabled())
            super().__init__(*args)

    monkeypatch.setattr(dataset_io, "VqaItem", RecordingItem)
    items = load_vqa_items(fixtures_dir / "vqa_gold.json")
    assert len(states) == len(items) > 0 and not any(states)
    assert {type(item) for item in items} == {RecordingItem}
    assert gc.isenabled()


def test_gc_is_enabled_again_after_a_failed_load(tmp_path):
    path = _write(tmp_path, "vqa.json", {"questions": [_question(correct="0")]})
    with pytest.raises(SchemaError):
        load_vqa_items(path)
    assert gc.isenabled()
    with pytest.raises(SchemaError):
        load_vqa_predictions(_write(tmp_path, "answers.json", {"answers": [3]}))
    assert gc.isenabled()


def test_gc_stays_disabled_when_the_caller_disabled_it(fixtures_dir):
    gc.disable()
    try:
        load_vqa_items(fixtures_dir / "vqa_gold.json")
        load_vqa_predictions(fixtures_dir / "vqa_pred.json")
        assert not gc.isenabled()
    finally:
        gc.enable()


# A record-shaped dict where a loader expects something else reports the
# enclosing field's error, as any other dict there would.
@pytest.mark.parametrize("doc, message", [
    (_question(), "missing field 'questions' (at {path})"),
    ({"questions": _question()}, "expected list, got dict (at {path}.questions)"),
    (
        {"questions": [_question(options=["a", _question(id="q2")])]},
        "expected str, got dict (at questions[0].options[1])",
    ),
    (
        {"questions": [_question(id=_question(id="q2"))]},
        "expected str, got dict (at questions[0].id)",
    ),
])
def test_vqa_question_shaped_dicts_out_of_place(tmp_path, doc, message):
    path = _write(tmp_path, "vqa.json", doc)
    with pytest.raises(SchemaError) as error:
        load_vqa_items(path)
    assert str(error.value) == message.format(path=path)


def test_vqa_question_records_carrying_a_questions_key_load(tmp_path):
    nested = _question(id="q2", questions=[_question(id="q3")])
    root = {**_question(id="q0"), "questions": [_question(), nested]}
    items = load_vqa_items(_write(tmp_path, "vqa.json", root))
    assert [item.id for item in items] == ["q1", "q2"]
    assert items[1] == dataset_io.VqaItem("q2", "s1/action", "What?", ["a", "b"], 0)


@pytest.mark.parametrize("doc, message", [
    ({"id": "q1", "raw": "A"}, "missing field 'answers' (at {path})"),
    ({"answers": {"id": "q1", "raw": "A"}}, "expected list, got dict (at {path}.answers)"),
    (
        {"answers": [{"id": "q1", "raw": {"id": "q2", "raw": "A"}}]},
        "expected str, got dict (at answers[0].raw)",
    ),
    (
        {"answers": [{"id": {"id": "q2", "raw": "A"}, "raw": "A"}]},
        "expected str, got dict (at answers[0].id)",
    ),
])
def test_vqa_answer_shaped_dicts_out_of_place(tmp_path, doc, message):
    path = _write(tmp_path, "answers.json", doc)
    with pytest.raises(SchemaError) as error:
        load_vqa_predictions(path)
    assert str(error.value) == message.format(path=path)


def test_vqa_answer_records_carrying_an_answers_key_load(tmp_path):
    root = {"id": "q0", "raw": "A", "answers": [{"id": "q1", "raw": "B", "answers": []}]}
    predictions = load_vqa_predictions(_write(tmp_path, "answers.json", root))
    assert predictions == [dataset_io.VqaPrediction("q1", "B")]


@pytest.fixture(scope="module")
def bulk_vqa_files(tmp_path_factory):
    """A gold and an answers file shaped like the benchmark's: 20k questions of 4 options."""
    tmp_path = tmp_path_factory.mktemp("bulk")
    rng = random.Random(5)
    words = [f"w{n}{chr(97 + n % 26)}{'x' * (n % 5)}" for n in range(3_000)]
    records, answers = [], []
    for q in range(20_000):
        options = [" ".join(rng.sample(words, rng.randint(2, 4))) for _ in range(4)]
        records.append({
            "id": f"q{q:06d}", "segment": f"scenario_{q % 4:05d}/action",
            "question": "What does the road user do next?", "options": options,
            "correct": rng.randrange(4),
        })
        raw = rng.choice(["B", f"C. {options[2]}", options[0].upper(), "hard to tell"])
        answers.append({"id": f"q{q:06d}", "raw": raw})
    return (
        _write(tmp_path, "gold.json", {"questions": records}),
        _write(tmp_path, "answers.json", {"answers": answers}),
    )


def _traced(load):
    """`load()`'s length, the bytes its result retains and the peak beyond them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(result), current - before, peak - current


def test_vqa_gold_items_retain_less_than_the_parsed_document(bulk_vqa_files):
    gold, _ = bulk_vqa_files
    count, items_bytes, _ = _traced(lambda: load_vqa_items(gold))
    assert count == 20_000
    _, document_bytes, _ = _traced(lambda: json.loads(gold.read_text(encoding="utf-8")))
    assert items_bytes < document_bytes


def test_vqa_gold_load_holds_about_the_file_text_beyond_its_result(bulk_vqa_files):
    gold, _ = bulk_vqa_files
    count, _, transient = _traced(lambda: load_vqa_items(gold))
    assert count == 20_000
    # the text, while it parses, and not a whole file's normalized options
    assert transient <= 1.25 * gold.stat().st_size


def test_vqa_answers_load_holds_about_the_file_text_beyond_its_result(bulk_vqa_files):
    _, answers = bulk_vqa_files
    count, _, transient = _traced(lambda: load_vqa_predictions(answers))
    assert count == 20_000
    # the text, while it parses, and not a whole document of answer dicts
    assert transient <= 1.25 * answers.stat().st_size
