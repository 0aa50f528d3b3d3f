"""VQA files scored in shares, one forked process per CPU, against the serial path.

`vqa_shares.score_vqa_in_shares` cuts the gold file into one byte range
per share, of about equal length, so in the generated files of 4,000
questions question k lies in share k * shares // 4000, give or take the
question at a cut. Every test that forces the CPU count to 1, 2 and 3
also cuts shares into pieces of about 440 questions: one CPU takes the
serial path, two and three fork one and two children.
"""

import json
import os
import random
from pathlib import Path

import pytest
from conftest import _assert_no_child_left

from capvqa import cli, dataset_io, forking, vqa_shares
from capvqa.dataset_io import load_vqa_items, load_vqa_predictions
from capvqa.vqa import accuracy

CPUS = (1, 2, 3)
SEGMENTS = [f"scenario_00{s}/{p}" for s in (1, 2) for p in dataset_io.PHASES]
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CAPTIONS = [
    "--gt-captions", os.path.join(FIXTURES, "captions_gt.json"),
    "--pred-captions", os.path.join(FIXTURES, "captions_pred.json"),
]


def _questions(count: int, seed: int = 21) -> tuple[list[dict], list[dict]]:
    """`count` well-formed questions, and answers in every form for most of them."""
    rng = random.Random(seed)
    words = ["red", "car", "man", "turns", "left", "stops", "the", "bike", "lane", "waits"]
    questions, answers = [], []
    for k in range(count):
        options = [f"{w.title()} {k}, " + " ".join(rng.sample(words, 3)) + "." for w in words[:4]]
        gold = rng.randrange(4)
        questions.append({
            "id": f"q{k}", "segment": rng.choice(SEGMENTS), "question": "What happens?",
            "options": options, "correct": gold,
        })
        pick = rng.randrange(4)
        raw = rng.choice([
            "ABCD"[pick], f"{'abcd'[pick]}) anyway", options[pick].upper(),
            f"I think {options[pick]}", "no idea", "", None,
        ])
        if raw is not None:
            answers.append({"id": f"q{k}", "raw": raw})
    rng.shuffle(answers)
    return questions, answers


def _write(path, key: str, records: list) -> str:
    path.write_text(json.dumps({key: records}), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bulk(tmp_path_factory):
    """25,000 questions and their answers, written once."""
    questions, answers = _questions(25_000)
    directory = tmp_path_factory.mktemp("bulk")
    return _write(directory / "gold.json", "questions", questions), _write(
        directory / "answers.json", "answers", answers
    )


@pytest.fixture
def split(monkeypatch, forks):
    """Force the CPU count; the forks made since, checked to be one per extra share."""

    def force(cpus: int) -> list:
        monkeypatch.setattr(forking, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(vqa_shares, "_PIECE_BYTES", 100_000)
        forks.clear()
        return forks

    return force


def _errors_of(capsys, argv: list[str]) -> tuple[int, str]:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert out == "" or code == 0
    return code, err


@pytest.mark.parametrize("cpus", CPUS)
def test_shares_equal_the_library_accuracy(split, bulk, cpus):
    gold, answers = bulk
    expected = accuracy(load_vqa_items(gold), load_vqa_predictions(answers))
    assert 0 < expected.correct < expected.total == 25_000
    forks = split(cpus)
    result = vqa_shares.score_vqa_in_shares(gold, answers)
    if cpus == 1:
        assert result is None and forks == []
    else:
        assert result == expected
        assert len(forks) == cpus - 1
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", CPUS)
def test_score_vqa_prints_the_same_bytes_on_any_cpu_count(split, bulk, capsys, cpus):
    gold, answers = bulk
    split(1)
    assert cli.main(["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers]) == 0
    serial = capsys.readouterr().out
    forks = split(cpus)
    assert cli.main(["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers]) == 0
    assert capsys.readouterr().out == serial
    assert len(forks) == cpus - 1


def _faulty(tmp_path, faults: dict, count: int = 4_000) -> tuple[str, str]:
    """A gold file of `count` questions with `faults` put at their indexes, and its answers."""
    questions, answers = _questions(count)
    for index, record in faults.items():
        questions[index] = record
    assert os.path.getsize(_write(tmp_path / "gold.json", "questions", questions)) > (
        3 * dataset_io.MIN_SHARE_BYTES
    )
    return str(tmp_path / "gold.json"), _write(tmp_path / "answers.json", "answers", answers)


def _question(index: int, **fields) -> dict:
    record = {"id": f"q{index}", "segment": SEGMENTS[0], "question": "?",
              "options": [f"yes {index}", f"no {index}"], "correct": 0}
    return {**record, **fields}


@pytest.mark.parametrize("cpus", CPUS)
def test_faults_in_different_shares_report_the_lowest_index_fault(
    split, tmp_path, capsys, cpus
):
    # the first share holds q1500, the last q3900 and q2900, and q2100 is
    # in the middle share of three
    gold, answers = _faulty(tmp_path, {
        3900: _question(3900, correct=2),
        2900: _question(3),
        2100: _question(2100, options=["A b", "a, b!"]),
        1500: _question(1500, options=["a", 7]),
    })
    forks = split(cpus)
    assert _errors_of(capsys, ["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers]) == (
        2, "error: expected str, got int (at questions[1500].options[1])\n",
    )
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("repeat", [3005, 40])
def test_a_repeated_id_is_caught_in_any_pair_of_shares(split, tmp_path, capsys, cpus, repeat):
    # q4 lies in the first share; a repeat at 3005 in the last, one at 40
    # in the first
    gold, answers = _faulty(tmp_path, {repeat: _question(4)})
    forks = split(cpus)
    assert _errors_of(capsys, ["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers]) == (
        2, f"error: duplicate question id 'q4' (at questions[{repeat}])\n",
    )
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("cpus", CPUS)
def test_a_dict_nested_as_an_option_still_gives_the_first_error(split, tmp_path, capsys, cpus):
    # the nested dict is a record of its own to the parser's hook
    gold, answers = _faulty(tmp_path, {
        3: _question(3, options=["a", {"x": 1}]),
        20: _question(20, correct=5),
    })
    split(cpus)
    assert _errors_of(capsys, ["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers]) == (
        2, "error: expected str, got dict (at questions[3].options[1])\n",
    )


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("oddity", [
    "a dict nested in a question", "a question nested in a question",
    "a question outside the list",
])
def test_odd_but_valid_files_score_as_the_library_does(split, tmp_path, capsys, cpus, oddity):
    # a nested dict is a record of its own to the parser's hook; a question
    # nested in one or outside the list is one the shares must not count
    questions, answers = _questions(4_000)
    doc = {"questions": questions}
    if oddity == "a dict nested in a question":
        questions[7]["meta"] = {"source": "annotator 2"}
    elif oddity == "a question nested in a question":
        questions[7]["meta"] = _question(99_998)
    else:
        doc["note"] = _question(99_999)
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps(doc), encoding="utf-8")
    answers = _write(tmp_path / "answers.json", "answers", answers)
    expected = accuracy(load_vqa_items(gold), load_vqa_predictions(answers))
    split(cpus)
    assert vqa_shares.score_vqa_in_shares(str(gold), answers) in (None, expected)
    assert cli.main(["score-vqa", "--gt-vqa", str(gold), "--pred-vqa", answers,
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["total"], report["correct"]) == (expected.total, expected.correct)


@pytest.mark.parametrize("cpus", CPUS)
def test_a_gold_fault_in_the_last_share_beats_a_missing_answers_file(
    split, tmp_path, capsys, cpus
):
    last = 3_999  # in the last share
    gold, _ = _faulty(tmp_path, {last: _question(last, segment=7)})
    missing = str(tmp_path / "missing.json")
    split(cpus)
    assert _errors_of(capsys, ["score-vqa", "--gt-vqa", gold, "--pred-vqa", missing]) == (
        2, f"error: expected str, got int (at questions[{last}].segment)\n",
    )
    # with the answers in place, the shares find the same fault
    gold, answers = _faulty(tmp_path, {last: _question(last, segment=7)})
    forks = split(cpus)
    assert _errors_of(capsys, ["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers]) == (
        2, f"error: expected str, got int (at questions[{last}].segment)\n",
    )
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("cpus", CPUS)
def test_strict_reports_missing_answers_and_stray_segments(split, tmp_path, capsys, cpus):
    questions, answers = _questions(4_000)
    gold = _write(tmp_path / "gold.json", "questions", questions)
    answered = {answer["id"] for answer in answers}
    missing = sorted(q["id"] for q in questions if q["id"] not in answered)
    assert len(missing) > 5
    forks = split(cpus)
    assert _errors_of(capsys, [
        "score-vqa", "--gt-vqa", gold, "--pred-vqa",
        _write(tmp_path / "answers.json", "answers", answers), "--strict",
    ]) == (
        1, f"validation failed: {len(missing)} item(s) have no prediction: "
        f"{', '.join(missing[:5])} and {len(missing) - 5} more\n",
    )
    assert len(forks) == cpus - 1

    complete = _write(tmp_path / "complete.json", "answers", [
        {"id": q["id"], "raw": "B"} for q in questions
    ])
    split(1)
    assert cli.main(["score-all", *CAPTIONS, "--gt-vqa", gold, "--pred-vqa", complete,
                     "--strict", "--format", "json"]) == 0
    serial = capsys.readouterr().out
    forks = split(cpus)
    assert cli.main(["score-all", *CAPTIONS, "--gt-vqa", gold, "--pred-vqa", complete,
                     "--strict", "--format", "json"]) == 0
    assert capsys.readouterr().out == serial
    assert len(forks) == cpus - 1

    stray = 3_998  # in the last share
    questions[stray]["segment"] = "scenario_003/action"
    gold = _write(tmp_path / "gold.json", "questions", questions)
    split(cpus)
    assert _errors_of(capsys, [
        "score-all", *CAPTIONS, "--gt-vqa", gold, "--pred-vqa", complete, "--strict",
    ]) == (
        1, f"validation failed: question 'q{stray}' (at questions[{stray}]) names segment "
        "'scenario_003/action', which is not a scenario/phase of the caption ground truth\n",
    )
    # without --strict the segments are not checked
    assert cli.main(["score-all", *CAPTIONS, "--gt-vqa", gold, "--pred-vqa", complete,
                     "--format", "json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", ["fixture", "below two shares"])
def test_a_small_gold_file_scores_without_forking(monkeypatch, tmp_path, capsys, name):
    if name == "fixture":
        gold = os.path.join(FIXTURES, "vqa_gold.json")
        answers = os.path.join(FIXTURES, "vqa_pred.json")
    else:
        questions, answers = _questions(1_500)
        gold = _write(tmp_path / "gold.json", "questions", questions)
        answers = _write(tmp_path / "answers.json", "answers", answers)
        assert dataset_io.MIN_SHARE_BYTES < os.path.getsize(gold) < (
            2 * dataset_io.MIN_SHARE_BYTES
        )
    expected = accuracy(load_vqa_items(gold), load_vqa_predictions(answers))

    def no_fork():
        raise AssertionError("a small gold file forked")

    monkeypatch.setattr(forking, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers,
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["total"], report["correct"]) == (expected.total, expected.correct)


def test_a_share_that_raises_is_told_from_a_fault(split, bulk, monkeypatch):
    # an error the shares do not expect is not taken for a faulty file
    gold, answers = bulk
    split(2)

    def broken(*args):
        raise ZeroDivisionError

    monkeypatch.setattr(vqa_shares, "_question_hook", broken)
    with pytest.raises(ZeroDivisionError):
        vqa_shares.score_vqa_in_shares(gold, answers)
    _assert_no_child_left()


def test_unreadable_files_are_left_to_the_serial_path(tmp_path, split, bulk):
    gold, answers = bulk
    forks = split(2)
    missing = str(tmp_path / "missing.json")
    assert vqa_shares.score_vqa_in_shares(missing, answers) is None
    assert vqa_shares.score_vqa_in_shares(gold, missing) is None
    assert forks == []


def _layout(name: str) -> str:
    """A gold text around the same 4,000 questions, laid out to test a cut or the root."""
    questions, _ = _questions(4_000)
    compact = json.dumps({"questions": questions})
    if name == "indented":
        return json.dumps({"questions": questions}, indent=2)
    if name == "indented with CRLF":
        return json.dumps({"questions": questions}, indent=2).replace("\n", "\r\n")
    if name == "a question longer than a search window":
        questions[2_000]["question"] = "}, " * 100_000
        return json.dumps({"questions": questions})
    if name == "a long list of dicts before the questions":
        return json.dumps({"meta": [{"n": n} for n in range(40_000)], "questions": questions})
    if name == "members around the list":
        return json.dumps({
            "version": 1, "meta": {"questions": [1]}, "questions": questions,
            "note": [{"a": 1}, {"b": 2}],
        })
    if name == "cuts inside strings":
        return json.dumps({"questions": [dict(q, question="a}, {b") for q in questions]})
    if name == "a first list json.loads drops":
        return '{"questions": [1, 2], ' + compact[1:]
    if name == "a second, empty list":
        return compact[:-1] + ', "questions": []}'
    if name == "a byte order mark":
        return "\ufeff" + compact
    if name == "data after the root":
        return compact + " []"
    if name == "the root a list":
        return json.dumps([{"questions": questions}])
    assert name == "a value nested too deeply"
    questions[3_000]["meta"] = "deep"
    return json.dumps({"questions": questions}).replace('"deep"', "[" * 5_000 + "]" * 5_000)


LAYOUTS = [
    "indented", "indented with CRLF", "members around the list",
    "a question longer than a search window",
    "a long list of dicts before the questions", "cuts inside strings",
    "a first list json.loads drops", "a second, empty list", "a byte order mark",
    "data after the root", "the root a list", "a value nested too deeply",
]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_layout_scores_or_fails_as_one_process_does(
    split, tmp_path, capsys, cpus, layout
):
    gold = tmp_path / "gold.json"
    gold.write_text(_layout(layout), encoding="utf-8")
    answers = _write(tmp_path / "answers.json", "answers", _questions(4_000)[1])
    argv = ["score-vqa", "--gt-vqa", str(gold), "--pred-vqa", answers, "--format", "json"]
    split(1)
    serial = (cli.main(argv), *capsys.readouterr())
    forks = split(cpus)
    assert (cli.main(argv), *capsys.readouterr()) == serial
    if layout in (
        "indented", "indented with CRLF", "members around the list",
        "a question longer than a search window",
    ):
        # these the shares score themselves
        assert serial[0] == 0 and len(forks) == cpus - 1
        report = json.loads(serial[1])
        assert vqa_shares.score_vqa_in_shares(str(gold), answers)[:2] == (
            report["total"], report["correct"],
        )


@pytest.mark.parametrize("cpus", CPUS)
def test_bytes_that_are_not_utf8_in_the_last_share_give_the_serial_error(
    split, tmp_path, capsys, cpus
):
    gold, answers = _faulty(tmp_path, {3_900: _question(3_900, question="cafe?")})
    data = Path(gold).read_bytes()
    at = data.index(b"cafe?") + 3  # a Latin-1 e-acute where UTF-8 wants two bytes
    Path(gold).write_bytes(data.replace(b"cafe?", b"caf\xe9?"))
    forks = split(cpus)
    assert _errors_of(capsys, ["score-vqa", "--gt-vqa", gold, "--pred-vqa", answers]) == (
        2, f"error: {gold} is not valid UTF-8: invalid continuation byte (at byte {at})\n",
    )
    assert len(forks) == cpus - 1
