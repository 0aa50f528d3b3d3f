import gc
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import capvqa
from capvqa import cli, tokenize
from capvqa.dataset_io import PHASES, load_ground_truth, load_predictions
from capvqa.scoring import score_captions


def _fixture_args(fixtures_dir, *extra):
    return [
        "--gt-captions", str(fixtures_dir / "captions_gt.json"),
        "--pred-captions", str(fixtures_dir / "captions_pred.json"),
        *extra,
    ]


def _vqa_args(fixtures_dir):
    return [
        "--gt-vqa", str(fixtures_dir / "vqa_gold.json"),
        "--pred-vqa", str(fixtures_dir / "vqa_pred.json"),
    ]


def _score_all_args(fixtures_dir, *extra):
    return [
        "score-all",
        *_fixture_args(fixtures_dir),
        *_vqa_args(fixtures_dir),
        "--label", "toy",
        *extra,
    ]


def test_score_all_matches_markdown_golden(fixtures_dir, capsys):
    assert cli.main(_score_all_args(fixtures_dir, "--workers", "1")) == 0
    golden = (fixtures_dir / "golden" / "score_all_report.md").read_text()
    assert capsys.readouterr().out == golden


def test_score_all_matches_json_golden(fixtures_dir, capsys):
    assert cli.main(_score_all_args(fixtures_dir, "--workers", "2", "--format", "json")) == 0
    golden = (fixtures_dir / "golden" / "score_all_report.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


_GOLDEN_EXTENSIONS = {"markdown": "md", "csv": "csv", "json": "json"}


@pytest.mark.parametrize("format", sorted(_GOLDEN_EXTENSIONS))
@pytest.mark.parametrize("command", ["score-captions", "score-vqa", "score-all"])
def test_every_document_matches_its_byte_golden(fixtures_dir, capsys, command, format):
    argv = {
        "score-captions": ["score-captions", *_fixture_args(fixtures_dir)],
        "score-vqa": ["score-vqa", *_vqa_args(fixtures_dir)],
        "score-all": _score_all_args(fixtures_dir),
    }[command]
    assert cli.main([*argv, "--format", format]) == 0
    name = f"{command.replace('-', '_')}_report.{_GOLDEN_EXTENSIONS[format]}"
    golden = (fixtures_dir / "golden" / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _shuffled_fixture(fixtures_dir, out_dir, name, rng):
    """Copy a fixture file with every list it holds shuffled by `rng`."""
    doc = json.loads((fixtures_dir / name).read_text(encoding="utf-8"))
    for key in ("scenarios", "questions", "answers"):
        rng.shuffle(doc.get(key, []))
    for scenario in doc.get("scenarios", []):
        rng.shuffle(scenario["segments"])
    path = Path(out_dir) / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# `fixtures_dir` is a constant path, so sharing it across examples is safe
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(rng=st.randoms(use_true_random=False), format=st.sampled_from(sorted(_GOLDEN_EXTENSIONS)))
def test_score_all_never_depends_on_input_order(fixtures_dir, rng, format):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = ["score-all", "--label", "toy", "--format", format]
        for flag, name in (
            ("--gt-captions", "captions_gt.json"),
            ("--pred-captions", "captions_pred.json"),
            ("--gt-vqa", "vqa_gold.json"),
            ("--pred-vqa", "vqa_pred.json"),
        ):
            argv += [flag, _shuffled_fixture(fixtures_dir, out_dir, name, rng)]
        out = Path(out_dir) / "report"
        assert cli.main([*argv, "--output", str(out)]) == 0
        golden = fixtures_dir / "golden" / f"score_all_report.{_GOLDEN_EXTENSIONS[format]}"
        assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")


def test_worker_count_never_changes_output(fixtures_dir, capsys):
    outputs = []
    for workers in ("1", "2", "8"):
        assert cli.main(_score_all_args(fixtures_dir, "--workers", workers)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_split_means_match_brute_force(fixtures_dir, capsys):
    # recompute every split mean with the oracle implementations
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    pred = load_predictions(fixtures_dir / "captions_pred.json")
    pred_index = {
        (s.id, seg.phase): seg for s in pred.scenarios for seg in s.segments
    }
    expected = {}
    for split in ("internal", "external"):
        units = []
        for scenario in sorted(gt.scenarios, key=lambda s: s.id):
            if scenario.split != split:
                continue
            for segment in sorted(scenario.segments, key=lambda g: PHASES.index(g.phase)):
                predicted = pred_index[(scenario.id, segment.phase)]
                for perspective in ("pedestrian", "vehicle"):
                    units.append((
                        tokenize(getattr(predicted, f"{perspective}_caption")),
                        tokenize(getattr(segment, f"{perspective}_caption")),
                    ))
        reference_sets = [[ref] for _, ref in units]
        cider_scores = [
            score for _, score in oracles.cider_reference(
                [cand for cand, _ in units], reference_sets
            )
        ]
        expected[split] = {
            "bleu4": math.fsum(oracles.bleu4_reference(c, [r]) for c, r in units) / len(units),
            "meteor": math.fsum(oracles.meteor_reference(c, [r]) for c, r in units) / len(units),
            "rouge_l": math.fsum(oracles.rouge_l_reference(c, r) for c, r in units) / len(units),
            "cider": math.fsum(cider_scores) / len(units),
        }

    assert cli.main(_score_all_args(fixtures_dir, "--format", "json")) == 0
    got = json.loads(capsys.readouterr().out)
    for split in ("internal", "external"):
        for metric, want in expected[split].items():
            assert got[split][metric] == pytest.approx(want, abs=1e-9)


def test_identity_submission_hits_metric_ceilings(fixtures_dir):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    scores = score_captions(gt, gt)  # a prediction's split is never read
    for split_scores in (scores.internal, scores.external):
        assert split_scores.bleu4 == 1.0
        assert split_scores.rouge_l == 1.0
        assert split_scores.cider == pytest.approx(10.0, abs=1e-9)
    # identity unigram alignments are one chunk, so the ceiling is 1 - 0.5/L^3
    for segment in scores.segments:
        assert 0.9 < segment.meteor < 1.0


def test_identity_submission_with_perfect_vqa(tmp_path, fixtures_dir, capsys):
    gt = load_ground_truth(fixtures_dir / "captions_gt.json")
    doc = oracles.scenario_set_to_dict(gt)
    for scenario in doc["scenarios"]:
        del scenario["split"]
    pred_path = tmp_path / "identity.json"
    pred_path.write_text(json.dumps(doc), encoding="utf-8")

    code = cli.main([
        "score-all",
        "--gt-captions", str(fixtures_dir / "captions_gt.json"),
        "--pred-captions", str(pred_path),
        "--acc", "1.0",
        "--format", "json",
    ])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["internal"]["bleu4"] == 1.0
    assert got["external"]["rouge_l"] == 1.0
    assert got["s2"] == pytest.approx((got["cap_score"] + 1.0) / 2, abs=1e-12)


def test_strict_mode_missing_segment_exits_1(tmp_path, fixtures_dir, capsys):
    doc = json.loads((fixtures_dir / "captions_pred.json").read_text())
    dropped = doc["scenarios"][1]["segments"].pop(0)
    pred_path = tmp_path / "partial.json"
    pred_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "score-captions",
        "--gt-captions", str(fixtures_dir / "captions_gt.json"),
        "--pred-captions", str(pred_path),
        "--strict",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "scenario_002" in err and dropped["phase"] in err


def test_strict_caption_failure_is_one_line(tmp_path, fixtures_dir, capsys):
    pred_path = tmp_path / "empty.json"
    pred_path.write_text('{"scenarios": []}', encoding="utf-8")
    argv = ["--gt-captions", str(fixtures_dir / "captions_gt.json"), "--pred-captions"]
    assert cli.main(["score-captions", *argv, str(pred_path), "--strict"]) == 1
    assert capsys.readouterr().err == (
        "validation failed: 10 missing and 0 extra segment(s), "
        "first missing: scenario_001/action\n"
    )
    # `validate` still lists every segment on stdout
    assert cli.main(["validate", *argv, str(pred_path)]) == 1
    assert capsys.readouterr().out.count("missing: ") == 10


def test_non_strict_scores_partial_submission(tmp_path, fixtures_dir, capsys):
    doc = json.loads((fixtures_dir / "captions_pred.json").read_text())
    doc["scenarios"][1]["segments"].pop(0)
    pred_path = tmp_path / "partial.json"
    pred_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "score-captions",
        "--gt-captions", str(fixtures_dir / "captions_gt.json"),
        "--pred-captions", str(pred_path),
    ])
    assert code == 0
    assert "external" in capsys.readouterr().out


def test_duplicate_vqa_prediction_id_exits_2(tmp_path, fixtures_dir, capsys):
    doc = json.loads((fixtures_dir / "vqa_pred.json").read_text())
    doc["answers"].append(dict(doc["answers"][0]))
    pred_path = tmp_path / "dupes.json"
    pred_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "score-vqa",
        "--gt-vqa", str(fixtures_dir / "vqa_gold.json"),
        "--pred-vqa", str(pred_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "duplicate prediction id" in err
    # the repeat is the last answer, after the fixture's own
    assert f"(at answers[{len(doc['answers']) - 1}])" in err


def test_vqa_strict_missing_exits_1(tmp_path, fixtures_dir, capsys):
    doc = json.loads((fixtures_dir / "vqa_pred.json").read_text())
    doc["answers"].pop()
    pred_path = tmp_path / "partial.json"
    pred_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "score-vqa",
        "--gt-vqa", str(fixtures_dir / "vqa_gold.json"),
        "--pred-vqa", str(pred_path),
        "--strict",
    ])
    assert code == 1
    assert "q5" in capsys.readouterr().err


def test_vqa_strict_names_hundreds_of_missing_ids_on_one_short_line(tmp_path, capsys):
    questions = [
        {"id": f"q{i:03d}", "segment": "s/action", "question": "?",
         "options": ["yes", "no"], "correct": 0}
        for i in range(400)
    ]
    gold_path = tmp_path / "gold.json"
    gold_path.write_text(json.dumps({"questions": questions}), encoding="utf-8")
    pred_path = tmp_path / "pred.json"
    pred_path.write_text('{"answers": [{"id": "q000", "raw": "A"}]}', encoding="utf-8")
    code = cli.main([
        "score-vqa", "--gt-vqa", str(gold_path), "--pred-vqa", str(pred_path), "--strict",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        "validation failed: 399 item(s) have no prediction: "
        "q001, q002, q003, q004, q005 and 394 more\n"
    )
    assert len(err) < 120


def test_score_vqa_fixture(fixtures_dir, capsys):
    code = cli.main(["score-vqa", *_vqa_args(fixtures_dir), "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "total": 5, "correct": 4, "acc": 0.8,
    }


def test_acc_override_skips_vqa_files(fixtures_dir, capsys):
    code = cli.main([
        "score-all", *_fixture_args(fixtures_dir), "--acc", "1.0", "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["acc"] == 1.0


def test_acc_override_out_of_range_exits_2(fixtures_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["score-all", *_fixture_args(fixtures_dir), "--acc", "1.5"])
    assert exit_info.value.code == 2
    assert "acc" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, rule",
    [
        pytest.param("--acc", "nan", "acc must be a fraction in [0, 1]", id="nan"),
        pytest.param("--acc", "2", "acc must be a fraction in [0, 1]", id="2"),
        pytest.param("--meteor-beta", "0", "beta must be a finite number > 0", id="meteor-beta"),
        pytest.param("--meteor-gamma", "2", "gamma must be in [0, 1]", id="meteor-gamma"),
        pytest.param(
            "--cider-scale", "0", "cider_scale must be a number > 0 and at most 1e+300",
            id="cider-scale",
        ),
        pytest.param(
            "--cider-length-penalty-sigma", "1e-200",
            "cider_length_penalty_sigma must be a number > 0 whose square is finite and > 0",
            id="cider-length-penalty-sigma",
        ),
    ],
)
def test_acc_override_checked_before_inputs_are_read(tmp_path, capsys, flag, value, rule):
    # every scoring flag is checked while parsing, so a bad one wins over missing files
    with pytest.raises(SystemExit) as exit_info:
        cli.main([
            "score-all",
            "--gt-captions", str(tmp_path / "missing.json"),
            "--pred-captions", str(tmp_path / "missing.json"),
            flag, value,
        ])
    assert exit_info.value.code == 2
    assert _stderr_line(capsys) == (
        f"capvqa score-all: error: argument {flag}: {rule}, got {float(value)!r}\n"
    )


def test_score_all_without_vqa_inputs_exits_2(fixtures_dir, capsys):
    assert cli.main(["score-all", *_fixture_args(fixtures_dir)]) == 2
    assert "--acc" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, fixtures_dir, capsys):
    code = cli.main(["validate", *_fixture_args(fixtures_dir)])
    assert code == 0
    assert "complete" in capsys.readouterr().out

    doc = json.loads((fixtures_dir / "captions_pred.json").read_text())
    doc["scenarios"].pop()
    pred_path = tmp_path / "partial.json"
    pred_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "validate",
        "--gt-captions", str(fixtures_dir / "captions_gt.json"),
        "--pred-captions", str(pred_path),
    ])
    assert code == 1
    assert "missing: scenario_002" in capsys.readouterr().out


def test_validate_checks_vqa_segments(tmp_path, fixtures_dir, capsys):
    argv = ["validate", *_fixture_args(fixtures_dir), "--gt-vqa"]
    assert cli.main([*argv, str(fixtures_dir / "vqa_gold.json")]) == 0
    assert capsys.readouterr() == ("submission is complete and well-formed\n", "")
    doc = json.loads((fixtures_dir / "vqa_gold.json").read_text())
    doc["questions"][2]["segment"] = "scenario_001/nope"
    doc["questions"][4]["segment"] = "nope/action"
    gold_path = tmp_path / "gold.json"
    gold_path.write_text(json.dumps(doc), encoding="utf-8")
    failure = (
        "validation failed: question 'q3' (at questions[2]) names segment "
        "'scenario_001/nope', which is not a scenario/phase of the caption ground truth\n"
    )
    assert cli.main([*argv, str(gold_path)]) == 1
    # the caption diff still prints, and the failure is score-all --strict's
    assert capsys.readouterr() == ("submission is complete and well-formed\n", failure)
    strict = _score_all_args(fixtures_dir, "--strict")
    strict[strict.index("--gt-vqa") + 1] = str(gold_path)
    assert cli.main(strict) == 1
    assert capsys.readouterr() == ("", failure)


def test_validate_with_a_bad_vqa_file_exits_2_before_printing(tmp_path, fixtures_dir, capsys):
    gold_path = tmp_path / "gold.json"
    gold_path.write_text('{"questions": [3]}', encoding="utf-8")
    argv = ["validate", *_fixture_args(fixtures_dir), "--gt-vqa", str(gold_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: expected dict, got int (at questions[0])\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_gc_and_leaves_it_as_it_found_it(
    tmp_path, fixtures_dir, capsys, monkeypatch, enabled
):
    states = []
    count_correct = cli.vqa._count_correct
    monkeypatch.setattr(
        cli.vqa, "_count_correct",
        lambda *args: states.append(gc.isenabled()) or count_correct(*args),
    )
    bad = tmp_path / "gold.json"
    bad.write_text('{"questions": [3]}', encoding="utf-8")
    failing = _score_all_args(fixtures_dir)
    failing[failing.index("--gt-vqa") + 1] = str(bad)
    try:
        for argv, code in ((_score_all_args(fixtures_dir), 0), (failing, 2)):
            gc.enable() if enabled else gc.disable()
            assert cli.main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert states == [False]
    capsys.readouterr()


def test_a_gold_file_colliding_past_its_first_block_exits_2_before_answers_are_read(
    tmp_path, fixtures_dir, capsys
):
    block = 4096
    records = [
        {"id": f"q{i}", "segment": "scenario_001/action", "question": "?",
         "options": [f"Option {i}.", f"other {i}"], "correct": 0}
        for i in range(2 * block + 10)
    ]
    records[block + 5]["options"] = ["A b", "a, b!"]
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps({"questions": records}), encoding="utf-8")
    message = (
        f"error: question 'q{block + 5}' has options that collide after normalization "
        f"(at questions[{block + 5}])\n"
    )
    assert cli.main(["validate", *_fixture_args(fixtures_dir), "--gt-vqa", str(gold)]) == 2
    assert capsys.readouterr() == ("", message)
    unread = ["score-vqa", "--gt-vqa", str(gold), "--pred-vqa", str(tmp_path / "missing.json")]
    assert cli.main(unread) == 2
    assert capsys.readouterr() == ("", message)


def test_schema_error_exits_2(tmp_path, fixtures_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenarios": [{"id": "s1"}]}', encoding="utf-8")
    code = cli.main([
        "score-captions",
        "--gt-captions", str(bad),
        "--pred-captions", str(fixtures_dir / "captions_pred.json"),
    ])
    assert code == 2
    assert "missing field" in capsys.readouterr().err


def test_zero_workers_exits_2(fixtures_dir, capsys):
    assert cli.main(_score_all_args(fixtures_dir, "--workers", "0")) == 2
    assert "worker count" in capsys.readouterr().err


def test_workers_env_variable_is_not_read(fixtures_dir, capsys, monkeypatch):
    monkeypatch.setenv("CAPVQA_WORKERS", "abc")
    assert cli.main(_score_all_args(fixtures_dir)) == 0
    golden = (fixtures_dir / "golden" / "score_all_report.md").read_text()
    assert capsys.readouterr().out == golden


_CIDER_FLAG_ERRORS = {
    ("--cider-length-penalty-sigma", "0"):
        "cider_length_penalty_sigma must be a number > 0 whose square is finite and > 0, got 0.0",
    ("--cider-length-penalty-sigma", "-2"):
        "cider_length_penalty_sigma must be a number > 0 whose square is finite and > 0, got -2.0",
    ("--cider-length-penalty-sigma", "inf"):
        "cider_length_penalty_sigma must be a number > 0 whose square is finite and > 0, got inf",
    ("--cider-scale", "nan"): "cider_scale must be a number > 0 and at most 1e+300, got nan",
    ("--cider-scale", "0"): "cider_scale must be a number > 0 and at most 1e+300, got 0.0",
    ("--cider-scale", "ten"): "invalid float value: 'ten'",
}


@pytest.mark.parametrize("flag, value", list(_CIDER_FLAG_ERRORS))
def test_cider_flags_must_be_finite_and_positive(fixtures_dir, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(_score_all_args(fixtures_dir, flag, value))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"capvqa score-all: error: argument {flag}: {_CIDER_FLAG_ERRORS[flag, value]}\n"
    )
    assert "Traceback" not in captured.err


def test_output_flag_writes_file(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "report.md"
    assert cli.main(_score_all_args(fixtures_dir, "--output", str(out))) == 0
    assert capsys.readouterr().out == ""
    golden = (fixtures_dir / "golden" / "score_all_report.md").read_text()
    assert out.read_text(encoding="utf-8") == golden


def test_no_subcommand_exits_2(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_boolean_correct_exits_2(tmp_path, fixtures_dir, capsys):
    doc = json.loads((fixtures_dir / "vqa_gold.json").read_text())
    doc["questions"][0]["correct"] = True
    gold_path = tmp_path / "bool_gold.json"
    gold_path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "score-vqa",
        "--gt-vqa", str(gold_path),
        "--pred-vqa", str(fixtures_dir / "vqa_pred.json"),
    ])
    assert code == 2
    assert "expected int, got bool (at questions[0].correct)" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--gt-captions", "--pred-captions", "--gt-vqa", "--pred-vqa"])
def test_deeply_nested_input_exits_2(tmp_path, fixtures_dir, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    args = _score_all_args(fixtures_dir)
    args[args.index(flag) + 1] = str(deep)
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: {deep} is nested too deeply to parse\n"


@pytest.mark.parametrize("flag", ["--gt-captions", "--pred-captions", "--gt-vqa", "--pred-vqa"])
def test_invalid_utf8_input_names_the_file(tmp_path, fixtures_dir, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"answers": "\xff"}')
    args = _score_all_args(fixtures_dir)
    args[args.index(flag) + 1] = str(bad)
    assert cli.main(args) == 2
    assert _stderr_line(capsys) == (
        f"error: {bad} is not valid UTF-8: invalid start byte (at byte 13)\n"
    )


@pytest.mark.parametrize("flag", ["--gt-captions", "--pred-captions", "--gt-vqa", "--pred-vqa"])
def test_integer_past_the_digit_limit_names_the_file(tmp_path, fixtures_dir, capsys, flag):
    huge = tmp_path / "huge.json"
    huge.write_text('{"scenarios": ' + "7" * 5000 + "}", encoding="utf-8")
    args = _score_all_args(fixtures_dir)
    args[args.index(flag) + 1] = str(huge)
    assert cli.main(args) == 2
    assert _stderr_line(capsys).startswith(
        f"error: {huge} holds a number that cannot be parsed: "
    )


def _internal_only_ground_truth(tmp_path, fixtures_dir) -> Path:
    doc = json.loads((fixtures_dir / "captions_gt.json").read_text())
    for scenario in doc["scenarios"]:
        scenario["split"] = "internal"
    path = tmp_path / "internal_gt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_mean_aggregation_rejects_an_empty_split(tmp_path, fixtures_dir, capsys):
    argv = _score_all_args(fixtures_dir)
    argv[argv.index("--gt-captions") + 1] = str(_internal_only_ground_truth(tmp_path, fixtures_dir))
    assert cli.main(argv) == 2
    assert _stderr_line(capsys) == (
        "error: split 'external' has no segments, so mean aggregation would average it "
        "in as 0; use segment-weighted aggregation\n"
    )
    assert cli.main([*argv, "--aggregation", "segment-weighted", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["external"]["segments"] == 0
    assert got["aggregated"]["bleu4"] == got["internal"]["bleu4"]


def test_strict_score_all_checks_vqa_segments(tmp_path, fixtures_dir, capsys):
    golden = (fixtures_dir / "golden" / "score_all_report.md").read_text()
    assert cli.main(_score_all_args(fixtures_dir, "--strict")) == 0
    assert capsys.readouterr().out == golden
    doc = json.loads((fixtures_dir / "vqa_gold.json").read_text())
    doc["questions"][1]["segment"] = "nope/action"
    doc["questions"][3]["segment"] = "scenario_001/nope"
    gold_path = tmp_path / "gold.json"
    gold_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = _score_all_args(fixtures_dir)
    argv[argv.index("--gt-vqa") + 1] = str(gold_path)
    assert cli.main([*argv, "--strict"]) == 1
    assert capsys.readouterr().err == (
        "validation failed: question 'q2' (at questions[1]) names segment 'nope/action', "
        "which is not a scenario/phase of the caption ground truth\n"
    )
    # without --strict the segment ids are not checked, and the report is unchanged
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == golden


def test_cli_import_leaves_numpy_unloaded():
    # scoring never needs numpy; forked scoring sends raw floats, so no
    # pickling or process pool is imported either
    code = (
        "import sys, capvqa.cli\n"
        "for name in ('numpy', 'pickle', 'multiprocessing', 'concurrent.futures'):\n"
        "    assert name not in sys.modules, name + ' imported'\n"
    )
    src = str(Path(capvqa.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def _stderr_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["score-captions", "--gt-captions", "g", "--pred-captions", "p", "--cider-scale", "nan"],
            "capvqa score-captions: error: argument --cider-scale: "
            "cider_scale must be a number > 0 and at most 1e+300, got nan\n",
        ),
        (
            ["score-vqa", "--gt-vqa", "gold.json"],
            "capvqa score-vqa: error: the following arguments are required: --pred-vqa\n",
        ),
        (
            ["score-captions", "--workers", "two"],
            "capvqa score-captions: error: argument --workers: invalid int value: 'two'\n",
        ),
        # argparse's wording of the choices differs between Python versions
        (["score-everything"], "capvqa: error: argument command: invalid choice: 'score-everything'"),
    ],
)
def test_argument_rejections_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert _stderr_line(capsys).startswith(message)


_METEOR_RULES = {
    "--meteor-alpha": "alpha must be in (0, 1)",
    "--meteor-beta": "beta must be a finite number > 0",
    "--meteor-gamma": "gamma must be in [0, 1]",
}


@pytest.mark.parametrize("flag", list(_METEOR_RULES))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "high"])
def test_meteor_flags_must_be_finite(fixtures_dir, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(_score_all_args(fixtures_dir, "--format", "json", f"{flag}={value}"))
    assert exit_info.value.code == 2
    expected = "invalid float value: 'high'" if value == "high" else (
        f"{_METEOR_RULES[flag]}, got {value}"
    )
    assert _stderr_line(capsys) == f"capvqa score-all: error: argument {flag}: {expected}\n"


def test_meteor_beta_out_of_range_exits_2(fixtures_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(_score_all_args(fixtures_dir, "--meteor-beta", "0"))
    assert exit_info.value.code == 2
    assert _stderr_line(capsys) == (
        "capvqa score-all: error: argument --meteor-beta: beta must be a finite number > 0, "
        "got 0.0\n"
    )


def test_ground_truth_without_scenarios_exits_2(tmp_path, fixtures_dir, capsys):
    gt_path = tmp_path / "empty_gt.json"
    gt_path.write_text(json.dumps({"scenarios": []}), encoding="utf-8")
    argv = _score_all_args(fixtures_dir)
    argv[argv.index("--gt-captions") + 1] = str(gt_path)
    assert cli.main(argv) == 2
    assert _stderr_line(capsys) == "error: ground truth has no scenarios to score\n"


@pytest.mark.parametrize("value", ["1e-200", "1e200"])
def test_length_penalty_sigma_whose_square_is_not_finite_and_positive_exits_2(
    fixtures_dir, capsys, value
):
    # 1e-200 squares to 0 and divided by it; 1e200 overflowed when squared
    with pytest.raises(SystemExit) as exit_info:
        cli.main(_score_all_args(fixtures_dir, "--cider-length-penalty-sigma", value))
    assert exit_info.value.code == 2
    assert _stderr_line(capsys) == (
        "capvqa score-all: error: argument --cider-length-penalty-sigma: "
        "cider_length_penalty_sigma must be a number > 0 whose square is finite and > 0, "
        f"got {float(value)!r}\n"
    )


@pytest.mark.parametrize("value", ["1e308", "5e307"])
@pytest.mark.parametrize("format", sorted(_GOLDEN_EXTENSIONS))
def test_cider_scale_too_large_for_finite_means_exits_2(fixtures_dir, capsys, value, format):
    # 1e308 printed inf (and Infinity in json); 5e307 overflowed a split mean
    with pytest.raises(SystemExit) as exit_info:
        cli.main(_score_all_args(fixtures_dir, "--format", format, "--cider-scale", value))
    assert exit_info.value.code == 2
    assert _stderr_line(capsys) == (
        "capvqa score-all: error: argument --cider-scale: "
        f"cider_scale must be a number > 0 and at most 1e+300, got {float(value)!r}\n"
    )


def test_cider_scale_at_its_bound_gives_a_finite_report(fixtures_dir, capsys):
    assert cli.main(_score_all_args(fixtures_dir, "--format", "json", "--cider-scale", "1e300")) == 0
    document = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert math.isfinite(document["percent"]["s2"])
