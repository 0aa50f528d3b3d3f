"""The `capvqa` command run as its own process, as a user or a CI job runs it.

Each test starts `python -m capvqa.cli`, the module the installed console
script calls, with the package's sources on its path.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import capvqa
from capvqa import scoring, vqa, vqa_shares
from capvqa.dataset_io import PHASES, SPLITS, load_vqa_items, load_vqa_predictions

_SRC = str(Path(capvqa.__file__).resolve().parent.parent)
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=_ENV, timeout=120, **kwargs
    )


def _input_flags(gt_captions, pred_captions, gt_vqa, pred_vqa) -> list[str]:
    return [
        "--gt-captions", str(gt_captions), "--pred-captions", str(pred_captions),
        "--gt-vqa", str(gt_vqa), "--pred-vqa", str(pred_vqa),
    ]


def _fixture_flags(fixtures_dir) -> list[str]:
    return _input_flags(*(fixtures_dir / name for name in (
        "captions_gt.json", "captions_pred.json", "vqa_gold.json", "vqa_pred.json"
    )))


def test_neither_import_nor_score_all_loads_dataclasses_or_inspect(fixtures_dir):
    # their import alone took about 11 ms of every start
    bare = _python("-c", "import sys; print(*sorted(sys.modules))")
    probe = _python("-c", (
        "import os, sys\n"
        "import capvqa.cli\n"
        "print(*sorted(sys.modules))\n"
        f"code = capvqa.cli.main({['score-all', *_fixture_flags(fixtures_dir)]!r}"
        " + ['--output', os.devnull])\n"
        "print(*sorted(sys.modules))\n"
        "sys.exit(code)\n"
    ))
    assert probe.returncode == 0, probe.stderr.decode()
    baseline = set(bare.stdout.decode().split())
    imported, scored = (set(line.split()) for line in probe.stdout.decode().splitlines())
    assert "capvqa.cli" in imported and "capvqa.cli" not in baseline
    # the VQA shares are compiled only by a run that scores a VQA pair
    assert "capvqa.vqa_shares" not in imported and "capvqa.vqa_shares" in scored
    for loaded in (imported, scored):
        assert not {"dataclasses", "inspect"} & (loaded - baseline)
    # only `vqa.accuracy` builds a Fraction; `fractions` loads `decimal`, 3.5 ms
    assert not {"fractions", "decimal"} & (imported - baseline)


@pytest.mark.parametrize(
    "format, extension", [("markdown", "md"), ("csv", "csv"), ("json", "json")]
)
@pytest.mark.parametrize("command", ["score-captions", "score-vqa", "score-all"])
def test_console_prints_every_byte_golden(fixtures_dir, command, format, extension):
    # the CI step "the installed capvqa command prints the nine byte goldens"
    flags = _fixture_flags(fixtures_dir)
    captions, vqa_files = flags[:4], flags[4:]  # the --*-captions, then the --*-vqa flags
    flags = {
        "score-captions": captions, "score-vqa": vqa_files, "score-all": [*flags, "--label", "toy"]
    }[command]
    result = _python("-m", "capvqa.cli", command, *flags, "--format", format)
    assert result.returncode == 0, result.stderr.decode()
    golden = fixtures_dir / "golden" / f"{command.replace('-', '_')}_report.{extension}"
    assert result.stdout == golden.read_bytes()


def test_package_imports_and_scores_with_numpy_blocked(fixtures_dir):
    # The scorer depends on the standard library only: with every numpy
    # import failing, the package, its star import and the command line load,
    # `__all__` names exactly the package's public non-module attributes, and
    # score-all runs.
    result = _python("-c", (
        "import os, sys, types\n"
        "class BlockNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            raise ImportError('numpy is blocked')\n"
        "sys.meta_path.insert(0, BlockNumpy())\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('numpy imported')\n"
        "import capvqa\n"
        "from capvqa import *\n"
        "import capvqa.cli\n"
        "assert all(name in globals() for name in capvqa.__all__)\n"
        "public = sorted(name for name, value in vars(capvqa).items()\n"
        "                if not name.startswith('_') and not isinstance(value, types.ModuleType))\n"
        "assert sorted(capvqa.__all__) == public, set(capvqa.__all__) ^ set(public)\n"
        f"code = capvqa.cli.main({['score-all', *_fixture_flags(fixtures_dir)]!r}"
        " + ['--output', os.devnull])\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.exit(code)\n"
    ))
    assert result.returncode == 0, result.stderr.decode()


def test_console_bad_flag_exits_2_with_one_line_before_reading_inputs(tmp_path):
    result = _python(
        "-m", "capvqa.cli", "score-all", "--gt-captions", "missing.json",
        "--pred-captions", "missing.json", "--meteor-beta", "0", cwd=tmp_path,
    )
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.count(b"\n") == 1 and b"argument --meteor-beta" in result.stderr


_WORDS = [f"w{index}" for index in range(300)]


def _caption(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(5, 30))]
    return " ".join(words).capitalize() + rng.choice([".", "!", ""])


def _write_corpus(directory: Path, scenarios: int, questions: int, rng: random.Random) -> list:
    """The four input files of a seeded corpus, every answer rule in the mix."""
    gt, pred = [], []
    for index in range(scenarios):
        segments = [
            {"phase": phase, "pedestrian_caption": _caption(rng), "vehicle_caption": _caption(rng)}
            for phase in PHASES
        ]
        gt.append({"id": f"s{index}", "split": ("internal", "external")[index % 2],
                   "segments": segments})
        predicted = [
            {**segment, "vehicle_caption": _caption(rng)}
            for segment in segments if rng.random() < 0.9
        ]
        pred.append({"id": f"s{index}", "segments": predicted})
    items, answers = [], []
    for index in range(questions):
        # a distinct first word per option keeps the options apart after normalization
        options = [f"{word} {rng.choice(_WORDS)}" for word in rng.sample(_WORDS, 4)]
        gold, pick = rng.randrange(4), rng.randrange(4)
        items.append({"id": f"q{index}", "segment": f"s{index % scenarios}/action",
                      "question": "Which?", "options": options, "correct": gold})
        raw = rng.choice([
            "ABCD"[pick], f"{'abcd'[pick]}) {options[pick]}", options[pick].upper(),
            f"I think {options[pick]}.", f"{options[0]} or {options[1]}", "no idea", None,
        ])
        if raw is not None:
            answers.append({"id": f"q{index}", "raw": raw})
    paths = []
    for name, doc in (
        ("gt_captions.json", {"scenarios": gt}), ("pred_captions.json", {"scenarios": pred}),
        ("gt_vqa.json", {"questions": items}), ("pred_vqa.json", {"answers": answers}),
    ):
        paths.append(directory / name)
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    return paths


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="scoring forks only with two or more CPUs",
)
def test_forked_and_one_cpu_runs_print_the_same_bytes(tmp_path):
    # the CI step "forked and single-CPU scoring print the same bytes"
    scenarios, questions = 16, 2 * vqa.MIN_CHUNK_ANSWERS + 100
    # on two CPUs caption scoring cuts two chunks and the VQA gold file two
    # shares, so both fork; on one CPU the gold file is one share
    units = scenarios * len(PHASES) * len(scoring.PERSPECTIVES)
    assert units >= 2 * scoring.MIN_CHUNK_UNITS
    files = _write_corpus(tmp_path, scenarios, questions, random.Random(20))
    assert os.path.getsize(files[2]) >= 2 * vqa_shares.MIN_SHARE_BYTES
    flags = _input_flags(*files)
    reports = []
    for command, command_flags in (
        ("score-all", flags), ("score-captions", flags[:4]), ("score-vqa", flags[4:])
    ):
        argv = ["-m", "capvqa.cli", command, *command_flags, "--format", "json"]
        every_cpu = _python(*argv)
        one_cpu = _python(
            *argv, preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        )
        assert every_cpu.returncode == one_cpu.returncode == 0, every_cpu.stderr + one_cpu.stderr
        assert every_cpu.stdout == one_cpu.stdout
        reports.append(json.loads(every_cpu.stdout))
    all_report, captions_report, vqa_report = reports
    assert 0.0 < all_report["acc"] < 1.0 and all_report["internal"]["segments"] > 0
    assert captions_report == [{"split": split, **all_report[split]} for split in SPLITS]
    # the shares agree with the library's loaders and accuracy
    expected = vqa.accuracy(load_vqa_items(files[2]), load_vqa_predictions(files[3]))
    assert (vqa_report["total"], vqa_report["correct"]) == (expected.total, expected.correct)


_RUN_PY = Path(_SRC).parent / "perfbench" / "run.py"


@pytest.mark.skipif(not _RUN_PY.is_file(), reason="needs the benchmark beside the sources")
def test_benchmark_run_checks_its_own_output():
    # The CI step "benchmark runs check their own output", on the heaviest
    # workload: its --trace 0 run compares every score-all report with the
    # in-process library result and counts each comparison.
    result = _python(
        str(_RUN_PY), "--workload", "vqa-bulk", "--seed", "1", "--seconds", "0", "--trace", "0",
        cwd=_RUN_PY.parent.parent,
    )
    assert result.returncode == 0, result.stderr.decode()
    last = json.loads(result.stdout.decode().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
