"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Expected values are pinned from the brute-force reference
implementations in oracles.py, which were written before the package.
"""

import json
import math
import random
import time

import pytest

import oracles
from capvqa import cli
from capvqa.bleu import bleu4
from capvqa.cider import cider, compute_idf
from capvqa.composite import FinalScore, cap_score, s2
from capvqa.composite import SplitScores
from capvqa.meteor import align, meteor
from capvqa.report import ResultRow, rank_leaderboard, render_table
from capvqa.rouge import lcs_length, rouge_l
from capvqa.vqa import VqaItem, VqaPrediction, accuracy, normalize_answer


def _passed(line: str):
    print(f"ACCEPTANCE PASS: {line}")


def test_bleu_oracle():
    started = time.perf_counter()
    cand = "the cat sat on mat".split()
    ref = "the cat sat on the mat".split()
    result = bleu4(cand, [ref])
    # breakdown as hand-derived: p = (1, 3/4, 2/3, 1/2), BP = exp(-0.2)
    assert result.precisions == (1.0, 3 / 4, 2 / 3, 1 / 2)
    assert result.brevity_penalty == pytest.approx(math.exp(-0.2), abs=1e-12)
    expected = oracles.bleu4_reference(cand, [ref])  # 0.5789300674674098
    assert result.score == pytest.approx(expected, abs=1e-6)

    identity = "the car stopped at the red light".split()
    assert bleu4(identity, [identity]).score == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(f"BLEU hand example {result.score:.9f} (oracle {expected:.9f}), "
            f"identity 1.0, {elapsed * 1000:.0f} ms")


def test_meteor_oracle():
    cases = [
        ("the cat sat", "the cat sat", 53 / 54),      # approx 0.9814815
        ("cat the sat", "the cat sat", 0.5),
        ("a red car", "the red car", 0.625),
    ]
    for cand, ref, expected in cases:
        got = meteor(cand.split(), [ref.split()]).score
        assert got == pytest.approx(expected, abs=1e-9)

    rng = random.Random(20250808)
    checked = 0
    for _ in range(1000):
        cand = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        ref = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        result = align(cand, ref)
        assert (result.matches, result.chunks) == oracles.best_alignment_brute_force(cand, ref)
        checked += 1
    _passed(f"METEOR examples (0.981481481, 0.5, 0.625) and {checked} "
            "exhaustive alignment cases")


def test_rouge_oracle():
    cand = "police car on road".split()
    ref = "police car stopped on the road".split()
    assert rouge_l(cand, ref).score == pytest.approx(26 / 35, abs=1e-9)

    rng = random.Random(424242)
    checked = 0
    for _ in range(1000):
        x = [rng.choice("abc") for _ in range(rng.randint(0, 10))]
        y = [rng.choice("abc") for _ in range(rng.randint(0, 10))]
        assert lcs_length(x, y) == oracles.lcs_brute_force(x, y)
        checked += 1
    _passed(f"ROUGE-L 26/35 example and {checked} brute-force LCS cases")


def test_cider_oracle(fixtures_dir):
    corpus = json.loads((fixtures_dir / "cider_corpus.json").read_text())["segments"]
    golden = json.loads((fixtures_dir / "golden" / "cider_scores.json").read_text())
    candidates = [entry["candidate"].split() for entry in corpus]
    reference_sets = [[r.split() for r in entry["references"]] for entry in corpus]
    idf = compute_idf(reference_sets)
    for cand, refs, expected in zip(candidates, reference_sets, golden["segments"]):
        result = cider(cand, refs, idf, scale=golden["scale"])
        assert result.score == pytest.approx(expected["score"], abs=1e-9)

    single = [["the", "cat", "sat"]]
    assert cider(single[0], single, compute_idf([single])).score == 0.0

    rng = random.Random(515151)
    for _ in range(30):
        reference_sets = [
            [[rng.choice("abcd") for _ in range(rng.randint(1, 10))]
             for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 5))
        ]
        idf = compute_idf(reference_sets)
        for refs in reference_sets:
            cand = [rng.choice("abcd") for _ in range(rng.randint(0, 10))]
            for value in cider(cand, refs, idf).per_n:
                assert -1e-12 <= value <= 1.0 + 1e-12
    _passed("CIDEr fixture matches pre-built brute-force golden to 1e-9; "
            "single-document corpus scores 0; per-order cosines stay in [0, 1]")


def test_vqa_oracle(tmp_path, fixtures_dir, capsys):
    options = ["The pedestrian was crossing", "The vehicle stopped", "Nothing", "Unclear"]
    assert normalize_answer("B", options) == 1
    assert normalize_answer("A. The pedestrian was crossing", options) == 0
    assert normalize_answer("the vehicle stopped", options) == 1

    rng = random.Random(616161)
    for _ in range(100):
        n = rng.randint(1, 40)
        items = [
            VqaItem(id=f"q{i}", segment_id="s", question="?",
                    options=["alpha", "bravo", "charlie"], gold=rng.randrange(3))
            for i in range(n)
        ]
        predictions = [
            VqaPrediction(id=f"q{i}", raw=rng.choice(["A", "B", "C", "??"]))
            for i in range(n)
        ]
        result = accuracy(items, predictions)
        assert result.acc * result.total == result.correct

    dupes = tmp_path / "dupes.json"
    doc = json.loads((fixtures_dir / "vqa_pred.json").read_text())
    doc["answers"].append(dict(doc["answers"][0]))
    dupes.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "score-vqa", "--gt-vqa", str(fixtures_dir / "vqa_gold.json"),
        "--pred-vqa", str(dupes),
    ])
    assert code == 2

    partial = tmp_path / "partial.json"
    doc = json.loads((fixtures_dir / "vqa_pred.json").read_text())
    doc["answers"].pop()
    partial.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([
        "score-vqa", "--gt-vqa", str(fixtures_dir / "vqa_gold.json"),
        "--pred-vqa", str(partial), "--strict",
    ])
    assert code == 1
    capsys.readouterr()
    _passed("VQA exact rational accuracy, answer-normalization examples, "
            "duplicate-id exit 2, strict-missing exit 1")


def test_composite():
    assert cap_score(0.2569, 0.4528, 0.4512, 1.1001) == 0.56525
    assert s2(0.4, 0.6).s2 == 0.5
    final = FinalScore(cap_score=0.56525, acc=0.607980, s2=0.586615)
    percent = final.as_percent()
    assert percent["cap_score"] == final.cap_score * 100.0
    assert percent["acc"] == final.acc * 100.0
    assert percent["s2"] == final.s2 * 100.0
    _passed("composite 0.56525 exact, s2(0.4, 0.6) = 0.5, percent view is 100x")


def test_end_to_end_determinism(fixtures_dir, capsys):
    args = [
        "score-all",
        "--gt-captions", str(fixtures_dir / "captions_gt.json"),
        "--pred-captions", str(fixtures_dir / "captions_pred.json"),
        "--gt-vqa", str(fixtures_dir / "vqa_gold.json"),
        "--pred-vqa", str(fixtures_dir / "vqa_pred.json"),
        "--label", "toy",
    ]
    golden = (fixtures_dir / "golden" / "score_all_report.md").read_text()
    started = time.perf_counter()
    outputs = []
    for workers in ("1", "2", "8", "8"):  # repeated run checks run-to-run stability
        assert cli.main(args + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    elapsed = time.perf_counter() - started
    assert all(out == golden for out in outputs)
    assert elapsed < 5.0
    _passed(f"score-all byte-identical across workers 1/2/8 and repeated runs "
            f"({elapsed:.2f} s total)")


def test_report_fidelity():
    row = ResultRow(
        label="VideoLLaMA3-7B",
        internal=SplitScores("internal", bleu4=0.2569, meteor=0.4528,
                             rouge_l=0.4512, cider=1.1001),
        external=SplitScores("external", bleu4=0.2814, meteor=0.4844,
                             rouge_l=0.4658, cider=1.2579),
        acc=58.6121,
        s2=44.7329,
    )
    document = render_table([row], "markdown")
    for cell in ("0.2569", "0.4528", "0.4512", "1.1001",
                 "0.2814", "0.4844", "0.4658", "1.2579",
                 "58.6121", "44.7329"):
        assert f" {cell} " in document

    ranked = rank_leaderboard([
        ("CHTTLIOT", 60.0393),
        ("SCU_Anastasiu", 59.1184),
        ("Metropolis_Video_Intelligence", 58.8483),
        ("ARV", 57.9138),
        ("Rutgers ECE MM", 57.4658),
        ("VNPT_AI", 57.1133),
        ("AIO_GENAI4E", 55.6550),
        ("GenAI4E_BunBo", 52.4267),
        ("Tyche", 52.1481),
        ("MIZSU", 45.7572),
    ])
    last = ranked[-1]
    assert (last.rank, last.name, f"{last.s2:.4f}") == (10, "MIZSU", "45.7572")
    _passed("published table cells render verbatim; leaderboard puts MIZSU "
            "at rank 10 with 45.7572")
