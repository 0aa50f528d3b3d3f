import json
import math
from fractions import Fraction

import pytest

from capvqa.composite import FinalScore, SplitScores
from capvqa.report import (
    ResultRow,
    rank_leaderboard,
    render_leaderboard,
    render_score_all,
    render_split_table,
    render_table,
    render_vqa,
)
from capvqa.vqa import AccuracyResult

TOP_TEN = [
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
]


def _row(label="run", **overrides):
    internal = overrides.pop(
        "internal",
        SplitScores("internal", bleu4=0.0, meteor=0.0, rouge_l=0.0, cider=0.0),
    )
    external = overrides.pop(
        "external",
        SplitScores("external", bleu4=0.0, meteor=0.0, rouge_l=0.0, cider=0.0),
    )
    return ResultRow(
        label=label, internal=internal, external=external,
        acc=overrides.pop("acc", 0.0), s2=overrides.pop("s2", 0.0),
    )


BASELINE_ROW = _row(
    label="VideoLLaMA3-7B",
    internal=SplitScores("internal", bleu4=0.2569, meteor=0.4528, rouge_l=0.4512, cider=1.1001),
    external=SplitScores("external", bleu4=0.2814, meteor=0.4844, rouge_l=0.4658, cider=1.2579),
    acc=58.6121,
    s2=44.7329,
)


def test_all_zero_row_markdown_golden():
    expected = (
        "| Model | BLEU-4_i | METEOR_i | ROUGE-L_i | CIDEr_i"
        " | BLEU-4_e | METEOR_e | ROUGE-L_e | CIDEr_e | Acc | S2 |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| run | 0.0000 | 0.0000 | 0.0000 | 0.0000"
        " | 0.0000 | 0.0000 | 0.0000 | 0.0000 | 0.0000 | 0.0000 |\n"
    )
    assert render_table([_row()], "markdown") == expected


def test_published_row_renders_published_cells():
    document = render_table([BASELINE_ROW], "markdown")
    for cell in ("0.2569", "0.4528", "0.4512", "1.1001",
                 "0.2814", "0.4844", "0.4658", "1.2579",
                 "58.6121", "44.7329"):
        assert f" {cell} " in document


def test_csv_format_and_quoting():
    row = _row(label='team, "the" best')
    document = render_table([row], "csv")
    assert document.splitlines()[0].startswith("Model,BLEU-4_i,")
    assert document.splitlines()[1].startswith('"team, ""the"" best",0.0000')


def test_json_round_trips():
    # json keeps every float as it is, where the other formats print 4 places
    precise = _row(
        label="precise",
        internal=SplitScores("internal", 1 / 3, 0.1 + 0.2, 2 / 7, math.pi),
        external=SplitScores("external", 1e-17, 5e-324, 1 - 1e-16, 1e300),
        acc=2 / 3,
        s2=0.123456789012345678,
    )
    rows = [BASELINE_ROW, _row(), precise]

    def metrics(scores):
        return {
            "bleu4": scores.bleu4, "meteor": scores.meteor,
            "rouge_l": scores.rouge_l, "cider": scores.cider,
        }

    assert json.loads(render_table(rows, "json")) == [
        {
            "label": row.label, "internal": metrics(row.internal),
            "external": metrics(row.external), "acc": row.acc, "s2": row.s2,
        }
        for row in rows
    ]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_table([_row()], "html")


def test_every_renderer_rejects_an_unknown_format_alike():
    row = _row()
    renderers = [
        lambda f: render_table([row], f),
        lambda f: render_split_table([row.internal, row.external], f),
        lambda f: render_leaderboard(rank_leaderboard(TOP_TEN), f),
        lambda f: render_vqa(AccuracyResult(total=2, correct=1, acc=Fraction(1, 2)), f),
        lambda f: render_score_all(
            "run", row.internal, row.external, row.internal.as_dict(), FinalScore(0, 0, 0), f
        ),
    ]
    for render in renderers:
        with pytest.raises(ValueError, match="format must be one of .*got 'html'"):
            render("html")


def test_empty_rows_rejected():
    with pytest.raises(ValueError):
        render_table([], "markdown")


def test_rendering_is_deterministic():
    first = render_table([BASELINE_ROW], "markdown")
    second = render_table([BASELINE_ROW], "markdown")
    assert first == second


def test_leaderboard_ranks_published_teams():
    ranked = rank_leaderboard(TOP_TEN)
    assert [e.name for e in ranked][:3] == [
        "CHTTLIOT", "SCU_Anastasiu", "Metropolis_Video_Intelligence",
    ]
    last = ranked[-1]
    assert (last.rank, last.name) == (10, "MIZSU")
    assert f"{last.s2:.4f}" == "45.7572"


def test_leaderboard_input_order_never_matters():
    ranked = rank_leaderboard(list(reversed(TOP_TEN)))
    assert ranked == rank_leaderboard(TOP_TEN)


def test_single_entry_is_rank_one():
    ranked = rank_leaderboard([("solo", 12.5)])
    assert (ranked[0].rank, ranked[0].name) == (1, "solo")


def test_ties_break_lexicographically_with_distinct_ranks():
    ranked = rank_leaderboard([("zeta", 50.0), ("alpha", 50.0)])
    assert [(e.rank, e.name) for e in ranked] == [(1, "alpha"), (2, "zeta")]


def test_leaderboard_renders_four_decimals():
    ranked = rank_leaderboard(TOP_TEN)
    document = render_leaderboard(ranked, "markdown")
    assert "| 10 | MIZSU | 45.7572 |" in document
    csv_doc = render_leaderboard(ranked, "csv")
    assert csv_doc.splitlines()[-1] == "10,MIZSU,45.7572"
