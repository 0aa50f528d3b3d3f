"""Every document the CLI prints: result tables, reports and leaderboards.

All of them go through `_render`, the one place that knows the formats.
Numbers are rendered with 4 decimal places in markdown and csv; the json
format preserves full precision and round-trips. Rendering is a pure
function of its inputs: equal inputs give byte-identical documents.
"""

import json
from dataclasses import dataclass
from typing import Sequence

from .composite import FinalScore, SplitScores
from .vqa import AccuracyResult

FORMATS = ("markdown", "csv", "json")

# display names of composite.METRIC_NAMES, in that order
METRIC_LABELS = ("BLEU-4", "METEOR", "ROUGE-L", "CIDEr")

TABLE_COLUMNS = (
    "Model",
    *(f"{label}_{split}" for split in "ie" for label in METRIC_LABELS),
    "Acc",
    "S2",
)


@dataclass
class ResultRow:
    label: str
    internal: SplitScores
    external: SplitScores
    acc: float
    s2: float

    def values(self) -> tuple[float, ...]:
        return (
            *self.internal.as_dict().values(),
            *self.external.as_dict().values(),
            self.acc,
            self.s2,
        )


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render(
    format: str,
    header: Sequence[str],
    body: Sequence[Sequence[str]],
    doc,
    footer: Sequence[str] = (),
    labelled: bool = False,
) -> str:
    """Every document: `doc` as json, else `body` under `header` then `footer` lines.

    Markdown draws a table, or with `labelled` the one body row as
    `Header: value` lines.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    if format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if format == "csv":
        lines = [",".join(map(_csv_field, row)) for row in (header, *body)]
    elif labelled:
        lines = [f"{name.capitalize()}: {value}" for name, value in zip(header, body[0])]
    else:
        lines = ["| " + " | ".join(row) + " |" for row in (header, ["---"] * len(header), *body)]
    return "".join(line + "\n" for line in [*lines, *footer])


def _cells(row: ResultRow) -> list[str]:
    return [row.label] + [_fmt(v) for v in row.values()]


def render_table(rows: Sequence[ResultRow], format: str = "markdown") -> str:
    """Render result rows in the benchmark's split-column layout."""
    if not rows:
        raise ValueError("render_table requires at least one row")
    doc = [
        {
            "label": row.label,
            "internal": row.internal.as_dict(),
            "external": row.external.as_dict(),
            "acc": row.acc,
            "s2": row.s2,
        }
        for row in rows
    ]
    return _render(format, TABLE_COLUMNS, [_cells(row) for row in rows], doc)


def render_score_all(
    label: str,
    internal: SplitScores,
    external: SplitScores,
    aggregated: dict[str, float],
    final: FinalScore,
    format: str = "markdown",
) -> str:
    """The `score-all` report: the result row, then the composite scores."""
    percent = final.as_percent()
    doc = {
        "label": label,
        "internal": dict(segments=internal.segments, **internal.as_dict()),
        "external": dict(segments=external.segments, **external.as_dict()),
        "aggregated": aggregated,
        "cap_score": final.cap_score,
        "acc": final.acc,
        "s2": final.s2,
        "percent": percent,
    }
    footer = [""] + [
        f"{name}: {getattr(final, key):.4f} ({percent[key]:.4f}%)"
        for key, name in (("cap_score", "Cap_Score"), ("acc", "Acc"), ("s2", "S2"))
    ]
    row = ResultRow(label, internal, external, acc=final.acc, s2=final.s2)
    return _render(format, TABLE_COLUMNS, [_cells(row)], doc, footer)


def render_vqa(result: AccuracyResult, format: str = "markdown") -> str:
    """The `score-vqa` report; its markdown is labelled lines, not a table."""
    doc = {"total": result.total, "correct": result.correct, "acc": result.acc_float}
    body = [[str(result.total), str(result.correct), _fmt(result.acc_float)]]
    return _render(format, tuple(doc), body, doc, labelled=True)


def parse_table_json(document: str) -> list[ResultRow]:
    """Inverse of render_table(..., format="json")."""
    rows = []
    for record in json.loads(document):
        rows.append(
            ResultRow(
                label=record["label"],
                internal=SplitScores(split="internal", **record["internal"]),
                external=SplitScores(split="external", **record["external"]),
                acc=record["acc"],
                s2=record["s2"],
            )
        )
    return rows


def render_split_table(splits: Sequence[SplitScores], format: str = "markdown") -> str:
    """Per-split caption metrics (one row per split)."""
    return _render(
        format,
        ("Split", *METRIC_LABELS),
        [[s.split] + [_fmt(v) for v in s.as_dict().values()] for s in splits],
        [dict(split=s.split, segments=s.segments, **s.as_dict()) for s in splits],
    )


@dataclass
class RankedEntry:
    rank: int
    name: str
    s2: float


def rank_leaderboard(entries: Sequence[tuple[str, float]]) -> list[RankedEntry]:
    """Rank (name, s2) pairs: descending score, name breaks ties, ranks 1-based."""
    ordered = sorted(entries, key=lambda e: (-e[1], e[0]))
    return [
        RankedEntry(rank=i, name=name, s2=score)
        for i, (name, score) in enumerate(ordered, start=1)
    ]


def render_leaderboard(ranked: Sequence[RankedEntry], format: str = "markdown") -> str:
    return _render(
        format,
        ("Rank", "Team", "S2"),
        [[str(e.rank), e.name, _fmt(e.s2)] for e in ranked],
        [{"rank": e.rank, "name": e.name, "s2": e.s2} for e in ranked],
    )
