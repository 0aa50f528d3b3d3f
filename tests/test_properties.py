"""Properties every metric and the CLI keep on any input.

Metric bounds, ROUGE-L symmetry and identity scores are checked on drawn
token lists. The loaders and `main()` are fed fuzzed files and extreme
numeric flag values: a loader raises only `SchemaError`, and `main()`
returns 0, 1 or 2 with at most one stderr line and never a traceback.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capvqa import cli, dataset_io
from capvqa.bleu import ZERO_PRECISION_POLICIES, bleu4
from capvqa.cider import MAX_SCALE, cider, compute_idf
from capvqa.errors import SchemaError
from capvqa.meteor import MeteorParams, meteor
from capvqa.rouge import BETA_CONVENTIONS, rouge_l

FIXTURES = Path(__file__).parent / "fixtures"

_captions = st.lists(st.sampled_from(["a", "b", "c", "d", "the", "car"]), max_size=20)
_meteor_params = st.builds(
    MeteorParams,
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    beta=st.floats(1e-6, 1e6),
    gamma=st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(
    _captions,
    _captions,
    st.lists(_captions, max_size=3),
    _meteor_params,
    st.floats(1e-300, MAX_SCALE),
    st.none() | st.floats(1e-100, 1e100),
)
def test_metrics_stay_within_their_ranges(cand, ref, other_refs, params, scale, sigma):
    for policy in ZERO_PRECISION_POLICIES:
        assert 0.0 <= bleu4(cand, [ref], policy).score <= 1.0
    assert 0.0 <= meteor(cand, [ref], params).score <= 1.0
    for convention in BETA_CONVENTIONS:
        assert 0.0 <= rouge_l(cand, ref, convention).score <= 1.0
    idf = compute_idf([[ref], *([r] for r in other_refs)])
    score = cider(cand, [ref], idf, scale=scale, length_penalty_sigma=sigma).score
    assert 0.0 <= score <= scale


@settings(max_examples=300, deadline=None)
@given(_captions, _captions)
def test_rouge_l_is_symmetric_under_precision_ratio(a, b):
    forward = rouge_l(a, b, "precision-ratio").score
    assert forward == pytest.approx(rouge_l(b, a, "precision-ratio").score, rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "c", "d", "the", "car"]), min_size=4, max_size=20),
    _meteor_params,
)
def test_a_caption_scored_against_itself_gets_the_identity_scores(caption, params):
    for policy in ZERO_PRECISION_POLICIES:
        assert bleu4(caption, [caption], policy).score == 1.0
    for convention in BETA_CONVENTIONS:
        assert rouge_l(caption, caption, convention).score == 1.0
    # one chunk of len(caption) matches
    expected = 1.0 - params.gamma * (1.0 / len(caption)) ** params.beta
    assert meteor(caption, [caption], params).score == pytest.approx(expected, abs=1e-12)
    # a second set that shares no word gives every n-gram of the caption idf ln 2
    # (and rounding must not lift the score above the scale)
    idf = compute_idf([[caption], [["zebra"]]])
    score = cider(caption, [caption], idf).score
    assert score == pytest.approx(10.0, rel=1e-12)
    assert score <= 10.0


# ---------------------------------------------------------------------------
# Fuzzed files

_FIXTURE_DOCS = {
    "--gt-captions": "captions_gt.json",
    "--pred-captions": "captions_pred.json",
    "--gt-vqa": "vqa_gold.json",
    "--pred-vqa": "vqa_pred.json",
}

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["prerecognition", "internal", "scenario_001", "q1", "A"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# texts that are not a JSON document the standard dumper would write
_hostile_texts = st.sampled_from([
    "",
    "{",
    "[" * 5000,
    '{"scenarios": ' + "1" * 5000 + "}",
    '{"questions": [{"id": "q", "correct": ' + "9" * 4400 + "}]}",
    '{"answers": NaN}',
    '{"scenarios": [], "scenarios": {}}',
]) | st.text(max_size=40)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from _paths(value, prefix + (idx,))


@st.composite
def _fuzzed_text(draw, name):
    """A fixture document with one value replaced or removed, or a hostile text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_hostile_texts)
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return json.dumps(draw(_json_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(_json_values)
    else:
        del parent[path[-1]]
    return json.dumps(doc)


def _run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
    return code, out.getvalue(), err.getvalue()


def _strict_json(text: str):
    def reject(constant):
        raise AssertionError(f"non-finite number {constant} in the json report")

    return json.loads(text, parse_constant=reject)


def _assert_clean_exit(code, out, err, format):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("\n") <= 1
    if code == 0 and format == "json":
        _strict_json(out)


_LOADERS = {
    "--gt-captions": dataset_io.load_ground_truth,
    "--pred-captions": dataset_io.load_predictions,
    "--gt-vqa": dataset_io.load_vqa_items,
    "--pred-vqa": dataset_io.load_vqa_predictions,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_LOADERS)).flatmap(
    lambda flag: st.tuples(st.just(flag), _fuzzed_text(_FIXTURE_DOCS[flag]))
))
def test_loaders_raise_only_schema_errors_on_fuzzed_files(flag_and_text):
    flag, text = flag_and_text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        try:
            _LOADERS[flag](path)
        except SchemaError:
            pass


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["score-all", "score-captions", "score-vqa", "validate"]),
    st.sampled_from(sorted(_FIXTURE_DOCS)).flatmap(
        lambda flag: st.tuples(st.just(flag), _fuzzed_text(_FIXTURE_DOCS[flag]))
    ),
    st.sampled_from(["markdown", "csv", "json"]),
    st.booleans(),
)
def test_main_on_fuzzed_files_exits_cleanly(command, flag_and_text, format, strict):
    fuzzed_flag, text = flag_and_text
    flags = {
        "score-all": list(_FIXTURE_DOCS),
        "score-captions": ["--gt-captions", "--pred-captions"],
        "score-vqa": ["--gt-vqa", "--pred-vqa"],
        "validate": ["--gt-captions", "--pred-captions"],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = Path(tmp) / "fuzzed.json"
        fuzzed.write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = [command]
        for flag in flags:
            argv += [flag, str(fuzzed if flag == fuzzed_flag else FIXTURES / _FIXTURE_DOCS[flag])]
        if command != "validate":
            argv += ["--format", format] + ["--strict"] * strict
        code, out, err = _run_main(argv)
    _assert_clean_exit(code, out, err, format if command != "validate" else None)


_EXTREME_NUMBERS = st.sampled_from([
    "1e-200", "5e307", "1e308", "1e200", "1e-320", "5e-324", "1e300", "1e154", "1e-162",
    "0", "-0.0", "-1", "1", "0.5", "nan", "inf", "-inf", "1e999", "0x10", "",
]) | st.floats().map(repr) | st.integers(-(10**30), 10**30).map(str)

_NUMERIC_FLAGS = [
    "--cider-scale",
    "--cider-length-penalty-sigma",
    "--meteor-alpha",
    "--meteor-beta",
    "--meteor-gamma",
    "--acc",
    "--workers",
]


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_NUMERIC_FLAGS), _EXTREME_NUMBERS, min_size=1, max_size=3),
    st.sampled_from(["markdown", "csv", "json"]),
)
def test_main_on_extreme_numeric_flags_exits_cleanly(values, format):
    argv = ["score-all", "--format", format]
    for flag, doc in _FIXTURE_DOCS.items():
        argv += [flag, str(FIXTURES / doc)]
    for flag, value in values.items():
        argv.append(f"{flag}={value}")
    code, out, err = _run_main(argv)
    _assert_clean_exit(code, out, err, format)
    if code == 0:
        # every printed number is finite, whichever the format
        assert not re.search(r"(?i)\b(inf|infinity|nan)\b", out)
