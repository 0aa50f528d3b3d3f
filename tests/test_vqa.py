import os
import random
import threading
from fractions import Fraction

import pytest
from conftest import _assert_no_child_left
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from capvqa import forking, vqa
from capvqa.dataset_io import load_vqa_items, load_vqa_predictions
from capvqa.errors import SchemaError, ValidationFailure
from capvqa.text_norm import PUNCTUATION
from capvqa.vqa import (
    NO_ANSWER,
    AccuracyResult,
    VqaItem,
    VqaPrediction,
    accuracy,
    normalize_answer,
)

OPTIONS = [
    "The pedestrian was crossing",
    "The vehicle stopped",
    "The light was red",
    "Nothing happened",
]


def _item(item_id="q1", gold=0, options=None):
    return VqaItem(
        id=item_id,
        segment_id="scenario_001/action",
        question="What happened?",
        options=options or list(OPTIONS),
        gold=gold,
    )


def test_bare_choice_letter():
    assert normalize_answer("B", OPTIONS) == 1
    assert normalize_answer("b", OPTIONS) == 1
    assert normalize_answer(" d ", OPTIONS) == 3


def test_letter_with_punctuation_and_text():
    assert normalize_answer("A. The pedestrian was crossing", OPTIONS) == 0
    assert normalize_answer("c) the light was red", OPTIONS) == 2
    assert normalize_answer("B: whatever follows", OPTIONS) == 1


def test_exact_option_text():
    assert normalize_answer("the vehicle stopped", OPTIONS) == 1
    assert normalize_answer("The vehicle stopped.", OPTIONS) == 1


def test_unique_containment():
    assert normalize_answer("I believe the light was red at the time", OPTIONS) == 2


def test_ambiguous_containment_is_no_answer():
    options = ["red car", "blue car"]
    assert normalize_answer("a red car and a blue car", options) is NO_ANSWER


def test_unresolvable_text_is_no_answer():
    assert normalize_answer("complete gibberish", OPTIONS) is NO_ANSWER
    assert normalize_answer("", OPTIONS) is NO_ANSWER


def test_letter_out_of_range_falls_through():
    # "Z" names no option here, but the raw text still matches by containment
    assert normalize_answer("Z", OPTIONS) is NO_ANSWER
    assert normalize_answer("Z. the vehicle stopped", ["the vehicle stopped", "other"]) == 0


def test_letter_followed_by_word_is_not_a_choice():
    # leading article, not a choice letter
    options = ["a bus", "nothing at all"]
    assert normalize_answer("a bus", options) == 0


def test_empty_option_list_rejected():
    with pytest.raises(ValueError):
        normalize_answer("B", [])


def test_never_raises_on_arbitrary_text():
    rng = random.Random(41)
    alphabet = "abZ.:)([]?! \t3"
    for _ in range(500):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        result = normalize_answer(raw, OPTIONS)
        assert result is NO_ANSWER or 0 <= result < len(OPTIONS)


# Few letters, so options repeat tokens and contain one another. Also NUL
# (the batch separator), lone surrogates and a surrogate pair written as
# two code points, which `st.text` never draws, and characters whose
# lowercase depends on context (final sigma) or is longer (dotted I).
_ALPHABET = [
    *"aAbB", *PUNCTUATION, " ", "\t", "\u2003", "\x1c",
    "\x00", "\ud800", "\udfff", "\ud83d\ude00", "\u03a3", "\u0130",
]
_TEXTS = st.lists(st.sampled_from(_ALPHABET), max_size=12).map("".join)
# Clean ASCII options: words joined by single spaces, punctuation against a
# word. Lists of them mostly take `_normalize_many`'s one-pass path, which
# lists of `_TEXTS` almost never do; an empty text sends one down the
# per-text path.
_CLEAN_WORDS = st.tuples(
    st.sampled_from(["", "(", '"', "["]),
    st.text(alphabet="abcXYZ09'-", min_size=1, max_size=4),
    st.sampled_from(["", ".", ",", "!", "?)", ":", ";", '"]']),
).map("".join)
_CLEAN_TEXTS = st.lists(_CLEAN_WORDS, max_size=4).map(" ".join)


@st.composite
def _answer_and_options(draw):
    options = draw(st.lists(_TEXTS, min_size=1, max_size=5))
    pieces = draw(st.lists(
        st.one_of(
            st.sampled_from(options),
            _TEXTS,
            st.text(max_size=6),
            st.sampled_from(["A", "b)", "C.", " d:", "E"]),
        ),
        max_size=4,
    ))
    separators = draw(st.lists(
        st.sampled_from(["", " ", "\u2003", "\x1c", ".", "\n"]),
        min_size=len(pieces),
        max_size=len(pieces),
    ))
    return "".join(sep + piece for sep, piece in zip(separators, pieces)), options


@settings(max_examples=600, deadline=None)
@given(_answer_and_options())
def test_normalize_answer_matches_slice_reference(case):
    raw, options = case
    assert normalize_answer(raw, options) == oracles.normalize_answer_reference(raw, options)


def _distinct_options(case):
    options = case[1]
    return len(options) >= 2 and len(set(map(oracles._normalize_tokens, options))) == len(options)


@st.composite
def _questions_and_answers(draw):
    """(answer or None, options, gold) per question, answers in one of three forms.

    "drawn" keeps `_answer_and_options`'s answers, which seldom pass
    `_normalize_many`'s one-pass checks. "clean" swaps each for clean ASCII
    text, most often an option's normalized tokens, so a batch of them
    takes the one-pass path. "mixed" is clean but for one answer holding
    a NUL, a tab or a no-break space, which sends the whole batch down
    the per-text or the collapsing path.
    """
    cases = draw(
        st.lists(_answer_and_options().filter(_distinct_options), min_size=1, max_size=8)
    )
    form = draw(st.sampled_from(["drawn", "clean", "mixed"]))
    questions = []
    for raw, options in cases:
        if form != "drawn":
            tokens = " ".join(oracles._normalize_tokens(draw(st.sampled_from(options))))
            clean = [_CLEAN_TEXTS, st.sampled_from(["A", "b)", "C."])]
            if tokens.isascii():
                clean += [st.just(tokens), st.just(f"I think {tokens}")]
            raw = draw(st.one_of(clean))
        gold = draw(st.integers(0, len(options) - 1))
        questions.append([raw, options, gold])
    if form == "mixed":
        question = questions[draw(st.integers(0, len(questions) - 1))]
        raw, at = question[0], draw(st.integers(0, len(question[0])))
        question[0] = raw[:at] + draw(st.sampled_from(["\x00", "\t", "\u00a0"])) + raw[at:]
    for question in draw(st.sets(st.integers(0, len(questions) - 1), max_size=2)):
        questions[question][0] = None  # no prediction
    return questions


@settings(max_examples=150, deadline=None)
@given(_questions_and_answers())
def test_batched_answers_count_as_the_slice_reference(questions):
    items, predictions = [], []
    for k, (raw, options, gold) in enumerate(questions):
        items.append(VqaItem(f"q{k}", "s/action", "?", options, gold))
        if raw is not None:
            predictions.append(VqaPrediction(f"q{k}", raw))
    expected = sum(
        raw is not None and oracles.normalize_answer_reference(raw, options) == gold
        for raw, options, gold in questions
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vqa, "MIN_CHUNK_ANSWERS", 1)
        for cpus in (1, 2, 3):
            patch.setattr(forking, "_cpu_count", lambda: cpus)
            assert accuracy(items, predictions).correct == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _TEXTS))
def test_normalized_text_has_the_strip_tokenizer_tokens(text):
    assert vqa._normalize_tokens(text) == " ".join(oracles._normalize_tokens(text))


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(_TEXTS, max_size=6), st.lists(_CLEAN_TEXTS, max_size=6)))
def test_batched_normalization_matches_the_per_text_reference(texts):
    expected = tuple(" ".join(oracles._normalize_tokens(text)) for text in texts)
    assert vqa._normalize_many(texts) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TEXTS, st.text()), min_size=2, max_size=6))
def test_item_joins_its_normalized_options_exactly(options):
    normalized = vqa._normalize_many(options)
    assume(len(set(normalized)) == len(options))
    item = VqaItem("q1", "s/action", "?", options, 0)
    # normalized text holds no "\n", even where an option did
    assert item._normalized_options.split("\n") == list(normalized)


def test_batched_normalization_edge_cases():
    assert vqa._normalize_many([]) == ()
    # final sigma: each text ends at the separator, as it would on its own
    assert vqa._normalize_many(["A\u03a3", "\u03a3B"]) == ("a\u03c2", "\u03c3b")
    # a text holding the separator falls back to one text at a time
    assert vqa._normalize_many(["a\x00b.", "C!"]) == ("a\x00b", "c")
    assert vqa._normalize_many(["\ud83d\ude00?", "\udfff"]) == ("\ud83d\ude00", "\udfff")
    # the one-pass path takes clean ASCII; each fault below needs collapsing
    assert vqa._normalize_many(["A (b).", "c, d"]) == ("a b", "c d")
    assert vqa._normalize_many(["a  b", "c"]) == ("a b", "c")
    assert vqa._normalize_many(["a . b", "c"]) == ("a b", "c")
    assert vqa._normalize_many([" a", "b"]) == ("a", "b")
    assert vqa._normalize_many(["a", "b "]) == ("a", "b")
    assert vqa._normalize_many(["a ", "b"]) == ("a", "b")
    assert vqa._normalize_many(["a", "? b"]) == ("a", "b")
    assert vqa._normalize_many(["a\tb", "c\x1fd"]) == ("a b", "c d")
    assert vqa._normalize_many(["a\u2003b", "\u00e9 e"]) == ("a b", "\u00e9 e")
    assert vqa._normalize_many(["a", "", "b"]) == ("a", "", "b")


def test_all_correct():
    items = [_item(f"q{i}", gold=1) for i in range(5)]
    predictions = [VqaPrediction(f"q{i}", "B") for i in range(5)]
    result = accuracy(items, predictions)
    assert result == AccuracyResult(total=5, correct=5, acc=Fraction(1))


def test_three_of_five_correct():
    items = [_item(f"q{i}", gold=1) for i in range(5)]
    predictions = [
        VqaPrediction("q0", "B"),
        VqaPrediction("q1", "B"),
        VqaPrediction("q2", "B"),
        VqaPrediction("q3", "A"),
        VqaPrediction("q4", "no idea"),
    ]
    result = accuracy(items, predictions)
    assert result.acc == Fraction(3, 5)
    assert result.acc_float == 0.6


def test_accuracy_normalizes_each_option_once(monkeypatch):
    batches = []
    original_many = vqa._normalize_many
    monkeypatch.setattr(
        vqa, "_normalize_many", lambda texts: batches.append(list(texts)) or original_many(texts)
    )
    items = [_item(f"q{i}", gold=2) for i in range(5)]
    # one batch per item, when the item is built
    assert batches == [OPTIONS] * 5
    answers = ["the light was red", "I think nothing happened", "C", "???", "the vehicle stopped"]
    predictions = [VqaPrediction(f"q{i}", raw) for i, raw in enumerate(answers)]
    expected = sum(normalize_answer(raw, OPTIONS) == 2 for raw in answers)
    batches.clear()
    calls = []
    original = vqa._normalize_tokens
    monkeypatch.setattr(vqa, "_normalize_tokens", lambda text: calls.append(text) or original(text))
    assert accuracy(items, predictions).correct == expected == 2
    # accuracy never normalizes an option again, and normalizes the
    # answers the choice letter did not decide in one batch
    assert batches == [[raw for raw in answers if raw != "C"]]
    assert calls == []


def test_missing_counts_as_wrong_by_default():
    items = [_item("q0", gold=1), _item("q1", gold=1)]
    result = accuracy(items, [VqaPrediction("q0", "B")])
    assert result == AccuracyResult(total=2, correct=1, acc=Fraction(1, 2))


def test_strict_mode_rejects_missing():
    items = [_item("q0", gold=1), _item("q1", gold=1)]
    with pytest.raises(ValidationFailure):
        accuracy(items, [VqaPrediction("q0", "B")], missing_policy="strict")


def test_duplicate_prediction_id_rejected():
    items = [_item("q0", gold=1)]
    predictions = [VqaPrediction("q0", "B"), VqaPrediction("q0", "A")]
    with pytest.raises(SchemaError, match=r"^duplicate prediction id 'q0' \(at answers\[1\]\)$"):
        accuracy(items, predictions)


def test_duplicate_item_id_rejected():
    with pytest.raises(SchemaError, match=r"^duplicate question id 'q0' \(at questions\[2\]\)$"):
        accuracy([_item("q0"), _item("q1"), _item("q0")], [])


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        accuracy([_item()], [], missing_policy="lenient")


def test_prediction_order_never_matters():
    rng = random.Random(42)
    items = [_item(f"q{i}", gold=rng.randrange(4)) for i in range(20)]
    predictions = [
        VqaPrediction(f"q{i}", rng.choice(["A", "B", "C", "D", "??"])) for i in range(20)
    ]
    baseline = accuracy(items, predictions)
    for _ in range(10):
        rng.shuffle(predictions)
        assert accuracy(items, predictions) == baseline


def test_accuracy_is_exact_rational():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(1, 30)
        items = [_item(f"q{i}", gold=rng.randrange(4)) for i in range(n)]
        predictions = [
            VqaPrediction(f"q{i}", "ABCD"[rng.randrange(4)]) for i in range(n)
        ]
        result = accuracy(items, predictions)
        assert result.acc * result.total == result.correct
        assert 0 <= result.acc <= 1


def test_percent_rendering_of_published_style_accuracy():
    result = AccuracyResult(total=50000, correct=30399, acc=Fraction(30399, 50000))
    assert f"{result.acc_float * 100:.4f}" == "60.7980"


def test_item_validation():
    with pytest.raises(SchemaError):
        _item(gold=4)
    with pytest.raises(SchemaError):
        _item(options=["only one"])
    with pytest.raises(SchemaError):
        _item(options=["Same text", "same text!"])


@pytest.fixture(scope="module")
def bulk():
    """Enough items for three chunks of answers, with every answer form and some missing."""
    rng = random.Random(12)
    items, predictions = [], []
    for i in range(3 * vqa.MIN_CHUNK_ANSWERS):
        item = _item(f"q{i:05d}", gold=rng.randrange(4), options=OPTIONS)
        items.append(item)
        option = rng.choice(OPTIONS)
        forms = ["B", "c)", "d: maybe", option, f"I think {option.lower()}", "no idea", ""]
        if rng.random() < 0.95:
            predictions.append(VqaPrediction(item.id, rng.choice(forms)))
    rng.shuffle(predictions)
    return items, predictions


def test_every_cpu_count_gives_equal_accuracy(monkeypatch, forks, bulk):
    affinity = os.sched_getaffinity(0)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(forking, "_cpu_count", lambda: cpus)
        results.append(accuracy(*bulk))
    assert len(forks) == 0 + 1 + 2
    assert 0 < results[0].correct < results[0].total == len(bulk[0])
    assert results[0] == results[1] == results[2]
    # the caller ran pinned to one CPU while it forked, and is unpinned again
    assert os.sched_getaffinity(0) == affinity
    _assert_no_child_left()


def test_fixtures_and_threaded_callers_resolve_in_place(monkeypatch, forks, fixtures_dir, bulk):
    monkeypatch.setattr(forking, "_cpu_count", lambda: 2)
    items = load_vqa_items(fixtures_dir / "vqa_gold.json")
    accuracy(items, load_vqa_predictions(fixtures_dir / "vqa_pred.json"))
    assert len(items) < 2 * vqa.MIN_CHUNK_ANSWERS

    # a fork copies only the forking thread, so a threaded caller resolves in place
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        accuracy(*bulk)
    finally:
        release.set()
        waiter.join()
    assert forks == []


def test_a_child_that_exits_before_writing_is_resolved_by_the_caller(monkeypatch, forks, bulk):
    monkeypatch.setattr(forking, "_cpu_count", lambda: 1)
    expected = accuracy(*bulk)
    caller, match = os.getpid(), vqa._match

    def dying(answer, normalized_options):
        if os.getpid() != caller:
            os._exit(0)  # a clean exit before the count is written
        return match(answer, normalized_options)

    monkeypatch.setattr(forking, "_cpu_count", lambda: 3)
    monkeypatch.setattr(vqa, "_match", dying)
    assert accuracy(*bulk) == expected
    assert len(forks) == 2
    _assert_no_child_left()


def test_an_interrupted_caller_leaves_no_child(monkeypatch, forks, bulk):
    caller, match = os.getpid(), vqa._match

    def interrupted(answer, normalized_options):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return match(answer, normalized_options)

    monkeypatch.setattr(forking, "_cpu_count", lambda: 3)
    monkeypatch.setattr(vqa, "_match", interrupted)
    affinity = os.sched_getaffinity(0)
    with pytest.raises(KeyboardInterrupt):
        accuracy(*bulk)
    assert len(forks) == 2
    assert os.sched_getaffinity(0) == affinity
    _assert_no_child_left()


def test_input_errors_raise_before_any_fork(monkeypatch, forks, bulk):
    monkeypatch.setattr(forking, "_cpu_count", lambda: 3)
    items, predictions = bulk
    with pytest.raises(SchemaError, match=r"^duplicate prediction id .* \(at answers\[\d+\]\)$"):
        accuracy(items, [*predictions, predictions[0]])
    with pytest.raises(SchemaError, match=r"^duplicate question id .* \(at questions\[\d+\]\)$"):
        accuracy([*items, items[0]], predictions)
    with pytest.raises(ValidationFailure, match="have no prediction"):
        accuracy(items, predictions, missing_policy="strict")
    assert forks == []
