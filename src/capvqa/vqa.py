"""Multiple-choice answer normalization and top-1 accuracy.

Models answer in free text; `normalize_answer` maps that text onto an
option index using three rules, tried in order:

1. a choice letter ("B", "b)", "A. <anything>") — a single A-Z letter at
   the start, either alone or followed by '.', ')' or ':';
2. exact match of the normalized answer against a normalized option;
3. a unique option whose normalized tokens appear contiguously inside the
   normalized answer.

Anything else (including containment that matches two or more options) is
NO_ANSWER, which scores as incorrect. Accuracy is kept as an exact
fraction so correct == acc * total holds without rounding games.
"""

import re
import string
from array import array
from typing import TYPE_CHECKING, NamedTuple, NoReturn, Sequence

from . import forking
from .errors import SchemaError, ValidationFailure
from .records import Record
from .text_norm import PUNCTUATION

if TYPE_CHECKING:  # imported when a result is built: `fractions` loads `decimal`
    from fractions import Fraction

NO_ANSWER = None

MISSING_POLICIES = ("missing-is-wrong", "strict")

# Answers a forked chunk of the library's `accuracy` must hold, or it
# resolves them serially. The command line scores its files in
# `vqa_shares` instead, and calls `accuracy` only to name a fault in
# them. An answer takes about 2-4 us, against 0.3 ms for a caption unit.
# On a 2-CPU Xeon KVM guest holding vqa-bulk's 80 MB heap of loaded
# items, forking, exiting and reaping a child took 3.5 ms, and each
# chunk then paid about 0.5 us per answer in copy-on-write faults. Split
# in two, 10,000 answers lost 2.5 ms and 20,000, 30,000 and 50,000 saved
# 6.6, 14.5 and 31 ms, so a chunk of 10,000 saves about twice a fork's
# cost.
MIN_CHUNK_ANSWERS = 10_000

# a strict failure names this many missing ids, so its message stays one short line
_MISSING_SHOWN = 5

_CHOICE_LETTER = re.compile(r"\s*([A-Za-z])\s*(?:[.):]|$)")
_LETTER_INDEX = {
    letter: index
    for letters in (string.ascii_uppercase, string.ascii_lowercase)
    for index, letter in enumerate(letters)
}
_PUNCTUATION_BYTES = PUNCTUATION.encode()
_SEPARATOR = "\x00"
# The ASCII characters `str.split()` splits on, but the space, one bytes object each
_OTHER_WHITESPACE = [bytes([code]) for code in range(128) if chr(code).isspace() and code != 32]
_NUL_AS_SPACE = bytes.maketrans(_SEPARATOR.encode(), b" ")


def _delete_punctuation(text: str) -> bytes:
    """The UTF-8 bytes of `text` without the `PUNCTUATION` characters.

    UTF-8 encodes every non-ASCII code point with non-ASCII bytes only, so
    deleting the ASCII punctuation bytes deletes exactly those characters.
    `surrogatepass` carries lone surrogates through unchanged, both ways.
    This is faster than a regex, and than `str.translate` on text that is
    not pure ASCII.
    """
    return text.encode("utf-8", "surrogatepass").translate(None, _PUNCTUATION_BYTES)


def _normalize_tokens(text: str) -> str:
    """The whitespace-split tokens of `text`, lowercased and without `PUNCTUATION`.

    The tokens are joined by single spaces. Unlike `tokenize`, which keeps
    punctuation as tokens, answers drop it, so "a car." matches the option
    "A car". Tokens never contain whitespace, so equal strings mean equal
    token sequences, and `f" {a} " in f" {b} "` holds exactly when the
    tokens of `a` are a contiguous run of the tokens of `b`.
    """
    return " ".join(_delete_punctuation(text.lower()).decode("utf-8", "surrogatepass").split())


def _normalize_many(texts: Sequence[str]) -> tuple[str, ...]:
    """`_normalize_tokens` of each text, lowercased and stripped in one call.

    NUL is neither cased nor case-ignorable, so the context-dependent
    lowercasing of the Greek final sigma sees it as a text boundary. A
    text holding NUL itself splits into too many parts; those texts are
    normalized one at a time.

    Collapsing whitespace, one text at a time, is skipped when the bytes
    show it would change nothing: all ASCII, no whitespace but single
    spaces, and none at a text's ends. The test covers the whole call, so
    one text that fails it (an accented letter, a curly quote, a tab or a
    double space) sends every text of the call through the collapse. On
    16,384 clean ASCII options the checks take about 0.9 ms and save about
    4 ms of collapsing; a call that fails them pays up to the 0.9 ms for
    nothing.
    """
    encoded = _delete_punctuation(_SEPARATOR.join(texts).lower())
    parts = encoded.decode("utf-8", "surrogatepass").split(_SEPARATOR)
    if len(parts) != len(texts):
        return tuple([_normalize_tokens(text) for text in texts])
    # With each NUL read as a space, no space may touch another or an end.
    # That also sends a call holding an empty text down the slow path.
    spaced = encoded.translate(_NUL_AS_SPACE)
    if (
        encoded.isascii()
        and not any(map(encoded.__contains__, _OTHER_WHITESPACE))
        and b"  " not in spaced
        and not spaced.startswith(b" ")
        and not spaced.endswith(b" ")
    ):
        return tuple(parts)
    return tuple([" ".join(part.split()) for part in parts])


def _shape_error(id: str, options: list, gold: int) -> str | None:
    """Why a question with these options and gold index is malformed, or None."""
    if len(options) < 2:
        return f"question {id!r} needs at least 2 options, got {len(options)}"
    if not 0 <= gold < len(options):
        return f"question {id!r} gold index {gold} is outside [0, {len(options)})"
    return None


def _joined_options(questions: Sequence[Sequence[str]]) -> list[str] | None:
    """Each question's normalized options joined by "\n", from one `_normalize_many` call.

    The joined form is one object, not a tuple of n strings. Normalized
    text holds no whitespace but single spaces, so splitting it on "\n"
    gives back exactly the n options. Returns None at the first question
    whose options collide after normalization. A non-string option raises
    `TypeError`.
    """
    normalized = _normalize_many([option for options in questions for option in options])
    joined = []
    stop = 0
    for options in questions:
        start = stop
        stop += len(options)
        normal = normalized[start:stop]
        if len(set(normal)) != len(normal):
            return None
        joined.append("\n".join(normal))
    return joined


class VqaItem(Record):
    __slots__ = ("id", "segment_id", "question", "options", "gold", "_normalized_options")
    _fields = __slots__[:-1]  # all but the derived slot

    def __init__(self, id: str, segment_id: str, question: str, options: list[str], gold: int):
        """Check the question and keep its options normalized, in `_joined_options`'s form.

        A non-string option raises `TypeError`.
        """
        if problem := _shape_error(id, options, gold):
            raise SchemaError(problem)
        joined = _joined_options([options])
        if joined is None:
            raise SchemaError(f"question {id!r} has options that collide after normalization")
        self.id, self.segment_id, self.question = id, segment_id, question
        self.options, self.gold, self._normalized_options = options, gold, joined[0]


class VqaPrediction(Record):
    __slots__ = _fields = ("id", "raw")

    def __init__(self, id: str, raw: str):
        self.id, self.raw = id, raw


class AccuracyResult(NamedTuple):
    total: int
    correct: int
    acc: "Fraction"

    @property
    def acc_float(self) -> float:
        return float(self.acc)


def _accuracy_result(total: int, correct: int) -> AccuracyResult:
    from fractions import Fraction

    return AccuracyResult(total=total, correct=correct, acc=Fraction(correct, total))


def normalize_answer(raw: str, options: Sequence[str]) -> int | None:
    """Resolve a free-form answer to a 0-based option index, or NO_ANSWER.

    Total and deterministic: never raises on arbitrary text.
    """
    if not options:
        raise ValueError("normalize_answer requires a non-empty option list")
    return _resolve(raw, "\n".join(_normalize_many(options)))


def _resolve(raw: str, normalized_options: str) -> int | None:
    """`normalize_answer` against options in the joined form `VqaItem` keeps.

    The options are split out of their joined form only when the choice
    letter rule does not decide. Normalized options hold no newline, so
    the newlines count the options.
    """
    match = _CHOICE_LETTER.match(raw)
    if match and (index := _LETTER_INDEX[match[1]]) <= normalized_options.count("\n"):
        return index

    options = normalized_options.split("\n")
    answer = _normalize_tokens(raw)
    if answer in options:
        return options.index(answer)

    # an empty option pads to two spaces, which only an empty answer holds,
    # and that answer matched the empty option exactly above
    padded = f" {answer} "
    contained = [
        index
        for index, option in enumerate(options)
        # a padded match implies a bare one, which is cheaper to rule out
        if option in answer and f" {option} " in padded
    ]
    if len(contained) == 1:
        return contained[0]
    return NO_ANSWER


def _count_correct(
    raws: Sequence[str | None], joined_options: Sequence[str], golds: Sequence[int]
) -> int:
    """Questions whose answer resolves to their gold option; a None answer is wrong.

    The three columns are read in step: question k has answer `raws[k]`,
    options `joined_options[k]` in `_joined_options`'s form, and gold
    index `golds[k]`.
    """
    correct = 0
    for raw, joined, gold in zip(raws, joined_options, golds):
        if raw is not None and _resolve(raw, joined) == gold:
            correct += 1
    return correct


def _raise_first_duplicate(kind: str, records: str, ids: list[str]) -> NoReturn:
    """Raise for the first id in `ids` that repeats an earlier one.

    The locator names the repeat by its index in the file's `records` list.
    """
    seen = set()
    for idx, item_id in enumerate(ids):
        if item_id in seen:
            raise SchemaError(f"duplicate {kind} id {item_id!r}", locator=f"{records}[{idx}]")
        seen.add(item_id)
    raise AssertionError(f"no duplicate {kind} id")


def accuracy(
    items: Sequence[VqaItem],
    predictions: Sequence[VqaPrediction],
    missing_policy: str = "missing-is-wrong",
) -> AccuracyResult:
    """Top-1 accuracy over all items.

    Items without a prediction count as wrong under `missing-is-wrong`
    and raise under `strict`. Extra predictions for unknown items are
    ignored. Prediction order never affects the result.

    Every check runs first, in the caller. The answers are then resolved
    on the CPUs the process may run on (`taskset` limits that set): each
    contiguous chunk of `items` counts its correct answers, in a forked
    child for every chunk after the first, and the counts are summed in
    chunk order, so the result is identical for any CPU count.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(
            f"missing_policy must be one of {MISSING_POLICIES}, got {missing_policy!r}"
        )
    if not items:
        raise ValueError("accuracy requires at least one item")
    if len({item.id for item in items}) != len(items):
        _raise_first_duplicate("question", "questions", [item.id for item in items])
    by_id = {prediction.id: prediction.raw for prediction in predictions}
    if len(by_id) != len(predictions):
        _raise_first_duplicate(
            "prediction", "answers", [prediction.id for prediction in predictions]
        )

    if missing_policy == "strict":
        missing = sorted(item.id for item in items if item.id not in by_id)
        if missing:
            shown = ", ".join(missing[:_MISSING_SHOWN])
            if len(missing) > _MISSING_SHOWN:
                shown += f" and {len(missing) - _MISSING_SHOWN} more"
            raise ValidationFailure(f"{len(missing)} item(s) have no prediction: {shown}")

    # A chunk reads three columns, not the items: after the fork, every
    # object it touches costs its page a copy-on-write fault (about 5 us on
    # a KVM guest), and an item, its id and its options lie on other pages
    # than its answer and joined options. This halves the faults per chunk.
    raws = [by_id.get(item.id) for item in items]
    joined_options = [item._normalized_options for item in items]
    golds = [item.gold for item in items]

    def count_correct(chunk: range) -> array:
        rows = slice(chunk.start, chunk.stop)
        return array("q", [_count_correct(raws[rows], joined_options[rows], golds[rows])])

    counts = forking.map_chunks(range(len(items)), count_correct, MIN_CHUNK_ANSWERS)
    return _accuracy_result(len(items), sum([count[0] for count in counts]))
