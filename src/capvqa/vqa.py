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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NoReturn, Sequence

from . import forking
from .errors import SchemaError, ValidationFailure
from .text_norm import PUNCTUATION

NO_ANSWER = None

MISSING_POLICIES = ("missing-is-wrong", "strict")

# Answers a forked chunk must hold, or accuracy resolves them serially.
# An answer takes about 2-4 us, against 0.3 ms for a caption unit. On a
# 2-CPU Xeon KVM guest holding vqa-bulk's 80 MB heap, forking, exiting and
# reaping a child took 3.5 ms, and each chunk then paid about 0.5 us per
# answer in copy-on-write faults. Split in two, 10,000 answers lost 2.5 ms
# and 20,000, 30,000 and 50,000 saved 6.6, 14.5 and 31 ms, so a chunk of
# 10,000 saves about twice a fork's cost.
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


def _delete_punctuation(text: str) -> str:
    """`text` without the `PUNCTUATION` characters, deleted byte by byte.

    UTF-8 encodes every non-ASCII code point with non-ASCII bytes only, so
    deleting the ASCII punctuation bytes deletes exactly those characters.
    `surrogatepass` carries lone surrogates through unchanged. This is
    faster than a regex, and than `str.translate` on text that is not
    pure ASCII.
    """
    encoded = text.encode("utf-8", "surrogatepass")
    return encoded.translate(None, _PUNCTUATION_BYTES).decode("utf-8", "surrogatepass")


def _normalize_tokens(text: str) -> str:
    """The tokens of `tokenize(text, strip policy)`, joined by single spaces.

    Tokens never contain whitespace, so equal strings mean equal token
    sequences, and `f" {a} " in f" {b} "` holds exactly when the tokens of
    `a` are a contiguous run of the tokens of `b`.
    """
    return " ".join(_delete_punctuation(text.lower()).split())


def _normalize_many(texts: Sequence[str]) -> tuple[str, ...]:
    """`_normalize_tokens` of each text, lowercased and stripped in one call.

    NUL is neither cased nor case-ignorable, so the context-dependent
    lowercasing of the Greek final sigma sees it as a text boundary. A
    text holding NUL itself splits into too many parts; those texts are
    normalized one at a time.
    """
    parts = _delete_punctuation(_SEPARATOR.join(texts).lower()).split(_SEPARATOR)
    if len(parts) != len(texts):
        return tuple([_normalize_tokens(text) for text in texts])
    return tuple([" ".join(part.split()) for part in parts])


@dataclass(slots=True)
class VqaItem:
    id: str
    segment_id: str
    question: str
    options: list[str]
    gold: int
    # The normalized options joined by "\n": one object, not a tuple of n
    # strings. Normalized text holds no whitespace but single spaces, so
    # splitting it on "\n" gives back exactly the n options.
    _normalized_options: str = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.options) < 2:
            raise SchemaError(
                f"question {self.id!r} needs at least 2 options, got {len(self.options)}"
            )
        if not 0 <= self.gold < len(self.options):
            raise SchemaError(
                f"question {self.id!r} gold index {self.gold} is outside "
                f"[0, {len(self.options)})"
            )
        normalized = _normalize_many(self.options)
        if len(set(normalized)) != len(normalized):
            raise SchemaError(
                f"question {self.id!r} has options that collide after normalization"
            )
        self._normalized_options = "\n".join(normalized)


@dataclass(slots=True)
class VqaPrediction:
    id: str
    raw: str


@dataclass
class AccuracyResult:
    total: int
    correct: int
    acc: Fraction

    @property
    def acc_float(self) -> float:
        return float(self.acc)


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
        correct = 0
        for raw, joined, gold in zip(raws[rows], joined_options[rows], golds[rows]):
            if raw is not None and _resolve(raw, joined) == gold:
                correct += 1
        return array("q", [correct])

    counts = forking.map_chunks(
        range(len(items)), count_correct, "q", lambda size: 1, MIN_CHUNK_ANSWERS
    )
    correct = sum([count[0] for count in counts])
    total = len(items)
    return AccuracyResult(total=total, correct=correct, acc=Fraction(correct, total))
