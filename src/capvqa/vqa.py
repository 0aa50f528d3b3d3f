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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import SchemaError, ValidationFailure
from .text_norm import PUNCTUATION

NO_ANSWER = None

MISSING_POLICIES = ("missing-is-wrong", "strict")
# a strict failure names this many missing ids, so its message stays one short line
_MISSING_SHOWN = 5

_CHOICE_LETTER = re.compile(r"\s*([A-Za-z])\s*(?:[.):]|$)")
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
    _normalized_options: tuple[str, ...] = field(init=False, repr=False)

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
        self._normalized_options = _normalize_many(self.options)
        if len(set(self._normalized_options)) != len(self.options):
            raise SchemaError(
                f"question {self.id!r} has options that collide after normalization"
            )


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
    return _resolve(raw, _normalize_many(options))


def _resolve(raw: str, normalized_options: Sequence[str]) -> int | None:
    """`normalize_answer` against options already passed through `_normalize_many`."""
    match = _CHOICE_LETTER.match(raw)
    if match:
        index = ord(match.group(1).upper()) - ord("A")
        if index < len(normalized_options):
            return index

    answer = _normalize_tokens(raw)
    if answer in normalized_options:
        return normalized_options.index(answer)

    # an empty option pads to two spaces, which only an empty answer holds,
    # and that answer matched the empty option exactly above
    padded = f" {answer} "
    contained = [
        index
        for index, option in enumerate(normalized_options)
        # a padded match implies a bare one, which is cheaper to rule out
        if option in answer and f" {option} " in padded
    ]
    if len(contained) == 1:
        return contained[0]
    return NO_ANSWER


def accuracy(
    items: Sequence[VqaItem],
    predictions: Sequence[VqaPrediction],
    missing_policy: str = "missing-is-wrong",
) -> AccuracyResult:
    """Top-1 accuracy over all items.

    Items without a prediction count as wrong under `missing-is-wrong`
    and raise under `strict`. Extra predictions for unknown items are
    ignored. Prediction order never affects the result.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(
            f"missing_policy must be one of {MISSING_POLICIES}, got {missing_policy!r}"
        )
    if not items:
        raise ValueError("accuracy requires at least one item")
    seen_items = set()
    for item in items:
        if item.id in seen_items:
            raise SchemaError(f"duplicate question id {item.id!r}")
        seen_items.add(item.id)

    by_id: dict[str, str] = {}
    for prediction in predictions:
        if prediction.id in by_id:
            raise SchemaError(f"duplicate prediction id {prediction.id!r}")
        by_id[prediction.id] = prediction.raw

    if missing_policy == "strict":
        missing = sorted(item.id for item in items if item.id not in by_id)
        if missing:
            shown = ", ".join(missing[:_MISSING_SHOWN])
            if len(missing) > _MISSING_SHOWN:
                shown += f" and {len(missing) - _MISSING_SHOWN} more"
            raise ValidationFailure(f"{len(missing)} item(s) have no prediction: {shown}")

    correct = 0
    for item in items:
        raw = by_id.get(item.id)
        if raw is None:
            continue
        if _resolve(raw, item._normalized_options) == item.gold:
            correct += 1
    total = len(items)
    return AccuracyResult(total=total, correct=correct, acc=Fraction(correct, total))
