"""VQA accuracy of a large pair of files, scored in one forked share per CPU.

The command line's fast path (`score_vqa_in_shares`). It reads the
answers, forks, and has each share read, parse and score its own byte
range of the gold file, a piece at a time, so no record object per
question is built and no question outlives its piece. It reports no
error: on any fault it returns None, and the caller loads the files
with `dataset_io.load_vqa_items` and `dataset_io.load_vqa_predictions`
and scores them with `vqa.accuracy`, which say what is wrong. The cli
imports this module only for a gold file of two shares or more
(`dataset_io.vqa_share_count`), so no other run compiles it.
"""

import itertools
import json
import os
import re
from array import array
from functools import partial

from . import forking, vqa
from .dataset_io import _answer_hook, _question_hook, _vqa_document, vqa_share_count

# Gold-file bytes a share reads, parses and scores at a time, about 4,600
# vqa-bulk questions, near `dataset_io._BLOCK_QUESTIONS`. A share holds
# one piece's text and rows at once, so its memory does not grow with
# the file.
_PIECE_BYTES = 1 << 20
# What a share's parse leaves in place of a question record it scored
_KEPT = object()
# Two question records in a row: where a share or a piece may end, after
# the "}", and the next one start, at the "{"
_CUT = re.compile(rb"\}[ \t\n\r]*,[ \t\n\r]*\{")
# The fewest bytes a question a share keeps can span:
# {"id":"","segment":"","question":"","options":[0,0],"correct":0}
_MIN_QUESTION_BYTES = 64
_WHITESPACE = json.decoder.WHITESPACE.match  # what the parser skips between tokens
_DECODER = json.JSONDecoder()


def score_vqa_in_shares(
    gold_path, answers_path, missing_policy: str = "missing-is-wrong", segments=None
) -> vqa.AccuracyResult | None:
    """`vqa.accuracy` of the two files, each CPU scoring a share of the questions.

    The answers are read into one id -> raw dict. Then the gold file is
    scored in `dataset_io.vqa_share_count` shares by `forking.map_chunks`:
    the caller scores the first share, a forked child each other one. No
    share's bytes are read before the fork. Each share reads its own
    byte range of the file (`_pieces`), a piece at a time, and scores
    each piece as soon as it is parsed, so no question outlives its
    piece. When `segments`, a set of `scenario/phase` ids, is given,
    every question's segment must be in it.

    Returns None for a gold file too small to split, and for any fault in
    either file, from an unreadable file to a missing answer under the
    strict policy: the caller then loads the files with `load_vqa_items`
    and `load_vqa_predictions` and scores them with `vqa.accuracy`, which
    alone report every error, the gold file's before the answers'.
    """
    by_id = {}

    def keep(answer_id, raw):
        by_id[answer_id] = raw
        return _KEPT

    shares = vqa_share_count(gold_path)
    if shares < 2 or missing_policy not in vqa.MISSING_POLICIES:
        return None
    try:
        with open(gold_path, "rb") as gold:
            size = os.fstat(gold.fileno()).st_size
            answers = _vqa_document(answers_path, _answer_hook(keep), "answers")
            # every record is an answer, every answer a record, and no id repeats
            if not len(answers) == answers.count(_KEPT) == len(by_id):
                return None
            del answers
            most = size // _MIN_QUESTION_BYTES + 1  # questions in any share
            solve = partial(
                _score_share, gold.fileno(), size, shares, by_id,
                missing_policy == "strict", segments, most,
            )
            counts = forking.map_chunks(range(shares), solve, lambda chunk_size: 3 + most, 1)
    except (OSError, RecursionError, ValueError):  # SchemaError is a ValueError
        return None
    fault, total, correct = map(sum, zip(*(values[:3] for values in counts)))
    if fault or not total:
        return None
    # each share sends the hash of each of its ids; a repeated id repeats its hash
    hashes = itertools.chain.from_iterable(values[3 : 3 + values[1]] for values in counts)
    if len(set(hashes)) != total:
        return None
    return vqa._accuracy_result(total, correct)


def _cut_after(file_no: int, at: int) -> tuple[int, int] | None:
    """The first `_CUT` at or past byte `at` of the file open as `file_no`.

    Returns where the record before it stops and where the one after it
    starts, or None where the file ends first. A match the search finds
    whole in what it read is the first one: a match that started earlier
    and ran past the read would take in this one's "}", and a match holds
    only its first "}".
    """
    window = 1 << 16
    while True:
        data = os.pread(file_no, window, at)
        cut = _CUT.search(data)
        if cut is not None:
            return at + cut.start() + 1, at + cut.end() - 1
        if len(data) < window:
            return None
        window *= 2


def _pieces(file_no: int, size: int, shares: int, chunk: range):
    """Byte ranges `(start, stop)` of the pieces of `chunk`'s shares, in file order.

    Share k starts after the first `_CUT` at or past byte `size * k //
    shares`, and stops where share k + 1 starts; share 0 starts at the
    file's start, and the last share's last piece has stop None: it runs
    to the file's end. Every other piece stops at the first cut at least
    `_PIECE_BYTES` past its start, or at its share's stop. A cut can lie
    inside a string or a nested value, but `_score_share` fails its piece
    then: parsed from a record's start, a piece parses only if it also
    stops at a record's end. Raises ValueError where a share finds no cut.
    """

    def share_cut(share: int) -> tuple[int, int]:
        cut = _cut_after(file_no, size * share // shares)
        if cut is None:
            raise ValueError("no cut for a share")
        return cut

    start = 0 if chunk.start == 0 else share_cut(chunk.start)[1]
    stop = None if chunk.stop == shares else share_cut(chunk.stop)[0]
    if stop is not None and stop <= start:
        raise ValueError("an empty share")
    while (cut := _cut_after(file_no, start + _PIECE_BYTES)) is not None and (
        stop is None or cut[0] < stop
    ):
        yield start, cut[0]
        start = cut[1]
    yield start, stop


def _member_value(text: str, at: int) -> tuple[str, int]:
    """The key of the object member whose key starts at `at`, and where its value starts."""
    if text[at : at + 1] != '"':
        raise ValueError("not a key")
    key, at = json.decoder.scanstring(text, at + 1)
    at = _WHITESPACE(text, at).end()
    if text[at : at + 1] != ":":
        raise ValueError("no colon after a key")
    return key, _WHITESPACE(text, at + 1).end()


def _first_question(text: str) -> int:
    """Where the first record of the root's `questions` list starts.

    Walks the root's members as `json.loads` does, parsing the value of
    each before the first `questions` key. Raises ValueError for what
    the parser would reject on the way, for a root or a list that is not
    there or is empty, and where `text` ends first.
    """
    at = _WHITESPACE(text, 0).end()
    if text[at : at + 1] != "{":
        raise ValueError("the root is not an object")
    at = _WHITESPACE(text, at + 1).end()
    while True:
        key, at = _member_value(text, at)
        if key == "questions":
            break
        at = _WHITESPACE(text, _DECODER.raw_decode(text, at)[1]).end()
        if text[at : at + 1] != ",":
            raise ValueError("no questions member")
        at = _WHITESPACE(text, at + 1).end()
    if text[at : at + 1] != "[":
        raise ValueError("questions is not a list")
    at = _WHITESPACE(text, at + 1).end()
    if text[at : at + 1] == "]":
        raise ValueError("no question")
    return at


def _check_root_end(text: str, at: int) -> None:
    """Raise ValueError unless the root's members after its list at `at` parse.

    A second `questions` member fails too: `json.loads` keeps the last.
    """
    at = _WHITESPACE(text, at).end()
    while text[at : at + 1] == ",":
        key, at = _member_value(text, _WHITESPACE(text, at + 1).end())
        if key == "questions":
            raise ValueError("a second questions member")
        at = _WHITESPACE(text, _DECODER.raw_decode(text, at)[1]).end()
    if text[at : at + 1] != "}" or _WHITESPACE(text, at + 1).end() != len(text):
        raise ValueError("not the root's end")


def _score_share(
    file_no: int, size: int, shares: int, by_id: dict, strict: bool, segments, most: int,
    chunk: range,
) -> array:
    """`array("q", [fault, questions, correct, *id hashes])` of `chunk`'s shares.

    Reads and scores the shares' pieces one at a time: the hook keeps each
    question record of a piece as a row and frees its dict, and the rows
    are normalized, checked and resolved before the next piece is read.
    The first piece of the file is parsed from the list's first record
    (`_first_question`); the last one up to the list's end, and the rest
    of the root is checked. The hashes, one per question, are padded to
    `most`. A fault is anything `load_vqa_items` or `vqa.accuracy` might
    reject, and some things they accept (a question-shaped dict nested in
    a question, or a `}, {` inside a string where a cut fell); no fault is
    told apart from another.
    """
    values = array("q", bytes(8 * (3 + most)))
    values[0] = 1  # a fault until every check has passed
    questions = correct = 0
    rows = []

    def keep(item_id, segment_id, question, options, gold):
        rows.append((item_id, options, gold, segment_id))
        return _KEPT

    decoder = json.JSONDecoder(object_hook=_question_hook(keep))
    try:
        for start, stop in _pieces(file_no, size, shares, chunk):
            text = os.pread(file_no, (size if stop is None else stop) - start, start).decode()
            at = _first_question(text) if start == 0 else 0
            if stop is None:
                records, end = decoder.raw_decode("".join(("[", text[at:])))
                _check_root_end(text, at + end - 1)
            else:
                records = decoder.decode("".join(("[", text[at:], "]")))
            # every record is a question, and every question a record
            if not len(records) == len(rows) == records.count(_KEPT) <= most - questions:
                return values
            item_ids, options, golds, segment_ids = zip(*rows)
            rows.clear()
            joined = vqa._joined_options(options)
            raws = [*map(by_id.get, item_ids)]
            if (
                joined is None
                or (strict and None in raws)
                or (segments is not None and not segments.issuperset(segment_ids))
            ):
                return values
            correct += vqa._count_correct(raws, joined, golds)
            values[3 + questions : 3 + questions + len(item_ids)] = array(
                "q", map(hash, item_ids)
            )
            questions += len(item_ids)
    except (OSError, RecursionError, TypeError, ValueError):  # TypeError: an option not a string
        return values
    values[:3] = array("q", [0, questions, correct])
    return values
