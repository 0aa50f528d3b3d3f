"""VQA accuracy of a pair of files, scored in one forked share per CPU.

The command line's one path for a clean VQA pair (`score_vqa_in_shares`).
It reads the answers, forks, and has each share read, parse and score
its own byte range of the gold file, a piece at a time, so no record
object per question is built and no question outlives its piece. A gold
file under two `MIN_SHARE_BYTES`, or a process on one CPU, is one share,
scored by the caller without a fork. It reports no error: on any fault
it returns None, and the caller loads the files with
`dataset_io.load_vqa_items` and `dataset_io.load_vqa_predictions` and
scores them with `vqa.accuracy`, which say what is wrong. The cli
imports this module only when it scores a VQA pair, so `import
capvqa.cli` does not compile it.
"""

import itertools
import json
import os
import re
from array import array
from functools import partial

from . import forking, vqa
from .dataset_io import _answer_hook, _question_hook, _vqa_document

# Gold-file bytes a share must have (`forking.map_chunks`'s `min_chunk`
# over the file's bytes), or the file is cut into fewer shares, where a
# fork, its pipe and its reap cost more than the share saves. On a
# 2-CPU Xeon KVM guest, 24 alternating cold `score-vqa` runs each on the
# first questions of a vqa-bulk gold file, two shares against one
# (median saving, and how often two were faster): 225 KB -2.3 ms (10 of
# 24), 327 KB +0.4 ms (12), 452 KB +4.6 ms (18), 610 KB +9.4 ms (23). A
# repeat with 32 runs each agreed. So two shares start at 450 KB.
MIN_SHARE_BYTES = 225_000
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
# The members of an object as (key, value) pairs, in order: a repeated
# key stays, where a dict keeps only its last value
_MEMBERS = json.JSONDecoder(object_pairs_hook=list)


def score_vqa_in_shares(
    gold_path, answers_path, missing_policy: str = "missing-is-wrong", segments=None
) -> vqa.AccuracyResult | None:
    """`vqa.accuracy` of the two files, each CPU scoring a share of the questions.

    The answers are read into one id -> raw dict. Then
    `forking.map_chunks` cuts the gold file's bytes into one share per
    CPU, and at most one per `MIN_SHARE_BYTES`: the caller scores the
    first share, a forked child each other one, so one share runs
    without a fork. No share's bytes are read before the fork. Each
    share reads its own byte range of the file (`_pieces`), a piece at a
    time, and scores each piece as soon as it is parsed, so no question
    outlives its piece. When `segments`, a set of `scenario/phase` ids,
    is given, every question's segment must be in it.

    Returns None for any fault in either file, from an unreadable file to
    a missing answer under the strict policy: the caller then loads the
    files with `load_vqa_items` and `load_vqa_predictions` and scores
    them with `vqa.accuracy`, which alone report every error, the gold
    file's before the answers'.
    """
    by_id = {}

    def keep(answer_id, raw):
        by_id[answer_id] = raw
        return _KEPT

    if missing_policy not in vqa.MISSING_POLICIES:
        return None
    try:
        with open(gold_path, "rb") as gold:
            size = os.fstat(gold.fileno()).st_size
            answers = _vqa_document(answers_path, _answer_hook(keep), "answers")
            # every record is an answer, every answer a record, and no id repeats
            if not len(answers) == answers.count(_KEPT) == len(by_id):
                return None
            del answers
            solve = partial(
                _score_share, gold.fileno(), size, by_id, missing_policy == "strict", segments
            )
            counts = forking.map_chunks(range(size), solve, MIN_SHARE_BYTES)
    except (OSError, RecursionError, ValueError):  # SchemaError is a ValueError
        return None
    fault, total, correct = map(sum, zip(*(values[:3] for values in counts)))
    if fault or not total:
        return None
    # each share sends the hash of each of its ids; a repeated id repeats its hash
    hashes = itertools.chain.from_iterable(values[3:] for values in counts)
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


def _pieces(file_no: int, size: int, chunk: range):
    """Byte ranges `(start, stop)` of the pieces of the share `chunk`, in file order.

    `chunk` is a range of the file's byte offsets. The share starts at
    the file's start, or after the first `_CUT` at or past `chunk.start`,
    and stops where the next share starts; the last share's last piece
    has stop None: it runs to the file's end. Every other piece stops at
    the first cut at least `_PIECE_BYTES` past its start, or at its
    share's stop. A cut can lie inside a string or a nested value, but
    `_score_share` fails its piece then: parsed from a record's start, a
    piece parses only if it also stops at a record's end. Raises
    ValueError where a share finds no cut.
    """

    def share_cut(at: int) -> tuple[int, int]:
        cut = _cut_after(file_no, at)
        if cut is None:
            raise ValueError("no cut for a share")
        return cut

    start = 0 if chunk.start == 0 else share_cut(chunk.start)[1]
    stop = None if chunk.stop == size else share_cut(chunk.stop)[0]
    if stop is not None and stop <= start:
        raise ValueError("an empty share")
    while (cut := _cut_after(file_no, start + _PIECE_BYTES)) is not None and (
        stop is None or cut[0] < stop
    ):
        yield start, cut[0]
        start = cut[1]
    yield start, stop


def _score_share(
    file_no: int, size: int, by_id: dict, strict: bool, segments, chunk: range
) -> array:
    """`array("q", [fault, questions, correct, *id hashes])` of the share `chunk`.

    Reads and scores the share's pieces one at a time: the hook keeps each
    question record of a piece as a row and frees its dict, and the rows
    are normalized, checked and resolved before the next piece is read.
    The file's first piece is parsed as the root, closed by "]}" where
    the file goes on: an object whose `questions` is a list, its last
    member then. Every other piece is parsed as a list, so it can neither
    leave the root's list nor open a second one, and the last piece's
    list must be followed by the root's other members, none of them a
    second `questions`. A fault is anything `load_vqa_items` or
    `vqa.accuracy` might reject, and some things they accept (a
    question-shaped dict outside the list or nested in a question, or a
    `}, {` inside a string where a cut fell); no fault is told apart from
    another, and a share with one sends `[1, 0, 0]`.
    """
    fault = array("q", [1, 0, 0])
    hashes = array("q")
    correct = 0
    rows = []

    def keep(item_id, segment_id, question, options, gold):
        rows.append((item_id, options, gold, segment_id))
        return _KEPT

    decoder = json.JSONDecoder(object_hook=_question_hook(keep))
    try:
        for start, stop in _pieces(file_no, size, chunk):
            text = os.pread(file_no, (size if stop is None else stop) - start, start).decode()
            if start == 0:
                root = decoder.decode(text if stop is None else "".join((text, "]}")))
                if not (
                    type(root) is dict
                    and type(records := root.get("questions")) is list
                    and (stop is None or next(reversed(root)) == "questions")
                ):
                    return fault
            elif stop is not None:
                records = decoder.decode("".join(("[", text, "]")))
            else:
                records, end = decoder.raw_decode("".join(("[", text)))
                # a second `questions` after the list is the one json.loads keeps
                members = _MEMBERS.decode("".join(('{"questions": 0', text[end - 1 :])))
                if [key for key, _ in members].count("questions") != 1:
                    return fault
            # every record is a question, and every question a record
            if not 0 < len(records) == len(rows) == records.count(_KEPT):
                return fault
            item_ids, options, golds, segment_ids = zip(*rows)
            rows.clear()
            joined = vqa._joined_options(options)
            raws = [*map(by_id.get, item_ids)]
            if (
                joined is None
                or (strict and None in raws)
                or (segments is not None and not segments.issuperset(segment_ids))
            ):
                return fault
            correct += vqa._count_correct(raws, joined, golds)
            hashes.extend(map(hash, item_ids))
    except (OSError, RecursionError, TypeError, ValueError):  # TypeError: an option not a string
        return fault
    return array("q", [0, len(hashes), correct]) + hashes
