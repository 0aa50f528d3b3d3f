"""The package's record types: construction, fields, equality, immutability.

Plain records are `typing.NamedTuple`s; the ones that validate their
arguments or derive a field, and the VQA records loaders build in bulk,
are `__slots__` classes over `capvqa.records`.
Either way every type keeps its fields, their order, its positional and
keyword constructor, its repr and equality between its own instances.
"""

import math
import pickle
from fractions import Fraction

import pytest

from capvqa.bleu import BleuBreakdown
from capvqa.cider import CiderBreakdown, CiderCorpusIdf
from capvqa.composite import FinalScore, SplitScores
from capvqa.dataset_io import Scenario, ScenarioSet, Segment, ValidationReport
from capvqa.errors import SchemaError
from capvqa.meteor import MeteorAlignment, MeteorBreakdown, MeteorParams
from capvqa.report import RankedEntry, ResultRow
from capvqa.rouge import RougeBreakdown
from capvqa.scoring import CaptionScores, ScoringConfig, SegmentScore
from capvqa.vqa import AccuracyResult, VqaItem, VqaPrediction

_SPLIT = SplitScores("internal", 0.1, 0.2, 0.3, 1.5, 4)
_SEGMENT = Segment("action", "a man walks", "a car stops")

# Each public record type with one valid value per field, in field order.
SAMPLES = {
    BleuBreakdown: {"precisions": (1.0, 0.5, 0.25, 0.125), "brevity_penalty": 0.9, "score": 0.3},
    CiderBreakdown: {"per_n": (0.9, 0.8, 0.7, 0.6), "score": 7.5},
    CiderCorpusIdf: {"num_docs": 2, "df": {1: {("a",): 2, ("b",): 1}, 2: {}, 3: {}, 4: {}}},
    SplitScores: {"split": "external", "bleu4": 0.1, "meteor": 0.2, "rouge_l": 0.3,
                  "cider": 1.5, "segments": 4},
    FinalScore: {"cap_score": 0.5, "acc": 0.25, "s2": 0.375},
    Segment: {"phase": "judgment", "pedestrian_caption": "p", "vehicle_caption": "v"},
    Scenario: {"id": "s1", "segments": [_SEGMENT], "split": "internal"},
    ScenarioSet: {"scenarios": [Scenario("s1", [_SEGMENT], "external")]},
    ValidationReport: {"missing_segments": [("s1", "action")], "extra_segments": []},
    MeteorParams: {"alpha": 0.8, "beta": 2.0, "gamma": 0.25},
    MeteorAlignment: {"matches": 3, "chunks": 2, "candidate_len": 4, "reference_len": 5},
    MeteorBreakdown: {"precision": 0.75, "recall": 0.6, "f_mean": 0.61, "penalty": 0.1,
                      "score": 0.55},
    ResultRow: {"label": "run", "internal": _SPLIT, "external": _SPLIT, "acc": 0.5, "s2": 0.4},
    RankedEntry: {"rank": 1, "name": "team", "s2": 0.4},
    RougeBreakdown: {"lcs": 2, "recall": 0.5, "precision": 0.4, "beta": 0.8, "score": 0.44},
    ScoringConfig: {"bleu_zero_policy": "epsilon", "rouge_convention": "recall-weighted",
                    "meteor_params": MeteorParams(0.5, 1.0, 0.0), "cider_scale": 1.0,
                    "cider_length_penalty_sigma": 6.0},
    SegmentScore: {"scenario_id": "s1", "phase": "action", "perspective": "vehicle",
                   "bleu4": 0.1, "meteor": 0.2, "rouge_l": 0.3, "cider": 1.5},
    CaptionScores: {"internal": _SPLIT, "external": _SPLIT,
                    "segments": [SegmentScore("s1", "action", "vehicle", 0.1, 0.2, 0.3, 1.5)]},
    VqaItem: {"id": "q1", "segment_id": "s1/action", "question": "Who?",
              "options": ["A man", "a car"], "gold": 1},
    VqaPrediction: {"id": "q1", "raw": "B"},
    AccuracyResult: {"total": 3, "correct": 2, "acc": Fraction(2, 3)},
}
# the types that were frozen, and stay immutable
FROZEN = (
    CiderCorpusIdf, FinalScore, MeteorParams, ScoringConfig, SegmentScore, SplitScores,
)
_TYPES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


@_TYPES
def test_fields_keep_their_names_and_order(cls):
    assert cls._fields == tuple(SAMPLES[cls])


@_TYPES
def test_positional_and_keyword_construction_agree(cls):
    fields = SAMPLES[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        assert type(record) is cls
        assert [getattr(record, name) for name in fields] == list(fields.values())
    assert by_position == by_keyword
    assert not by_position != by_keyword


@_TYPES
def test_equal_fields_make_equal_records(cls):
    first, second = cls(**SAMPLES[cls]), cls(**SAMPLES[cls])
    assert first == second and first is not second


def test_validated_records_differ_when_a_field_does():
    pairs = [
        (MeteorParams(), MeteorParams(gamma=0.25)),
        (ScoringConfig(), ScoringConfig(cider_scale=1.0)),
        (CiderCorpusIdf(2, {1: {}}), CiderCorpusIdf(3, {1: {}})),
        (VqaItem("q1", "s", "?", ["a", "b"], 0), VqaItem("q1", "s", "?", ["a", "b"], 1)),
    ]
    for first, second in pairs:
        assert first != second and not first == second
    # unlike a NamedTuple, such a record never equals the tuple of its fields
    assert MeteorParams() != (0.9, 3.0, 0.5)


@_TYPES
def test_repr_names_the_type_and_its_fields(cls):
    fields = SAMPLES[cls]
    if cls is CiderCorpusIdf:  # the frequency tables are left out
        fields = {"num_docs": fields["num_docs"]}
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**SAMPLES[cls])) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_former_frozen_types_stay_immutable(cls):
    record = cls(**SAMPLES[cls])
    for name in SAMPLES[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**SAMPLES[cls])
    if cls is not CiderCorpusIdf:  # it holds dicts
        assert hash(record) == hash(cls(**SAMPLES[cls]))


@_TYPES
def test_records_survive_pickling(cls):
    record = cls(**SAMPLES[cls])
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults_are_kept():
    assert SplitScores("internal", 0.0, 0.0, 0.0, 0.0).segments == 0
    assert Scenario("s1", []).split is None
    assert ValidationReport() == ValidationReport([], [])
    assert ValidationReport().is_empty()
    assert MeteorParams() == MeteorParams(0.9, 3.0, 0.5)
    assert ScoringConfig() == ScoringConfig(
        "hard-zero", "precision-ratio", MeteorParams(), 10.0, None
    )


def test_the_derived_fields_are_computed_at_construction():
    idf = CiderCorpusIdf(**SAMPLES[CiderCorpusIdf])
    assert idf.log_idf == {1: math.log(2), 2: 0.0}
    item = VqaItem(**SAMPLES[VqaItem])
    assert item._normalized_options == "a man\na car"


def test_plain_records_are_named_tuples():
    # the one behaviour their conversion adds: they are tuples of their fields
    split = SplitScores(**SAMPLES[SplitScores])
    assert split == tuple(SAMPLES[SplitScores].values())
    assert list(split) == list(SAMPLES[SplitScores].values())
    assert split.as_dict() == {"bleu4": 0.1, "meteor": 0.2, "rouge_l": 0.3, "cider": 1.5}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MeteorParams(alpha=1.0), "alpha must be in (0, 1), got 1.0"),
        (lambda: MeteorParams(alpha=math.nan), "alpha must be in (0, 1), got nan"),
        (lambda: MeteorParams(beta=0.0), "beta must be a finite number > 0, got 0.0"),
        (lambda: MeteorParams(beta=math.inf), "beta must be a finite number > 0, got inf"),
        (lambda: MeteorParams(gamma=1.5), "gamma must be in [0, 1], got 1.5"),
        (
            lambda: ScoringConfig(bleu_zero_policy="Epsilon"),
            "bleu_zero_policy must be one of ('hard-zero', 'epsilon'), got 'Epsilon'",
        ),
        (
            lambda: ScoringConfig(rouge_convention="f1"),
            "rouge_convention must be one of ('precision-ratio', 'recall-weighted'), got 'f1'",
        ),
        (
            lambda: ScoringConfig(cider_scale=0.0),
            "cider_scale must be a number > 0 and at most 1e+300, got 0.0",
        ),
        (
            lambda: ScoringConfig(cider_scale=1e301),
            "cider_scale must be a number > 0 and at most 1e+300, got 1e+301",
        ),
        (
            lambda: ScoringConfig(cider_length_penalty_sigma=-1.0),
            "cider_length_penalty_sigma must be a number > 0 whose square is finite and > 0, "
            "got -1.0",
        ),
    ],
)
def test_configs_reject_bad_values_with_their_messages(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


@pytest.mark.parametrize(
    "options, gold, message",
    [
        (["only"], 0, "question 'q1' needs at least 2 options, got 1"),
        (["a", "b"], 2, "question 'q1' gold index 2 is outside [0, 2)"),
        (["a", "b"], -1, "question 'q1' gold index -1 is outside [0, 2)"),
        (["A car.", "a  car"], 0, "question 'q1' has options that collide after normalization"),
    ],
)
def test_vqa_item_rejects_bad_questions_with_their_messages(options, gold, message):
    with pytest.raises(SchemaError) as error:
        VqaItem("q1", "s1/action", "Who?", options, gold)
    assert str(error.value) == message
