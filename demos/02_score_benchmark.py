"""Score a tiny dual-task benchmark end to end with the library API.

Builds a two-scenario ground truth (one internal, one external split), a
slightly-off submission, and five multiple-choice questions; then runs
captions + VQA through to the composite S2 and a rendered table.

Run:  python demos/02_score_benchmark.py
"""

from capvqa import (
    ResultRow,
    accuracy,
    aggregate_splits,
    cap_score,
    load_vqa_items,
    load_vqa_predictions,
    render_table,
    s2,
    score_captions,
    validate,
)
from capvqa.dataset_io import Scenario, ScenarioSet, Segment

PHASE_CAPTIONS = {
    "prerecognition": (
        "The pedestrian stood on the curb looking at his phone.",
        "The vehicle approached the intersection at a constant speed.",
    ),
    "recognition": (
        "The pedestrian noticed the approaching vehicle and hesitated.",
        "The driver noticed the pedestrian near the crosswalk.",
    ),
    "judgment": (
        "The pedestrian decided to cross before the vehicle arrived.",
        "The driver began to slow down near the crosswalk.",
    ),
    "action": (
        "The pedestrian walked quickly across the zebra crossing.",
        "The vehicle braked firmly and stopped before the crossing.",
    ),
    "avoidance": (
        "The pedestrian reached the opposite curb without incident.",
        "The vehicle remained stopped until the pedestrian had crossed.",
    ),
}


def _segments(noise=""):
    return [
        Segment(phase=phase, pedestrian_caption=ped + noise, vehicle_caption=veh + noise)
        for phase, (ped, veh) in PHASE_CAPTIONS.items()
    ]


ground_truth = ScenarioSet(scenarios=[
    Scenario(id="demo_internal", split="internal", segments=_segments()),
    Scenario(id="demo_external", split="external", segments=_segments()),
])

# The "model output": identical on the internal scenario, a trailing
# hallucinated clause on the external one.
submission = ScenarioSet(scenarios=[
    Scenario(id="demo_internal", segments=_segments()),
    Scenario(id="demo_external", segments=_segments(" near the red truck")),
])

report = validate(ground_truth, submission)
print("validation:", report.summary())
print()

caption_scores = score_captions(ground_truth, submission)
for split_scores in (caption_scores.internal, caption_scores.external):
    print(f"{split_scores.split:9s} BLEU-4 {split_scores.bleu4:.4f}  "
          f"METEOR {split_scores.meteor:.4f}  ROUGE-L {split_scores.rouge_l:.4f}  "
          f"CIDEr {split_scores.cider:.4f}")
print()

# VQA: answers arrive as free text and are normalized onto option indices.
from pathlib import Path

fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
items = load_vqa_items(fixtures / "vqa_gold.json")
answers = load_vqa_predictions(fixtures / "vqa_pred.json")
vqa_result = accuracy(items, answers)
print(f"VQA: {vqa_result.correct}/{vqa_result.total} correct "
      f"(acc = {vqa_result.acc_float:.4f})")
print()

# Composite: mean the splits, mean the four metrics, midpoint with accuracy.
aggregated = aggregate_splits(caption_scores.internal, caption_scores.external)
cap = cap_score(**aggregated)
final = s2(cap, vqa_result.acc_float)
print(f"Cap_Score = {final.cap_score:.4f}, Acc = {final.acc:.4f}, S2 = {final.s2:.4f}")
print()

row = ResultRow(
    label="demo-run",
    internal=caption_scores.internal,
    external=caption_scores.external,
    acc=final.acc,
    s2=final.s2,
)
print(render_table([row], "markdown"))
