"""Spans around the `score-all` pipeline's calls into each module.

The program has no spans of its own yet. `instrument` records them from
the outside: while it is active, every function named in `TRACED` is
replaced, wherever a capvqa module holds it, by a wrapper that records a
span around each call. A traced pass then runs the real
`scoring.score_captions`, so the spans describe the program's own code
path. Loading, VQA accuracy and the composite plus render are called
directly, each in its own span. Spans stay in memory and are written out
by the caller when the run ends.
"""

import contextlib
import importlib
import sys
import time

# The package re-exports functions named like some of its modules
# (`capvqa.cider`, `capvqa.meteor`), so attribute imports would get the
# functions; take the modules from the import system instead.
composite, dataset_io, report, scoring, vqa = (
    importlib.import_module(f"capvqa.{name}")
    for name in ("composite", "dataset_io", "report", "scoring", "vqa")
)

# Span name: (module, function, count) of the calls `score_captions`
# makes; `count`, where given, turns a call's result into a number that
# is summed per span name.
TRACED = {
    "text_norm.tokenize": ("text_norm", "tokenize", len),
    "cider.idf": ("cider", "compute_idf", lambda idf: sum(len(t) for t in idf.df.values())),
    "bleu.score": ("bleu", "bleu4", None),
    "meteor.score": ("meteor", "meteor", None),
    "meteor.align": ("meteor", "align", lambda alignment: alignment.chunks),
    "rouge.score": ("rouge", "rouge_l", None),
    "cider.score": ("cider", "cider", None),
    "scoring.unit": ("scoring", "_score_unit", None),
}

# Spans whose time is layer work inside `score_captions`; what the
# untraced `score_captions` spends beyond their sum is its own time.
LAYER_SPANS = (
    "text_norm.tokenize", "cider.idf", "bleu.score", "meteor.score", "rouge.score", "cider.score",
)


class Tracer:
    """Spans as (trace id, name, start, end, parent index); -1 is no parent."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((self.trace_id, name, time.perf_counter(), None, parent))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        end = time.perf_counter()
        trace_id, name, start, _, parent = self.spans[index]
        self.spans[index] = (trace_id, name, start, end, parent)
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def durations(self, trace_id: int) -> dict[str, list[float]]:
        """Seconds per span name, in call order, for one trace."""
        out: dict[str, list[float]] = {}
        for span_trace, name, start, end, _ in self.spans:
            if span_trace == trace_id:
                out.setdefault(name, []).append(end - start)
        return out


@contextlib.contextmanager
def instrument(tracer: Tracer, counts: dict[str, int]):
    """Trace every `TRACED` function, summing its counts into `counts[span name]`.

    A function is replaced in every loaded capvqa module that holds it,
    whether it calls it as `module.fn` or imported it by name. One that no
    longer exists is skipped, so its layer reads zero instead of the run
    failing; the functions are restored on exit.
    """
    modules = [
        module for name, module in list(sys.modules.items())
        if name == "capvqa" or name.startswith("capvqa.")
    ]
    patched = []
    for span, (module_name, attribute, count) in TRACED.items():
        original = getattr(importlib.import_module(f"capvqa.{module_name}"), attribute, None)
        if original is None:
            continue
        counts.setdefault(span, 0)

        def traced(*args, _span=span, _fn=original, _count=count, **kwargs):
            result = tracer.call(_span, _fn, *args, **kwargs)
            if _count:
                counts[_span] += _count(result)
            return result

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    patched.append((module, key, original))
    try:
        yield
    finally:
        for module, key, original in patched:
            setattr(module, key, original)


def load(tracer: Tracer, files: dict) -> dict:
    """The four inputs, each load in its own `dataset_io.load` span."""
    return {
        "gt": tracer.call("dataset_io.load", dataset_io.load_ground_truth, files["gt_captions"]),
        "pred": tracer.call("dataset_io.load", dataset_io.load_predictions, files["pred_captions"]),
        "items": tracer.call("dataset_io.load", dataset_io.load_vqa_items, files["gt_vqa"]),
        "answers": tracer.call("dataset_io.load", dataset_io.load_vqa_predictions, files["pred_vqa"]),
    }


def score_all(tracer: Tracer, inputs: dict) -> tuple:
    """One traced pass: caption scores, accuracy and the rendered report.

    Returns the scores, the accuracy and the counts by span name.
    """
    counts: dict[str, int] = {}
    with instrument(tracer, counts):
        captions = tracer.call(
            "scoring.score_captions", scoring.score_captions, inputs["gt"], inputs["pred"]
        )
    accuracy = tracer.call("vqa.accuracy", vqa.accuracy, inputs["items"], inputs["answers"])

    span = tracer.begin("report.render")
    aggregated = composite.aggregate_splits(captions.internal, captions.external)
    final = composite.s2(composite.cap_score(**aggregated), accuracy.acc_float)
    row = report.ResultRow(
        label="run", internal=captions.internal, external=captions.external,
        acc=final.acc, s2=final.s2,
    )
    report.render_table([row], "json")
    tracer.end(span)
    return captions, accuracy, counts


def resolved_answers(items, answers) -> tuple[int, int]:
    """(answers that resolve to an option, answers present for a known question)."""
    options = {item.id: item.options for item in items}
    present = [a for a in answers if a.id in options]
    resolved = sum(
        vqa.normalize_answer(a.raw, options[a.id]) is not vqa.NO_ANSWER for a in present
    )
    return resolved, len(present)
