"""capvqa benchmark: `score-all` end to end, and a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload short-distinct --seed 1 --seconds 30 --trace 0

The run writes the workload's four input files from the seed, then:

* `--trace 0` times `python -m capvqa.cli score-all --format json` as a
  subprocess with the default worker setting (`CAPVQA_WORKERS` unset), the
  in-process library call, and interpreter start-up, and reports the
  end-to-end metrics;
* `--trace 1` runs the same pipeline in-process, the real
  `score_captions` with a span around each of its calls into the other
  modules (see `tracing.py`), and reports the per-layer metrics.

Both check every output they produce (see `Checks`). A table of every
metric goes to stdout, and the last stdout line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. Details (sample
counts, quartiles, tail percentiles, report digests, the environment) go
to `.perfbench-out/<workload>-seed<seed>-trace<trace>.json`, spans to
`.perfbench-out/<workload>-seed<seed>-spans.jsonl`.
"""

import argparse
import bisect
import gc
import hashlib
import importlib.util
import inspect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark leaves no caches beside its own files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

WORKERS_ENV_VAR = "CAPVQA_WORKERS"
SETUP_PER_SAMPLE = 3     # fresh interpreters timed after each timed score-all
MIN_SAMPLES = 3          # timed CLI and library calls per run, even past --seconds
ORACLE_UNITS = 8         # short-distinct units compared against tests/oracles.py
TAIL_BEYOND = 10         # a tail percentile needs this many samples above it

END_TO_END_UNITS = {
    "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "api_s": "s",
}
PER_LAYER_UNITS = {
    "dataset_io.load_s": "s", "dataset_io.input_bytes": "bytes",
    "text_norm.tokenize_s": "s", "text_norm.tokens": "count",
    "cider.idf_s": "s", "cider.idf_grams": "count",
    "bleu.score_s": "s", "cider.score_s": "s", "rouge.score_s": "s",
    "meteor.score_s": "s", "meteor.align_p50_ms": "ms", "meteor.align_p99_ms": "ms",
    "meteor.chunks_total": "count",
    "scoring.units": "count", "scoring.unit_p50_ms": "ms", "scoring.unit_p99_ms": "ms",
    "scoring.self_s": "s",
    "vqa.accuracy_s": "s", "vqa.resolved_ratio": "ratio",
    "report.render_s": "s",
}


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")
        return problem is None


def summary(samples: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    ordered = sorted(samples)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "samples": len(ordered)}


def tail(samples: list[float]) -> dict:
    """The highest whole percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in range(99, 0, -1):
        value = ordered[max(0, math.ceil(percentile * n / 100) - 1)]
        beyond = n - bisect.bisect_right(ordered, value)
        if beyond >= TAIL_BEYOND:
            break
    return {"value": value, "percentile": percentile, "beyond": beyond, "samples": n,
            "max": ordered[-1]}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(WORKERS_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], env: dict, stdout_path: Path) -> dict:
    """Run one child to completion: exit code, stdout, wall, CPU and peak RSS."""
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": child.returncode,
        "stdout": stdout_path.read_bytes(),
        "stderr": stderr_path.read_text(errors="replace").strip(),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }


def score_all_argv(files: dict, workers: int | None = None) -> list[str]:
    argv = [
        sys.executable, "-m", "capvqa.cli", "score-all",
        "--gt-captions", str(files["gt_captions"]),
        "--pred-captions", str(files["pred_captions"]),
        "--gt-vqa", str(files["gt_vqa"]),
        "--pred-vqa", str(files["pred_vqa"]),
        "--format", "json",
    ]
    if workers is not None:
        argv += ["--workers", str(workers)]
    return argv


def check_report(document: dict) -> str | None:
    """Every score finite and in its range."""
    for split in ("internal", "external"):
        scores = document[split]
        for name in ("bleu4", "meteor", "rouge_l"):
            if not 0.0 <= scores[name] <= 1.0:
                return f"{split}.{name} = {scores[name]!r} is outside [0, 1]"
        if not 0.0 <= scores["cider"] <= 10.0:
            return f"{split}.cider = {scores['cider']!r} is outside [0, 10]"
    if not 0.0 <= document["acc"] <= 1.0:
        return f"acc = {document['acc']!r} is outside [0, 1]"
    for name in ("cap_score", "s2"):
        if not (math.isfinite(document[name]) and document[name] >= 0.0):
            return f"{name} = {document[name]!r} is not a finite non-negative number"
    return None


def check_against_library(document: dict, captions, result) -> str | None:
    """The CLI report equals the in-process `score_captions` and `accuracy` results."""
    from capvqa import composite

    for split, scores in (("internal", captions.internal), ("external", captions.external)):
        expected = dict(segments=scores.segments, **scores.as_dict())
        got = {key: document[split][key] for key in expected}
        if got != expected:
            return f"{split} is {got}, the library gives {expected}"
    aggregated = composite.aggregate_splits(captions.internal, captions.external)
    final = composite.s2(composite.cap_score(**aggregated), result.acc_float)
    got = (document["cap_score"], document["acc"], document["s2"])
    if got != (final.cap_score, final.acc, final.s2):
        return f"(cap_score, acc, s2) is {got}, the library gives {final}"
    return None


def check_oracles(inputs: dict, captions, oracles) -> list[tuple[str, str | None]]:
    """Fixed, evenly spaced units re-scored by the brute-force oracles."""
    from capvqa import tokenize

    gt = {(s.id, g.phase): g for s in inputs["gt"].scenarios for g in s.segments}
    pred = {(s.id, g.phase): g for s in inputs["pred"].scenarios for g in s.segments}
    segments = captions.segments
    outcomes = []
    for i in range(min(ORACLE_UNITS, len(segments))):
        score = segments[i * len(segments) // ORACLE_UNITS]
        key = (score.scenario_id, score.phase)
        field = f"{score.perspective}_caption"
        reference = tokenize(getattr(gt[key], field))
        candidate = tokenize(getattr(pred[key], field)) if key in pred else []
        expected = {
            "bleu4": oracles.bleu4_reference(candidate, [reference]),
            "rouge_l": oracles.rouge_l_reference(candidate, reference),
            "meteor": oracles.meteor_reference(candidate, [reference]),
        }
        problem = None
        for name, value in expected.items():
            if not math.isclose(getattr(score, name), value, rel_tol=1e-9, abs_tol=1e-12):
                problem = f"{name} {getattr(score, name)!r}, oracle {value!r}"
        outcomes.append((f"oracle {score.scenario_id}/{score.phase}/{score.perspective}", problem))
    return outcomes


def library_call(inputs: dict):
    """The library path a user pays for: caption scores plus VQA accuracy."""
    from capvqa import scoring, vqa

    captions = scoring.score_captions(inputs["gt"], inputs["pred"])
    return captions, vqa.accuracy(inputs["items"], inputs["answers"])


def measure_end_to_end(workload: str, files: dict, seconds: float, work: Path, checks: Checks):
    env = child_env()
    details: dict = {}

    # Set-up: a fresh interpreter importing the CLI. One untimed start
    # first, so every timed start sees warm file caches; the timed ones are
    # spread over the run, like the other samples.
    def time_setup(timed: bool) -> None:
        child = run_process([sys.executable, "-c", "import capvqa.cli"], env, work / "setup.out")
        if checks.record("import capvqa.cli", child["stderr"] if child["code"] else None) and timed:
            setup.append(child["wall"])

    setup: list[float] = []
    time_setup(timed=False)

    reference = run_process(score_all_argv(files, workers=1), env, work / "reference.out")
    document = None
    problem = f"exit {reference['code']}: {reference['stderr']}" if reference["code"] else None
    if problem is None:
        try:
            document = json.loads(reference["stdout"])
            problem = check_report(document)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report: {exc!r}"
    checks.record("score-all --workers 1", problem)
    details["report_sha256"] = hashlib.sha256(reference["stdout"]).hexdigest()

    import tracing

    inputs = tracing.load(tracing.Tracer(), files)
    runs, calls = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs) < MIN_SAMPLES:
        child = run_process(score_all_argv(files), env, work / "score_all.out")
        if child["code"]:
            problem = f"exit {child['code']}: {child['stderr']}"
        elif child["stdout"] != reference["stdout"]:
            problem = "stdout differs from the --workers 1 report"
        else:
            problem = None
        checks.record("score-all", problem)
        runs.append(child)

        gc.collect()
        started = time.perf_counter()
        captions, result = library_call(inputs)
        calls.append(time.perf_counter() - started)
        problem = "no report to compare" if document is None else None
        if document is not None:
            try:
                problem = check_against_library(document, captions, result)
            except (KeyError, TypeError) as exc:
                problem = f"unreadable report: {exc!r}"
        checks.record("score_captions + accuracy", problem)
        for _ in range(SETUP_PER_SAMPLE):
            time_setup(timed=True)

    if workload == "short-distinct":
        spec = importlib.util.spec_from_file_location("oracles", ORACLES)
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        for what, problem in check_oracles(inputs, captions, oracles):
            checks.record(what, problem)

    samples = {
        "run_s": [r["wall"] for r in runs],
        "cpu_s": [r["cpu"] for r in runs],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
        "setup_s": setup,
        "api_s": calls,
    }
    details["samples"] = {name: summary(values) for name, values in samples.items()}
    metrics = {name: details["samples"][name]["median"] for name in END_TO_END_UNITS}
    return metrics, details


def measure_layers(workload: str, seed: int, files: dict, seconds: float, checks: Checks):
    import tracing
    from capvqa import scoring

    tracer = tracing.Tracer()
    per_pass: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    align_ms, unit_ms = [], []
    traced_api, untraced_api = [], []
    workers = effective_workers()
    # The thread pool, and with it the `workers` parameter, is slated for
    # removal; without it, the library call already is what the CLI runs.
    takes_workers = "workers" in inspect.signature(scoring.score_captions).parameters

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_api:
        tracer.trace_id += 1
        gc.collect()
        inputs = tracing.load(tracer, files)
        gc.collect()
        started = time.perf_counter()
        captions, accuracy, counts = tracing.score_all(tracer, inputs)
        traced_api.append(time.perf_counter() - started)

        gc.collect()
        started = time.perf_counter()
        expected = library_call(inputs)
        untraced_api.append(time.perf_counter() - started)
        same = (captions, accuracy) == expected
        checks.record("traced pipeline", None if same else "scores differ from score_captions")

        # score_captions at the CLI's worker count, so its own time includes the fan-out.
        gc.collect()
        kwargs = {"workers": workers} if takes_workers else {}
        started = time.perf_counter()
        scoring.score_captions(inputs["gt"], inputs["pred"], **kwargs)
        score_captions_s = time.perf_counter() - started

        spans = tracer.durations(tracer.trace_id)
        total = dict.fromkeys(tracing.TRACED, 0.0) | {
            name: math.fsum(values) for name, values in spans.items()
        }
        resolved, present = tracing.resolved_answers(inputs["items"], inputs["answers"])
        values = {
            "dataset_io.load_s": total["dataset_io.load"],
            "dataset_io.input_bytes": sum(Path(path).stat().st_size for path in files.values()),
            "text_norm.tokenize_s": total["text_norm.tokenize"],
            "text_norm.tokens": counts.get("text_norm.tokenize", 0),
            "cider.idf_s": total["cider.idf"],
            "cider.idf_grams": counts.get("cider.idf", 0),
            "bleu.score_s": total["bleu.score"],
            "cider.score_s": total["cider.score"],
            "rouge.score_s": total["rouge.score"],
            "meteor.score_s": total["meteor.score"],
            "meteor.chunks_total": counts.get("meteor.align", 0),
            "scoring.units": len(captions.segments),
            "scoring.self_s": score_captions_s - sum(total[name] for name in tracing.LAYER_SPANS),
            "vqa.accuracy_s": total["vqa.accuracy"],
            "vqa.resolved_ratio": resolved / present,
            "report.render_s": total["report.render"],
        }
        for name, value in values.items():
            per_pass[name].append(value)
        align_ms += [1e3 * d for d in spans.get("meteor.align", ())]
        unit_ms += [1e3 * d for d in spans.get("scoring.unit", ())]

    details = {
        "passes": len(traced_api),
        "workers_for_self_s": workers if takes_workers else 1,
        "spans_never_entered": sorted(set(tracing.TRACED) - set(spans)),
        "tails": {},
        "tracing_overhead_s": statistics.median(traced_api) - statistics.median(untraced_api),
        "traced_api_s": summary(traced_api),
        "untraced_api_s": summary(untraced_api),
    }
    for prefix, samples in (("meteor.align", align_ms), ("scoring.unit", unit_ms)):
        found = tail(samples or [0.0])
        per_pass[f"{prefix}_p50_ms"] = [statistics.median(samples or [0.0])]
        per_pass[f"{prefix}_p99_ms"] = [found["value"]]
        details["tails"][f"{prefix}_p99_ms"] = found
    metrics = {name: statistics.median(per_pass[name]) for name in PER_LAYER_UNITS}
    details["samples"] = {name: summary(per_pass[name]) for name in PER_LAYER_UNITS}
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for trace_id, name, start, end, parent in tracer.spans:
            handle.write(json.dumps([trace_id, name, start, end, parent]) + "\n")
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, details


def effective_workers() -> int:
    """The worker count `score-all` uses when neither --workers nor the variable is set."""
    from capvqa import cli

    # Kept working for when the thread pool, and this helper, are gone: one worker then.
    default = getattr(cli, "_default_workers", None)
    return default() if default else 1


def cpu_ticks() -> list[int] | None:
    """The machine's CPU time counters from /proc/stat, or None where there is none."""
    try:
        return [int(field) for field in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of the machine's CPU time a hypervisor gave to other guests in between."""
    if not before or not after or len(before) < 8:
        return None
    elapsed = [b - a for a, b in zip(before, after)]
    return elapsed[7] / sum(elapsed) if sum(elapsed) else None


def environment() -> dict:
    import capvqa

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "capvqa").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "capvqa_version": capvqa.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workers": effective_workers(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "capvqa" / "cli.py").is_file():
        print(f"error: no capvqa sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not ORACLES.is_file():
        print(f"error: {ORACLES} is missing; the oracle check needs it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ.pop(WORKERS_ENV_VAR, None)
    import corpus

    missing = [name for name in corpus.FIXTURE_FILES if not (corpus.FIXTURES / name).is_file()]
    if missing:
        print(f"error: {missing} missing from {corpus.FIXTURES}; the corpus needs them",
              file=sys.stderr)
        return 2
    if args.workload not in corpus.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(corpus.WORKLOADS)}")

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    ticks = cpu_ticks()
    try:
        files = corpus.write_workload(args.workload, args.seed, work / "inputs")
        if args.trace:
            metrics, details = measure_layers(args.workload, args.seed, files, args.seconds, checks)
            units = PER_LAYER_UNITS
        else:
            metrics, details = measure_end_to_end(args.workload, files, args.seconds, work, checks)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        why=corpus.WORKLOADS[args.workload].why, environment=environment(),
        attempted=checks.attempted, failures=checks.failures,
        steal_share=steal_share(ticks, cpu_ticks()),
    )
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {details['why']}")
    for name, value in metrics.items():
        stats = details["samples"][name]
        print(f"{name:24s} {value:14.6f} {units[name]:6s} "
              f"q1 {stats['q1']:.6f} q3 {stats['q3']:.6f} n={stats['samples']}")
    for name, found in details.get("tails", {}).items():
        print(f"# {name} is p{found['percentile']} of {found['samples']} samples "
              f"({found['beyond']} above it, max {found['max']:.6f})")
    if "tracing_overhead_s" in details:
        print(f"# tracing overhead: traced api_s {details['traced_api_s']['median']:.6f} s - "
              f"untraced {details['untraced_api_s']['median']:.6f} s = "
              f"{details['tracing_overhead_s']:.6f} s")
    if "report_sha256" in details:
        print(f"# report sha256 {details['report_sha256']}")
    if details["steal_share"] is not None:
        print(f"# CPU time stolen by the hypervisor during the run: {details['steal_share']:.1%}")
    print("# environment " + json.dumps(details["environment"]))
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    print(f"# details in {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
