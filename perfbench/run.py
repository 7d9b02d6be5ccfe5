"""serpsim benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed (untimed) into a temporary directory under
``.perfbench_work/``, then runs repetitions of the workload, each in a
fresh child Python process, one at a time and single-threaded, until
the ``--seconds`` budget is spent (at least three with ``--trace 0``).

``--trace 0`` reports the end-to-end metrics: ``job_s`` (seconds from
inputs to complete result, summed over the workload's timed calls),
``setup_s`` (child start until serpsim is imported, the CLI parser built
and the stopwords loaded) and ``peak_rss_mb`` (the child's ru_maxrss),
each the median over repetitions. ``--trace 1`` spends half the budget on
untraced repetitions (at least two), then runs one traced repetition and
reports per-layer metrics from spans around serpsim's public functions
(see ``tracing.py``).

Every output is checked: the sha256 of each output must be the same in
every repetition, traced or not, and for the default seed must match
``reference.json``; seeded spot checks (see ``child.py``) run for any
seed. A failed or wrong call counts in ``failed``; the last stdout line
is the JSON result, and the exit code is 1 if anything was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
DEADLINE_S = 170.0
MIN_REPS = 3
TRACE_UNTRACED_REPS = 2
SETUP_PROBES = 8

#: Timed calls per repetition, counted as failed if a child dies.
CALLS_PER_REP = {"panel-session": 7, "crawl-drift": 1, "import-convert": 1}
COMMANDS = ("load", "matrix", "sweep", "drift", "import")

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPAN_CALLS = (
    "textsim.tokenize", "textsim.cosine_distance", "combined.penalty_components",
    "combined.score_from_components", "urlnorm.canonicalize", "urlnorm.resolve_redirects",
    "dataset_io.decode", "model.validate_ranked_list",
)
_SPAN_SELF = (
    "textsim.tokenize", "textsim.cosine_distance", "textsim.content_penalty",
    "combined.penalty_components", "combined.score_from_components",
    "rank_metrics.RankAlignment.from_lists", "rank_metrics.transposition_penalty",
    "urlnorm.canonicalize", "urlnorm.resolve_redirects",
    "dataset_io.decode", "dataset_io.load_dataset", "model.validate_ranked_list",
    "dataset_io.import_dataset", "dataset_io.dumps_dataset",
    "analysis.similarity_matrix", "analysis.impact_sweep", "analysis.cross_period_drift",
    "cli.run_cli", "dataset_io.format_matrix",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _SPAN_CALLS},
    **{f"{name}.self_s": "s" for name in _SPAN_SELF},
    "textsim.tokenize.calls_per_cell": "calls/cell",
    "urlnorm.canonicalize.calls_per_url": "calls/url",
    "urlnorm.urls_rewritten": "count",
    "urlnorm.redirects_applied": "count",
    "model.results_built": "count",
    "model.results_built_per_input": "results/input",
    "analysis.cells_scored": "count",
    "analysis.cells_na": "count",
    "trace.overhead_ratio": "ratio",
    **{f"cmd.{command}_s": "s" for command in COMMANDS},
}


class Failure(Exception):
    """The benchmark cannot run here at all; no result is printed."""


class Child:
    """One finished child process: set-up time and its report."""

    def __init__(self, setup_s: float, report: dict | None, error: str | None):
        self.setup_s = setup_s
        self.report = report
        self.error = error

    @property
    def job_s(self) -> float:
        return sum(call["seconds"] for call in self.report["calls"])

    def command_s(self, command: str) -> float:
        return sum(c["seconds"] for c in self.report["calls"] if c["command"] == command)


class Bench:
    def __init__(self, workload: str, seed: int, inputs: Path, out: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.out = out
        self.started = time.monotonic()
        # Children import serpsim from cached bytecode, as an installed
        # package would, even where the environment turns bytecode off.
        self.env = dict(os.environ, PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: str) -> Child:
        argv = [sys.executable, str(HERE / "child.py"), self.workload, str(self.inputs),
                str(self.out), str(self.seed), mode]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            stdout, stderr = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Child(0.0, None, f"{mode} child timed out")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if ready.strip() != "ready":
            raise Failure(f"child did not get ready:\n{ready}{stderr}")
        if proc.returncode != 0 or (mode != "setup" and not stdout.strip()):
            return Child(setup_s, None, f"{mode} child exited {proc.returncode}:\n{stderr}")
        report = json.loads(stdout.strip().splitlines()[-1]) if mode != "setup" else None
        return Child(setup_s, report, None)

    def repetitions(self, mode: str, budget: float, minimum: int) -> list[Child]:
        reps: list[Child] = []
        spent = last = 0.0
        while len(reps) < minimum or spent + last <= budget:
            if self.remaining() < 2 * last:
                break
            start = time.monotonic()
            # Outputs are identical across repetitions (their digests are
            # compared), so the spot checks run once per run.
            reps.append(self.child("checked" if mode == "plain" and not reps else mode))
            last = time.monotonic() - start
            spent += last
        return reps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Verdict:
    """Counts timed calls attempted and failed, checking every output."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.expected = (reference["digests"].get(workload, {})
                         if seed == reference["default_seed"] else {})

    def check(self, child: Child, mode: str) -> None:
        if child.report is None:
            self.attempted += CALLS_PER_REP[self.workload]
            self.failed += CALLS_PER_REP[self.workload]
            self.problems.append(child.error)
            return
        for call in child.report["calls"]:
            self.attempted += 1
            problems = list(call["errors"])
            for name, digest in call["digests"].items():
                first = self.digests.setdefault(name, digest)
                if digest != first:
                    problems.append(f"{name}: {mode} output differs from the first repetition")
                if name in self.expected and digest != self.expected[name]:
                    problems.append(f"{name}: sha256 differs from reference.json")
            if not call["digests"] and not call["errors"]:
                problems.append("no output")
            if problems:
                self.failed += 1
                self.problems += [f"{call['command']} {call['label']}: {p}" for p in problems]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def layer_metrics(traced: Child, plain: list[Child], properties: dict) -> dict[str, float]:
    trace = traced.report["trace"]
    spans, counters = trace["spans"], trace["counters"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for name in _SPAN_CALLS:
        metrics[f"{name}.calls"] = span(name, "calls")
    for name in _SPAN_SELF:
        metrics[f"{name}.self_s"] = span(name, "self_s")
    metrics["textsim.tokenize.calls_per_cell"] = ratio(
        span("textsim.tokenize", "calls"), trace["cells_scored"])
    metrics["urlnorm.canonicalize.calls_per_url"] = ratio(
        trace["canonicalize_in_load"], properties["results"])
    for name in ("urlnorm.urls_rewritten", "urlnorm.redirects_applied", "model.results_built"):
        metrics[name] = counters.get(name, 0)
    metrics["model.results_built_per_input"] = ratio(
        counters.get("model.results_built", 0), properties["results"])
    metrics["analysis.cells_scored"] = trace["cells_scored"]
    metrics["analysis.cells_na"] = trace["cells_na"]
    metrics["trace.overhead_ratio"] = ratio(
        traced.job_s, statistics.median(c.job_s for c in plain))
    for command in COMMANDS:
        metrics[f"cmd.{command}_s"] = statistics.median(c.command_s(command) for c in plain)
    return metrics


def _describe(name: str, values: list[float], unit: str) -> str:
    q1, median, q3 = quartiles(values)
    return f"{name:<14} median {median:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "serpsim" / "__init__.py").is_file():
        raise Failure(f"serpsim sources not found under {ROOT / 'src'}")
    if not REFERENCE.is_file():
        raise Failure(f"{REFERENCE.name} not found")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        inputs.mkdir()
        out.mkdir()
        meta = gen.generate(workload, seed, inputs)
        print(f"workload {workload}  seed {seed}  inputs "
              + "  ".join(f"{k}={v}" for k, v in meta["properties"].items()))
        bench = Bench(workload, seed, inputs, out)
        bench.child("setup")  # warm-up: checks the import and compiles bytecode
        verdict = Verdict(workload, seed)
        setups = [bench.child("setup").setup_s for _ in range(SETUP_PROBES)]

        if trace:
            plain = bench.repetitions("plain", seconds / 2, TRACE_UNTRACED_REPS)
            traced = bench.child("traced")
            for child in plain:
                verdict.check(child, "untraced")
            verdict.check(traced, "traced")
        else:
            plain = bench.repetitions("plain", seconds, MIN_REPS)
            for child in plain:
                verdict.check(child, "untraced")
        good = [c for c in plain if c.report is not None]
        setups += [c.setup_s for c in good]

        for problem in verdict.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        print(f"repetitions {len(plain)}  failed_ratio {verdict.failed}/{verdict.attempted}")
        if good:
            print(_describe("job_s", [c.job_s for c in good], "s"))
            for command in COMMANDS:
                times = [c.command_s(command) for c in good]
                if any(times):
                    print(_describe(f"{command}_s", times, "s"))
            print(_describe("setup_s", setups, "s"))
            print(_describe("peak_rss_mb", [c.report["peak_rss_mb"] for c in good], "MB"))
        print("digests " + json.dumps(verdict.digests, sort_keys=True))

        metrics: dict[str, float] = {}
        units = PER_LAYER if trace else END_TO_END
        if trace and traced.report is not None and good:
            absent = traced.report["trace"]["absent"]
            if absent:
                print("absent from the program, reported as 0: " + ", ".join(absent))
            metrics = layer_metrics(traced, good, meta["properties"])
        elif not trace and good:
            metrics = {
                "job_s": statistics.median(c.job_s for c in good),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(c.report["peak_rss_mb"] for c in good),
            }
        result = {
            "correct": verdict.correct and bool(metrics),
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if result["correct"] else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so a running child is stopped too
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
