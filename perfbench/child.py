"""One repetition of a benchmark workload, in a fresh Python process.

    python3 perfbench/child.py WORKLOAD INPUT_DIR OUT_DIR SEED MODE

MODE is ``plain``, ``checked`` (plain, then the seeded spot checks),
``traced`` or ``setup`` (stop once ready). The child
imports serpsim from the checkout's ``src``, builds the CLI parser and
loads the stopwords, then prints ``ready``; the parent's clock from
process start to that line is the set-up time. It then runs the
workload's timed calls one after another on this single thread and
prints one JSON line: per call its command, seconds, output digests and
any error or failed spot check, plus peak RSS and, when traced, the
trace summary.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PAIRS = (("acme", "bravo"), ("acme", "cobalt"), ("bravo", "cobalt"))
SWEEP_PAIR = ("acme", "bravo")
SWEEP_FACTORS = ("snippet", "title", "transposition")
DRIFT_ENGINE = "acme"
SPOT_CELLS = 20


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Call:
    """One timed call into serpsim and what became of it."""

    def __init__(self, command: str, label: str):
        self.command = command
        self.label = label
        self.seconds: float | None = None
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.value = None
        self.path: Path | None = None

    def run(self, fn):
        start = time.perf_counter()
        try:
            self.value = fn()
        except Exception:  # a failed call is recorded and counted, not fatal
            self.errors.append(traceback.format_exc(limit=3).strip())
        finally:
            self.seconds = time.perf_counter() - start
        return self.value

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def as_dict(self) -> dict:
        return {"command": self.command, "label": self.label, "seconds": self.seconds,
                "digests": self.digests, "errors": self.errors}


def _fmt(value: float) -> str:
    return f"{value:.4f}"


# -- panel-session: an analysis script using the library -------------------

def _series_text(serpsim, matrix) -> str:
    rows = [f"{day.isoformat()}\t{'NA' if v is None else _fmt(v)}\n"
            for day, v in serpsim.consistency_series(matrix)]
    return "".join(rows)


def _summary_text(serpsim, matrix) -> str:
    stats = serpsim.pair_summary(matrix)
    return "".join(f"{key}\t{_fmt(stats[key])}\n" for key in ("mean", "median", "min", "max"))


def _sweep_text(report) -> str:
    lines = [f"# factor\t{report.factor}\n", f"# base_mean\t{_fmt(report.base_mean)}\n"]
    lines += [f"{s:.2f}\t{p:.2f}\n" for s, p in zip(report.weight_steps, report.decrease_pct)]
    return "".join(lines)


def _spot_check_matrix(serpsim, call: Call, dataset, pair, tsv: str, seed: int) -> None:
    """Recompute sampled cells with combined_similarity; compare at 4 decimals."""
    lines = tsv.splitlines()
    queries = lines[1].split("\t")[1:]
    rows = [line.split("\t") for line in lines[2:]]
    rng = random.Random(f"spot:{seed}:{pair}")
    for _ in range(SPOT_CELLS):
        row = rng.choice(rows)
        j = rng.randrange(len(queries))
        day = dt.date.fromisoformat(row[0])
        lists = [dataset.get(engine, queries[j], day) for engine in pair]
        if None in lists:
            expected = "NA"
        else:
            expected = _fmt(serpsim.combined_similarity(*lists).score)
        if row[j + 1] != expected:
            call.fail(f"cell {row[0]}/{queries[j]}: tsv {row[j + 1]} != recomputed {expected}")


def panel_session(serpsim, files: dict, out_dir: Path, seed: int) -> list[Call]:
    load = Call("load", "panel")
    dataset = load.run(lambda: serpsim.load_dataset(files["panel"]))
    if dataset is not None:
        load.digests = {"load.lists": _digest(f"{len(dataset)}\t{dataset.engines()}")}
    calls = [load]
    for pair in PAIRS:
        call = Call("matrix", "-".join(pair))
        calls.append(call)
        if dataset is None:
            call.fail("not run: load failed")
            continue

        def matrix(pair=pair):
            m = serpsim.similarity_matrix(dataset, *pair)
            return serpsim.format_matrix(m), _series_text(serpsim, m), _summary_text(serpsim, m)

        texts = call.run(matrix)
        if texts is not None:
            call.digests = {f"{call.label}.{kind}": _digest(text)
                            for kind, text in zip(("tsv", "consistency", "summary"), texts)}
    for factor in SWEEP_FACTORS:
        call = Call("sweep", factor)
        calls.append(call)
        if dataset is None:
            call.fail("not run: load failed")
            continue
        text = call.run(lambda f=factor: _sweep_text(serpsim.impact_sweep(dataset, *SWEEP_PAIR, f)))
        if text is not None:
            call.digests = {f"sweep.{factor}": _digest(text)}
    return calls


def panel_session_checks(serpsim, calls: list[Call], seed: int) -> None:
    dataset = calls[0].value
    for call, pair in zip(calls[1:1 + len(PAIRS)], PAIRS):
        if call.value is not None:
            _spot_check_matrix(serpsim, call, dataset, pair, call.value[0], seed)


def _cells(call: Call) -> tuple[int, int]:
    """(scored, NA) cells in a matrix call's TSV."""
    cells = [c for line in call.value[0].splitlines()[2:] for c in line.split("\t")[1:]]
    na = cells.count("NA")
    return len(cells) - na, na


def panel_session_cells(calls: list[Call]) -> tuple[int, int]:
    scored = na = 0
    sweep_cells = 0
    for call in calls[1:1 + len(PAIRS)]:
        if call.value is not None:
            s, n = _cells(call)
            scored, na = scored + s, na + n
            if call.label == "-".join(SWEEP_PAIR):
                sweep_cells = s
    return scored + sweep_cells * len(SWEEP_FACTORS), na


# -- crawl-drift and import-convert: cold CLI commands ---------------------

def _cli_call(serpsim, command: str, label: str, argv: list[str], out: Path) -> Call:
    call = Call(command, label)
    call.path = out
    out.unlink(missing_ok=True)
    code = call.run(lambda: serpsim.cli.run_cli(argv))
    if code != 0:
        call.fail(f"exit code {code}")
    elif not out.exists():
        call.fail(f"no output written to {out.name}")
    else:
        call.value = out.read_bytes()
        call.digests = {f"{command}.out": _digest(call.value)}
    return call


def crawl_drift(serpsim, files: dict, out_dir: Path, seed: int) -> list[Call]:
    out = out_dir / "drift.tsv"
    argv = ["drift", "--old", files["old"], "--new", files["new"], "--engine", DRIFT_ENGINE,
            "--redirects", files["redirects"], "-o", str(out)]
    return [_cli_call(serpsim, "drift", DRIFT_ENGINE, argv, out)]


def crawl_drift_checks(serpsim, calls: list[Call], seed: int) -> None:
    call = calls[0]
    if call.value is None:
        return
    lines = call.value.decode("utf-8").splitlines()
    per_query = [float(line.split("\t")[1]) for line in lines[1:-1]]
    label, mean = lines[-1].split("\t")
    # Each per-query line is rounded to 4 decimals, so their mean may sit
    # up to one unit of the last place away from the rounded mean line.
    if label != "mean" or not per_query or abs(float(mean) - statistics.fmean(per_query)) > 1.0001e-4:
        call.fail(f"mean line {lines[-1]!r} does not match {len(per_query)} per-query lines")


def crawl_drift_cells(calls: list[Call]) -> tuple[int, int]:
    value = calls[0].value
    return (len(value.decode("utf-8").splitlines()) - 2 if value else 0), 0


def import_convert(serpsim, files: dict, out_dir: Path, seed: int) -> list[Call]:
    out = out_dir / "imported.jsonl"
    argv = ["import", "--input", files["flat"], "--mapping", files["mapping"], "-o", str(out)]
    return [_cli_call(serpsim, "import", "flat", argv, out)]


def import_convert_checks(serpsim, calls: list[Call], seed: int) -> None:
    call = calls[0]
    if call.value is None:
        return
    redumped = serpsim.dumps_dataset(serpsim.load_dataset(call.path)).encode("utf-8")
    if redumped != call.value:
        call.fail("re-loading and re-dumping the import output changed its bytes")


WORKLOADS = {
    "panel-session": (panel_session, panel_session_checks, panel_session_cells),
    "crawl-drift": (crawl_drift, crawl_drift_checks, crawl_drift_cells),
    "import-convert": (import_convert, import_convert_checks, lambda calls: (0, 0)),
}


def main(argv: list[str]) -> int:
    workload, input_dir, out_dir, seed, mode = argv
    sys.path.insert(0, str(SRC))
    import serpsim
    import serpsim.cli

    serpsim.cli.build_parser()
    serpsim.textsim.default_stopwords()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    sys.path.insert(0, str(HERE))
    import tracing

    run, checks, cells = WORKLOADS[workload]
    meta = json.loads((Path(input_dir) / "meta.json").read_text(encoding="utf-8"))
    files = {key: str(Path(input_dir) / name) for key, name in meta["files"].items()}
    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    try:
        calls = run(serpsim, files, Path(out_dir), int(seed))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "checked":
        checks(serpsim, calls, int(seed))
    report = {"calls": [c.as_dict() for c in calls], "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        scored, na = cells(calls)
        report["trace"] = {
            "spans": tracer.summary(),
            "counters": dict(tracer.counters),
            "absent": tracer.absent,
            "canonicalize_in_load": tracer.calls_within(
                "urlnorm.canonicalize", "dataset_io.load_dataset"),
            "cells_scored": scored,
            "cells_na": na,
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
