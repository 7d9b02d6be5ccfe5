"""Fast self-test of the benchmark itself, at a tiny input size.

    python3 perfbench/selftest.py

Checks that the generator is deterministic, that tracing changes no
output, that every traced name records calls where a workload does that
work (a zero count there means a binding was missed), that uninstalling
restores the program, and that the metric tables agree with
BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import serpsim  # noqa: E402
import serpsim.cli  # noqa: E402
import tracing  # noqa: E402

_SCORING = (
    "textsim.tokenize", "textsim.cosine_distance", "textsim.content_penalty",
    "rank_metrics.RankAlignment.from_lists", "rank_metrics.transposition_penalty",
    "combined.penalty_components", "combined.score_from_components",
)
_LOADING = ("dataset_io.load_dataset", "dataset_io.decode", "model.validate_ranked_list")

#: Span names each workload must call at least once.
BUSY = {
    "panel-session": _SCORING + _LOADING + (
        "analysis.similarity_matrix", "analysis.impact_sweep", "dataset_io.format_matrix"),
    "crawl-drift": _SCORING + _LOADING + (
        "cli.run_cli", "urlnorm.canonicalize", "urlnorm.resolve_redirects",
        "analysis.cross_period_drift"),
    "import-convert": (
        "cli.run_cli", "dataset_io.import_dataset", "dataset_io.dumps_dataset",
        "dataset_io.decode", "model.validate_ranked_list"),
}

#: Counters each workload must move.
COUNTED = {
    "panel-session": ("model.results_built",),
    "crawl-drift": ("model.results_built", "urlnorm.urls_rewritten", "urlnorm.redirects_applied"),
    "import-convert": ("model.results_built",),
}

SEED = 7


def _tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        cls.root = Path(cls._tmp.name)
        cls.inputs = {}
        for workload in gen.WORKLOADS:
            path = cls.root / workload
            path.mkdir()
            gen.generate(workload, SEED, path, tiny=True)
            cls.inputs[workload] = path

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def _run(self, workload: str, traced: bool):
        meta = json.loads((self.inputs[workload] / "meta.json").read_text(encoding="utf-8"))
        files = {k: str(self.inputs[workload] / v) for k, v in meta["files"].items()}
        out = self.root / f"{workload}-out-{int(traced)}"
        out.mkdir()
        workload_fn, checks, cells = child.WORKLOADS[workload]
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            calls = workload_fn(serpsim, files, out, SEED)
        finally:
            if tracer:
                tracer.uninstall()
        checks(serpsim, calls, SEED)
        for call in calls:
            self.assertEqual(call.errors, [], f"{workload} {call.command} {call.label}")
        return {k: v for c in calls for k, v in c.digests.items()}, tracer, cells(calls)

    def test_same_seed_same_bytes(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                again = self.root / f"{workload}-again"
                other = self.root / f"{workload}-other"
                again.mkdir()
                other.mkdir()
                gen.generate(workload, SEED, again, tiny=True)
                gen.generate(workload, SEED + 1, other, tiny=True)
                self.assertEqual(_tree(again), _tree(self.inputs[workload]))
                self.assertNotEqual(_tree(other), _tree(self.inputs[workload]))

    def test_tracing_preserves_outputs_and_sees_the_work(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                plain, _, _ = self._run(workload, traced=False)
                traced, tracer, (scored, _) = self._run(workload, traced=True)
                self.assertTrue(plain)
                self.assertEqual(traced, plain)
                self.assertEqual(tracer.absent, [])
                spans = tracer.summary()
                for name in BUSY[workload]:
                    self.assertGreater(spans.get(name, {}).get("calls", 0), 0, name)
                for name in COUNTED[workload]:
                    self.assertGreater(tracer.counters[name], 0, name)
                if workload != "import-convert":
                    self.assertGreater(scored, 0)

    def test_uninstall_restores_every_binding(self):
        before = {name: dict(vars(module)) for name, module in sys.modules.items()
                  if name.startswith("serpsim")}
        methods = (vars(serpsim.RankAlignment)["from_lists"], serpsim.SearchResult.__init__)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(serpsim.combined.content_penalty, before["serpsim.combined"]["content_penalty"])
        self.assertIsNot(serpsim.analysis.penalty_components,
                         before["serpsim.analysis"]["penalty_components"])
        tracer.uninstall()
        after = {name: dict(vars(sys.modules[name])) for name in before}
        self.assertEqual(after, before)
        self.assertEqual((vars(serpsim.RankAlignment)["from_lists"], serpsim.SearchResult.__init__),
                         methods)

    def test_absent_name_is_reported_not_raised(self):
        saved = tracing.SPANNED
        tracing.SPANNED = saved + ("textsim.no_such_function", "no_such_module.f")
        try:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            tracing.SPANNED = saved
        self.assertEqual(tracer.absent, ["textsim.no_such_function", "no_such_module.f"])

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
        outer()
        spans = tracer.summary()
        self.assertEqual(spans["inner"]["calls"], 5)
        self.assertAlmostEqual(spans["outer"]["self_s"] + spans["inner"]["total_s"],
                               spans["outer"]["total_s"], places=9)
        self.assertEqual(tracer.calls_within("inner", "outer"), 5)

    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.WORKLOADS))
        reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
        self.assertEqual(set(reference["moves"]), set(run.PER_LAYER))
        self.assertEqual(set(reference["digests"]), set(gen.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
