"""Spans and counters around serpsim's public functions, from outside.

``Tracer.install()`` replaces every module binding of each traced name
with a wrapper that records a span (name, start, end, parent). A name
imported into several modules, such as ``content_penalty`` (used by
``combined``) or ``penalty_components`` (used by ``analysis``), is
wrapped wherever it is bound, so no caller bypasses the wrapper.
``uninstall()`` puts every original back. A traced name that no longer
exists is listed in ``absent`` instead of raising, so the benchmark
keeps working across refactors and reports what it could not see.

Spans stay in memory in flat arrays; ``summary()`` turns them into
per-name call counts, total time and self time (duration minus the
time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

PACKAGE = "serpsim"

#: Functions and methods wrapped with a span, as "module.qualname".
SPANNED = (
    "cli.run_cli",
    "dataset_io.load_dataset",
    "dataset_io.import_dataset",
    "dataset_io.dumps_dataset",
    "dataset_io.format_matrix",
    "model.validate_ranked_list",
    "urlnorm.canonicalize",
    "urlnorm.resolve_redirects",
    "textsim.tokenize",
    "textsim.cosine_distance",
    "textsim.content_penalty",
    "rank_metrics.RankAlignment.from_lists",
    "rank_metrics.transposition_penalty",
    "combined.penalty_components",
    "combined.score_from_components",
    "analysis.similarity_matrix",
    "analysis.impact_sweep",
    "analysis.cross_period_drift",
)

#: ``json.loads`` as called through ``dataset_io``'s own ``json`` binding.
DECODE = "dataset_io.decode"

#: Counter of SearchResult objects constructed.
RESULTS_BUILT = "model.results_built"


#: Counter bumped when a call returns another URL than it was given.
_URL_CHANGED = {
    "urlnorm.canonicalize": "urlnorm.urls_rewritten",
    "urlnorm.resolve_redirects": "urlnorm.redirects_applied",
}


class _Proxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, target: Any, **overrides: Any):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._target, attr)


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        idx = self._name_index(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, counters = self._stack, self.counters
        changed = _URL_CHANGED.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(span)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()
            if changed is not None and result != (args[0] if args else kwargs.get("url")):
                counters[changed] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_calls(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- installing --------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original: Any, replacement: Any) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _resolve(self, dotted: str) -> tuple[Any, str] | None:
        """(owner, attribute) for "module.qualname", or None if absent."""
        module_name, *path = dotted.split(".")
        try:
            owner: Any = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return None
        if path[-1] not in vars(owner):
            return None
        return owner, path[-1]

    def _install_spanned(self, name: str) -> None:
        found = self._resolve(name)
        if found is None:
            self.absent.append(name)
            return
        owner, attr = found
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, attr, type(raw)(self.wrap(name, raw.__func__)))
            else:
                self._set(owner, attr, self.wrap(name, raw))
        else:
            self._rebind_everywhere(raw, self.wrap(name, raw))

    def install(self) -> None:
        for name in SPANNED:
            self._install_spanned(name)
        found = self._resolve("dataset_io.json")
        json_mod = vars(found[0])[found[1]] if found else None
        if callable(getattr(json_mod, "loads", None)):
            self._set(*found, _Proxy(json_mod, loads=self.wrap(DECODE, json_mod.loads)))
        else:
            self.absent.append(DECODE)
        found = self._resolve("model.SearchResult.__init__")
        if found is None:
            self.absent.append(RESULTS_BUILT)
        else:
            owner, attr = found
            self._set(owner, attr, self._count_calls(RESULTS_BUILT, vars(owner)[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for i, idx in enumerate(self.span_name):
            duration = ends[i] - starts[i]
            calls[idx] += 1
            total[idx] += duration
            self_time[idx] += duration - covered[i]
        return {
            name: {"calls": calls[i], "total_s": total[i], "self_s": self_time[i]}
            for i, name in enumerate(self.names)
        }

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` that have a span named ``ancestor`` above them."""
        if name not in self._index or ancestor not in self._index:
            return 0
        idx, anc = self._index[name], self._index[ancestor]
        names, parents = self.span_name, self.span_parent
        inside: dict[int, bool] = {-1: False}

        def under(span: int) -> bool:
            chain = []
            while span not in inside:
                if names[span] == anc:
                    inside[span] = True
                    break
                chain.append(span)
                span = parents[span]
            verdict = inside[span]
            for s in chain:
                inside[s] = verdict
            return verdict

        return sum(1 for i in range(len(names)) if names[i] == idx and under(parents[i]))
