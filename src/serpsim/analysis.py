"""Batch analyses over collections of ranked lists.

Builds day-by-query similarity matrices for an engine pair, collapses
them into per-day consistency series and summary statistics, sweeps a
single penalty weight to gauge how much each factor moves the score,
and measures how far one engine's results drift between two crawl
periods.
"""

from __future__ import annotations

import datetime as dt
import statistics
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Mapping

from .combined import (
    PenaltyComponents, _base_boost, combined_similarity, penalty_components, score_from_components,
)
from .errors import ValidationError
from .model import DEFAULT_CONFIG, MetricConfig, RankedList, SimilarityMatrix
from .textsim import _kept_in

#: Key identifying one ranked list: (engine, query, date).
RecordKey = tuple[str, str, dt.date]

PairMetric = Callable[[RankedList, RankedList], float]

#: An engine pair's date axis, query axis and ``(row, col, components)`` cells.
PairComponents = tuple[
    tuple[dt.date, ...], tuple[str, ...], list[tuple[int, int, PenaltyComponents]]
]

SWEEP_FACTORS = ("snippet", "title", "transposition")

DEFAULT_SWEEP_STEPS = tuple(round(0.1 * i, 1) for i in range(1, 11))


class SerpDataset:
    """An indexed collection of ranked lists, one per (engine, query, date).

    Each list is indexed by engine, then query, then date; a second list
    with the same key is a ValidationError. ``categories`` optionally
    maps a query to a topic label; it is carried along for reporting and
    never affects any score. The dataset keeps each engine pair's
    ``PenaltyComponents`` once measured, keyed by ``(engine_a, engine_b,
    stopwords)`` and reused by every later matrix and sweep over that pair,
    and the content table that ``content_penalty`` keeps while it measures
    any of its pairs, so each text is tokenized once per query and
    stopword set across all pairs; both are freed with the dataset.
    """

    def __init__(
        self, lists: Iterable[RankedList], categories: Mapping[str, str] | None = None
    ):
        self._index: dict[str, dict[str, dict[dt.date, RankedList]]] = {}
        for ranked in lists:
            by_date = self._index.setdefault(ranked.engine, {}).setdefault(ranked.query, {})
            if ranked.date in by_date:
                key = (ranked.engine, ranked.query, ranked.date)
                raise ValidationError(f"duplicate record for {key}")
            by_date[ranked.date] = ranked
        self.categories = dict(categories or {})
        self._components: dict[tuple[str, str, frozenset[str] | None], PairComponents] = {}
        self._texts: dict = {}  # textsim's content table for this dataset's walks

    def __len__(self) -> int:
        by_query = (queries.values() for queries in self._index.values())
        return sum(len(by_date) for dicts in by_query for by_date in dicts)

    def __iter__(self) -> Iterator[RecordKey]:
        for engine, queries in sorted(self._index.items()):
            for query, by_date in sorted(queries.items()):
                yield from ((engine, query, date) for date in sorted(by_date))

    def engines(self) -> tuple[str, ...]:
        return tuple(sorted(self._index))

    def queries(self, engine: str | None = None) -> tuple[str, ...]:
        return tuple(sorted({q for queries in _pick(self._index, engine) for q in queries}))

    def dates(self, engine: str | None = None, query: str | None = None) -> tuple[dt.date, ...]:
        by_query = (_pick(queries, query) for queries in _pick(self._index, engine))
        return tuple(sorted({d for dicts in by_query for by_date in dicts for d in by_date}))

    def get(self, engine: str, query: str, date: dt.date) -> RankedList | None:
        return self._index.get(engine, {}).get(query, {}).get(date)


def _pick(index: Mapping[Any, Mapping], key: Any) -> Iterable[Mapping]:
    """Every value of one level of the index if ``key`` is None, else only ``key``'s."""
    return index.values() if key is None else (index.get(key, {}),)


def _require_engines(dataset: SerpDataset, *engines: str) -> None:
    missing = [e for e in engines if e not in dataset._index]
    if missing:
        raise ValidationError(
            f"engine(s) not in dataset: {', '.join(sorted(missing))}; "
            f"available: {', '.join(dataset.engines())}"
        )


def _at_shared_depth(list_a: RankedList, list_b: RankedList) -> tuple[RankedList, RankedList]:
    """The pair, the deeper list cut to the shorter one's depth: the one depth rule."""
    if list_a.n == list_b.n:
        return list_a, list_b
    n = min(list_a.n, list_b.n)
    return tuple(r if r.n == n else replace(r, results=r.results[:n]) for r in (list_a, list_b))


def _cell(who: str, query: str, dates: tuple) -> str:
    """A cell's name in an error: ``who, query 'q', date`` (two dates joined by " vs ")."""
    return f"{who}, query {query!r}, {' vs '.join(map(str, dates))}"


def _walk(who: str, cells: Iterable[tuple], measure: Callable[..., Any]) -> Iterator[tuple]:
    """``(key, outcome)`` for each ``(key, query, dates, list_a, list_b)`` cell, in order:
    None if either list is missing, else ``measure(*_at_shared_depth(list_a, list_b))``,
    whose ValidationError is raised again with the cell's ``_cell`` name in front."""
    for key, query, dates, list_a, list_b in cells:
        outcome = None
        if list_a is not None and list_b is not None:
            try:
                outcome = measure(*_at_shared_depth(list_a, list_b))
            except ValidationError as exc:
                raise ValidationError(f"{_cell(who, query, dates)}: {exc}") from exc
        yield key, outcome


def _grid(
    dataset: SerpDataset, engine_a: str, engine_b: str, measure: Callable[..., Any]
) -> tuple[tuple[dt.date, ...], tuple[str, ...], list[tuple[int, int, Any]]]:
    """An engine pair's date and query axes (the sorted unions of each engine's) and
    ``(row, col, outcome)`` for each cell that ``_walk`` measures, in query-major order:
    one query's cells are adjacent, and the first bad cell in that order raises."""
    _require_engines(dataset, engine_a, engine_b)
    days = tuple(sorted(set(dataset.dates(engine_a)) | set(dataset.dates(engine_b))))
    queries = tuple(sorted(set(dataset.queries(engine_a)) | set(dataset.queries(engine_b))))
    cells = (
        ((i, j), q, (d,), dataset.get(engine_a, q, d), dataset.get(engine_b, q, d))
        for j, q in enumerate(queries)
        for i, d in enumerate(days)
    )
    walked = _walk(f"{engine_a} vs {engine_b}", cells, measure)
    return days, queries, [(i, j, outcome) for (i, j), outcome in walked if outcome is not None]


def _pair_components(
    dataset: SerpDataset,
    engine_a: str,
    engine_b: str,
    stopwords: frozenset[str] | None,
) -> PairComponents:
    """``_grid`` of each cell's ``PenaltyComponents``, cached on the dataset: the
    first call for a ``(engine_a, engine_b, stopwords)`` key measures every cell,
    later calls return the stored ``(days, queries, cells)``."""
    key = (engine_a, engine_b, stopwords)
    cached = dataset._components.get(key)
    if cached is None:
        with _kept_in(dataset._texts):
            cached = dataset._components[key] = _grid(
                dataset, engine_a, engine_b, lambda a, b: penalty_components(a, b, stopwords)
            )
    return cached


def similarity_matrix(
    dataset: SerpDataset,
    engine_a: str,
    engine_b: str,
    cfg: MetricConfig = DEFAULT_CONFIG,
    *,
    stopwords: frozenset[str] | None = None,
    metric_fn: PairMetric | None = None,
) -> SimilarityMatrix:
    """Score one engine pair on every (date, query) cell.

    Rows are the union of dates, columns the union of queries (both
    sorted); a cell is None when either engine lacks that list, else it
    compares the two lists at the shorter one's depth. The default metric
    is the combined score, or ``metric_fn``, a baseline metric. The
    combined score reads the pair's cached penalties (see ``SerpDataset``),
    so a later matrix under other weights measures nothing again.
    """
    if metric_fn is None:
        days, queries, measured = _pair_components(dataset, engine_a, engine_b, stopwords)
        cells = [(i, j, score_from_components(comp, cfg).score) for i, j, comp in measured]
    else:
        days, queries, cells = _grid(dataset, engine_a, engine_b, metric_fn)

    grid: list[list[float | None]] = [[None] * len(queries) for _ in days]
    for i, j, value in cells:
        grid[i][j] = value

    return SimilarityMatrix(
        engine_pair=(engine_a, engine_b),
        days=days,
        queries=queries,
        values=tuple(tuple(row) for row in grid),
    )


def consistency_series(matrix: SimilarityMatrix) -> list[tuple[dt.date, float | None]]:
    """Per-day mean similarity across queries, in date order.

    A day with no scored cells yields None rather than a fabricated 0.
    """
    if not matrix.days:
        raise ValidationError("matrix has no rows to aggregate")
    series: list[tuple[dt.date, float | None]] = []
    for day, row in zip(matrix.days, matrix.values):
        present = [v for v in row if v is not None]
        series.append((day, statistics.fmean(present) if present else None))
    return series


def pair_summary(matrix: SimilarityMatrix) -> dict[str, float]:
    """Mean, median, min and max over all scored cells."""
    values = matrix.present_values()
    if not values:
        raise ValidationError("matrix has no scored cells to summarize")
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


@dataclass(frozen=True)
class ImpactReport:
    """How much turning up one penalty weight lowers the mean score.

    ``decrease_pct[k]`` is the percentage drop of the mean score at
    ``weight_steps[k]`` relative to the all-weights-zero baseline.
    Holding everything else fixed, a larger weight can only lower each
    cell's score, so the series is non-decreasing by construction.
    """

    factor: str
    weight_steps: tuple[float, ...]
    decrease_pct: tuple[float, ...]
    base_mean: float

    def __post_init__(self) -> None:
        if self.factor not in SWEEP_FACTORS:
            raise ValidationError(f"unknown factor {self.factor!r}")
        if len(self.weight_steps) != len(self.decrease_pct):
            raise ValidationError("one decrease value is required per weight step")
        for pct in self.decrease_pct:
            if pct < -1e-9:
                raise ValidationError(f"negative decrease {pct}")
        for prev, cur in zip(self.decrease_pct, self.decrease_pct[1:]):
            if cur < prev - 1e-9:
                raise ValidationError("decrease percentages must be non-decreasing")


def impact_sweep(
    dataset: SerpDataset,
    engine_a: str,
    engine_b: str,
    factor: str,
    steps: tuple[float, ...] = DEFAULT_SWEEP_STEPS,
    *,
    boost_weights: tuple[float, ...] = DEFAULT_CONFIG.boost_weights,
    stopwords: frozenset[str] | None = None,
) -> ImpactReport:
    """Sweep one penalty weight over ``steps``, zeroing the other two.

    The baseline sets all three penalty weights to zero; ``boost_weights``
    apply throughout, so positional agreement still counts. Each step re-scores
    every cell from the pair's cached penalties (the ones ``similarity_matrix``
    uses; see ``SerpDataset``), then reports the mean's percentage
    decrease. Raises if the baseline mean is zero, since a percentage
    decrease is undefined there.
    """
    if factor not in SWEEP_FACTORS:
        raise ValidationError(
            f"factor must be one of {', '.join(SWEEP_FACTORS)}, got {factor!r}"
        )
    if not steps:
        raise ValidationError("at least one weight step is required")
    for step in steps:
        if not 0.0 < step <= 1.0:
            raise ValidationError(f"weight steps must lie in (0, 1], got {step}")
    for prev, cur in zip(steps, steps[1:]):
        if cur <= prev:
            raise ValidationError(f"weight steps must be strictly increasing, got {steps}")

    _, _, cells = _pair_components(dataset, engine_a, engine_b, stopwords)
    components = [comp for _, _, comp in cells]
    if not components:
        raise ValidationError(
            f"no overlapping (query, date) cells for {engine_a} vs {engine_b}"
        )

    def mean_score(weights: dict[str, float]) -> float:
        step_cfg = MetricConfig(
            a=weights.get("snippet", 0.0),
            b=weights.get("title", 0.0),
            c=weights.get("transposition", 0.0),
            boost_weights=boost_weights,
        )
        parts = (_base_boost(comp, step_cfg) for comp in components)
        return statistics.fmean(base + boost for base, boost in parts)

    base_mean = mean_score({})
    if base_mean <= 0.0:
        raise ValidationError(
            "baseline mean score is zero; the engines share nothing to attenuate"
        )
    decreases = []
    for step in steps:
        drop = 100.0 * (base_mean - mean_score({factor: step})) / base_mean
        decreases.append(0.0 if -1e-9 <= drop < 0.0 else drop)
    return ImpactReport(
        factor=factor,
        weight_steps=tuple(steps),
        decrease_pct=tuple(decreases),
        base_mean=base_mean,
    )


def cross_period_drift(
    dataset_old: SerpDataset,
    dataset_new: SerpDataset,
    engine: str,
    cfg: MetricConfig = DEFAULT_CONFIG,
    *,
    stopwords: frozenset[str] | None = None,
    date_old: dt.date | None = None,
    date_new: dt.date | None = None,
) -> dict[str, float]:
    """Self-similarity of one engine between two crawl periods, per query.

    For every query in both datasets for this engine, ``_walk`` scores the
    old list against the new one at the shorter one's depth. Unless pinned,
    each side takes the query's earliest date; a missing list is an error.
    """
    _require_engines(dataset_old, engine)
    _require_engines(dataset_new, engine)
    old_lists, new_lists = dataset_old._index[engine], dataset_new._index[engine]
    shared = sorted(old_lists.keys() & new_lists.keys())
    if not shared:
        raise ValidationError(f"datasets share no queries for engine {engine!r}")

    dates = {q: (date_old or min(old_lists[q]), date_new or min(new_lists[q])) for q in shared}
    cells = (
        (q, q, (old, new), old_lists[q].get(old), new_lists[q].get(new))
        for q, (old, new) in dates.items()
    )
    walked = _walk(engine, cells, lambda a, b: combined_similarity(a, b, cfg, stopwords).score)
    scores = {}
    for query, score in walked:
        if score is None:
            missing = f"no record for {engine}/{query} on the requested date"
            raise ValidationError(f"{_cell(engine, query, dates[query])}: {missing}")
        scores[query] = score
    return scores
