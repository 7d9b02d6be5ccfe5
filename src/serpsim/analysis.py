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
from typing import Any, Callable, Iterable, Mapping

from .combined import (
    PenaltyComponents, combined_similarity, penalty_components, score_from_components,
)
from .errors import ValidationError
from .model import DEFAULT_CONFIG, MetricConfig, RankedList, SimilarityMatrix

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

    ``categories`` optionally maps a query to a topic label; it is carried
    along for reporting and never affects any score. The dataset keeps
    each engine pair's ``PenaltyComponents`` once measured, keyed by
    ``(engine_a, engine_b, stopwords)``: one small object per shared
    cell, reused by every later matrix and sweep over that pair.
    """

    def __init__(
        self,
        records: Mapping[RecordKey, RankedList],
        categories: Mapping[str, str] | None = None,
    ):
        self._records = dict(records)
        self.categories = dict(categories or {})
        self._components: dict[tuple[str, str, frozenset[str] | None], PairComponents] = {}
        for key, ranked in self._records.items():
            if (ranked.engine, ranked.query, ranked.date) != key:
                raise ValidationError(
                    f"record key {key} does not match list identity "
                    f"({ranked.engine}, {ranked.query}, {ranked.date})"
                )

    @classmethod
    def from_lists(
        cls,
        lists: Iterable[RankedList],
        categories: Mapping[str, str] | None = None,
    ) -> "SerpDataset":
        records: dict[RecordKey, RankedList] = {}
        for ranked in lists:
            key = (ranked.engine, ranked.query, ranked.date)
            if key in records:
                raise ValidationError(f"duplicate record for {key}")
            records[key] = ranked
        return cls(records, categories)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(sorted(self._records))

    def engines(self) -> tuple[str, ...]:
        return tuple(sorted({k[0] for k in self._records}))

    def queries(self, engine: str | None = None) -> tuple[str, ...]:
        keys = self._records if engine is None else [k for k in self._records if k[0] == engine]
        return tuple(sorted({k[1] for k in keys}))

    def dates(self, engine: str | None = None, query: str | None = None) -> tuple[dt.date, ...]:
        keys = [
            k
            for k in self._records
            if (engine is None or k[0] == engine) and (query is None or k[1] == query)
        ]
        return tuple(sorted({k[2] for k in keys}))

    def get(self, engine: str, query: str, date: dt.date) -> RankedList | None:
        return self._records.get((engine, query, date))


def _at_one_depth(*datasets: SerpDataset) -> list[SerpDataset]:
    """``datasets`` with every list cut to the length of the shortest list in any of them."""
    n = min(ranked.n for dataset in datasets for ranked in dataset._records.values())
    return [SerpDataset({
        key: ranked if ranked.n == n else replace(ranked, results=ranked.results[:n])
        for key, ranked in dataset._records.items()
    }, dataset.categories) for dataset in datasets]


def _require_engines(dataset: SerpDataset, *engines: str) -> None:
    known = set(dataset.engines())
    missing = [e for e in engines if e not in known]
    if missing:
        raise ValidationError(
            f"engine(s) not in dataset: {', '.join(sorted(missing))}; "
            f"available: {', '.join(dataset.engines())}"
        )


def _earliest_dates(dataset: SerpDataset, engine: str) -> dict[str, dt.date]:
    """Each of ``engine``'s queries mapped to its earliest date, in one pass."""
    earliest: dict[str, dt.date] = {}
    for key_engine, query, date in dataset._records:
        if key_engine == engine and (query not in earliest or date < earliest[query]):
            earliest[query] = date
    return earliest


def _measured(who: str, query: str, dates: tuple, measure: Callable[..., Any], *args: Any) -> Any:
    """``measure(*args)`` for one cell; a ValidationError from it is raised again with
    the cell, ``who, query 'q', date`` (two dates joined by " vs "), named in front."""
    try:
        return measure(*args)
    except ValidationError as exc:
        cell = f"{who}, query {query!r}, {' vs '.join(map(str, dates))}"
        raise ValidationError(f"{cell}: {exc}") from exc


def _grid(
    dataset: SerpDataset, engine_a: str, engine_b: str, measure: Callable[..., Any]
) -> tuple[tuple[dt.date, ...], tuple[str, ...], list[tuple[int, int, Any]]]:
    """An engine pair's date and query axes (the sorted unions of each engine's) and
    ``(row, col, measure(list_a, list_b))`` for each cell both engines have, named by
    ``_measured``, walked in query-major order, so the cells of one query are adjacent."""
    _require_engines(dataset, engine_a, engine_b)
    days = tuple(sorted(set(dataset.dates(engine_a)) | set(dataset.dates(engine_b))))
    queries = tuple(sorted(set(dataset.queries(engine_a)) | set(dataset.queries(engine_b))))
    pair = f"{engine_a} vs {engine_b}"
    cells = []
    for j, query in enumerate(queries):
        for i, day in enumerate(days):
            list_a = dataset.get(engine_a, query, day)
            list_b = dataset.get(engine_b, query, day)
            if list_a is not None and list_b is not None:
                cells.append((i, j, _measured(pair, query, (day,), measure, list_a, list_b)))
    return days, queries, cells


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
    sorted); a cell is None when either engine lacks that list. The
    default metric is the combined score; pass ``metric_fn`` to grade
    the same grid with a baseline metric instead. The combined score
    reads the pair's cached penalties (see ``SerpDataset``), so a later
    matrix under other weights measures nothing again.
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
        return statistics.fmean(
            score_from_components(comp, step_cfg).score for comp in components
        )

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

    For every query present in both datasets for this engine, compares
    the old list against the new one with the combined score. Unless
    pinned, each side uses its earliest available date for that query.
    """
    _require_engines(dataset_old, engine)
    _require_engines(dataset_new, engine)
    first_old = _earliest_dates(dataset_old, engine)
    first_new = _earliest_dates(dataset_new, engine)
    shared = sorted(first_old.keys() & first_new.keys())
    if not shared:
        raise ValidationError(
            f"datasets share no queries for engine {engine!r}"
        )

    def measure(query: str, old_date: dt.date, new_date: dt.date) -> float:
        list_old = dataset_old.get(engine, query, old_date)
        list_new = dataset_new.get(engine, query, new_date)
        if list_old is None or list_new is None:
            raise ValidationError(f"no record for {engine}/{query} on the requested date")
        return combined_similarity(list_old, list_new, cfg, stopwords).score

    dates = {q: (date_old or first_old[q], date_new or first_new[q]) for q in shared}
    return {q: _measured(engine, q, dates[q], measure, q, *dates[q]) for q in shared}
