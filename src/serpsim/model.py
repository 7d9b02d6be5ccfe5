"""Domain types for ranked search results and metric configuration.

Everything here is immutable after construction and validates its own
invariants, so no partially valid value can leak into the metric code.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .errors import ValidationError


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One ranked search response: canonical URL, title, snippet, 1-based rank."""

    url: str
    title: str
    snippet: str
    rank: int

    def __post_init__(self) -> None:
        if not isinstance(self.url, str) or not self.url:
            raise ValidationError("result url must be a non-empty string")
        if not isinstance(self.title, str) or not isinstance(self.snippet, str):
            raise ValidationError("title and snippet must be strings (may be empty)")
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 1:
            raise ValidationError(f"rank must be an integer >= 1, got {self.rank!r}")


@dataclass(frozen=True)
class RankedList:
    """One engine's top-n results for one query on one date.

    Ranks are exactly 1..n with no gaps, and no two results share a URL.
    """

    engine: str
    query: str
    date: dt.date
    results: tuple[SearchResult, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))
        if not self.engine or not isinstance(self.engine, str):
            raise ValidationError("engine must be a non-empty string")
        if not self.query or not isinstance(self.query, str):
            raise ValidationError("query must be a non-empty string")
        if not isinstance(self.date, dt.date) or isinstance(self.date, dt.datetime):
            raise ValidationError("date must be a datetime.date")
        if not self.results:
            raise ValidationError("a ranked list must contain at least one result")
        ranks = [r.rank for r in self.results]
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValidationError(f"ranks must be exactly 1..{len(ranks)}, got {ranks}")
        urls = [r.url for r in self.results]
        if len(set(urls)) != len(urls):
            dupes = sorted({u for u in urls if urls.count(u) > 1})
            raise ValidationError(f"duplicate canonical URLs in list: {dupes}")

    @property
    def n(self) -> int:
        return len(self.results)

    def urls(self) -> tuple[str, ...]:
        return tuple(r.url for r in self.results)


@dataclass(frozen=True)
class MetricConfig:
    """Penalty weights and positional boost weights for the combined metric.

    ``a``, ``b`` and ``c`` weight the snippet, title and transposition
    penalties, each in [0, 1]. ``boost_weights`` rewards exact URL
    agreement at the first positions; they must be strictly descending,
    positive, and sum to at most 1 so the final score never exceeds 1.
    """

    a: float
    b: float
    c: float
    boost_weights: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "boost_weights", tuple(float(w) for w in self.boost_weights))
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"weight {name} must lie in [0, 1], got {value}")
        weights = self.boost_weights
        # "not w > 0" rather than "w <= 0", which NaN would pass
        if not all(w > 0.0 for w in weights):
            raise ValidationError("boost weights must be strictly positive")
        if any(weights[i] <= weights[i + 1] for i in range(len(weights) - 1)):
            raise ValidationError(f"boost weights must be strictly descending, got {weights}")
        if sum(weights) > 1.0 + 1e-12:
            raise ValidationError(f"boost weights must sum to at most 1, got {sum(weights)}")

    @property
    def r(self) -> int:
        """Boost depth: number of leading positions that earn a reward."""
        return len(self.boost_weights)


#: Boost weights used throughout the batch experiments (depth 5).
DEFAULT_BOOST_WEIGHTS: tuple[float, ...] = (0.15, 0.10, 0.07, 0.03, 0.01)

#: Default experiment configuration: snippets 0.8, titles 1.0, transpositions 0.8.
DEFAULT_CONFIG = MetricConfig(a=0.8, b=1.0, c=0.8, boost_weights=DEFAULT_BOOST_WEIGHTS)


def _unit_cell(value: float) -> float:
    """``value``, if it lies in [0, 1] give or take 1e-9; else a ValidationError."""
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ValidationError(f"cell value {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class SimilarityMatrix:
    """Day x query grid of similarity values for one engine pair.

    Missing cells (no data for one of the engines) are ``None`` and are
    never imputed.
    """

    engine_pair: tuple[str, str]
    days: tuple[dt.date, ...]
    queries: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine_pair", tuple(self.engine_pair))
        object.__setattr__(self, "days", tuple(self.days))
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))
        if len(self.engine_pair) != 2:
            raise ValidationError("engine_pair must hold exactly two engine names")
        if len(self.values) != len(self.days):
            raise ValidationError(
                f"expected {len(self.days)} rows, got {len(self.values)}"
            )
        for day, row in zip(self.days, self.values):
            if len(row) != len(self.queries):
                raise ValidationError(
                    f"row for {day} has {len(row)} cells, expected {len(self.queries)}"
                )
            for value in row:
                if value is not None:
                    _unit_cell(value)

    def cell(self, day: dt.date, query: str) -> float | None:
        return self.values[self.days.index(day)][self.queries.index(query)]

    def present_values(self) -> list[float]:
        """All non-missing cells, in row-major order."""
        return [v for row in self.values for v in row if v is not None]


def validate_ranked_list(
    raw: Sequence[SearchResult] | Iterable[SearchResult],
    expected_n: int,
    *,
    engine: str,
    query: str,
    date: dt.date,
    strict: bool = False,
) -> RankedList:
    """Build a valid RankedList from raw results.

    Results are ordered by their incoming rank, deduplicated by canonical
    URL (first occurrence wins), truncated to ``expected_n``, and re-ranked
    1..n; a result already at its final rank is reused as is. Duplicate
    input ranks are always rejected; in strict mode a list that ends up
    shorter than ``expected_n`` is rejected too.
    """
    raw = list(raw)
    if not raw:
        raise ValidationError(f"empty result list for {engine}/{query}/{date}")
    if expected_n < 1:
        raise ValidationError(f"expected_n must be >= 1, got {expected_n}")

    seen_ranks: set[int] = set()
    for result in raw:
        if result.rank in seen_ranks:
            raise ValidationError(
                f"duplicate rank {result.rank} in input for {engine}/{query}/{date}"
            )
        seen_ranks.add(result.rank)

    deduped: list[SearchResult] = []
    seen_urls: set[str] = set()
    for result in sorted(raw, key=lambda r: r.rank):
        if result.url in seen_urls:
            continue
        seen_urls.add(result.url)
        deduped.append(result)

    deduped = deduped[:expected_n]
    if strict and len(deduped) < expected_n:
        raise ValidationError(
            f"{engine}/{query}/{date}: only {len(deduped)} distinct results "
            f"remain after deduplication, expected {expected_n}"
        )

    reranked = tuple(
        r if r.rank == i else replace(r, rank=i) for i, r in enumerate(deduped, start=1)
    )
    return RankedList(engine=engine, query=query, date=date, results=reranked)
