"""The combined content-and-ranking similarity score.

Two equal-length result lists are compared in two stages. The base
score starts from how many URLs they share and subtracts three weighted
penalties: summed snippet distance, summed title distance, and the
normalized rank displacement of the shared URLs. The final score then
adds a boost for URLs that sit at exactly the same top position in both
lists, scaled so the total can approach but never exceed 1.

With m shared URLs out of n, penalties s, h in [0, m] and t in [0, 1],
and per-penalty weights a, b, c in [0, 1]:

    base = (3m + 1 - a*s - b*h - c*t) / (3n + 1),  or 0 when m == 0
    score = base + sum(w[i] for agreeing positions i <= r) * (1 - base)

Identical lists score exactly 1.0; lists with no shared URL score 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .model import DEFAULT_CONFIG, MetricConfig, RankedList
from .rank_metrics import RankAlignment, transposition_penalty
from .textsim import content_penalty

_EPS = 1e-9


@dataclass(frozen=True)
class PenaltyComponents:
    """Everything about a list pair that is independent of the weights.

    Computing these once lets callers re-score the same pair under many
    weight settings without re-tokenizing: a ``SerpDataset`` keeps one
    per shared cell for each engine pair and stopword set, which
    ``similarity_matrix`` and ``impact_sweep`` reuse. ``agreements``
    holds the 1-based positions where both lists show the same URL.
    """

    n: int
    common_count: int
    snippet_penalty: float
    title_penalty: float
    transposition_penalty: float
    agreements: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.common_count
        if not 0 <= m <= self.n:
            raise ValidationError(f"common count {m} out of range for n={self.n}")
        if not -_EPS <= self.snippet_penalty <= m + _EPS:
            raise ValidationError(f"snippet penalty {self.snippet_penalty} not in [0, {m}]")
        if not -_EPS <= self.title_penalty <= m + _EPS:
            raise ValidationError(f"title penalty {self.title_penalty} not in [0, {m}]")
        if not -_EPS <= self.transposition_penalty <= 1 + _EPS:
            raise ValidationError(
                f"transposition penalty {self.transposition_penalty} not in [0, 1]"
            )
        if len(self.agreements) > m:
            raise ValidationError("more positional agreements than shared URLs")


@dataclass(frozen=True)
class SimilarityBreakdown:
    """A combined-similarity score with its contributing parts."""

    common_count: int
    snippet_penalty: float
    title_penalty: float
    transposition_penalty: float
    base_score: float
    boost: float
    score: float

    def __post_init__(self) -> None:
        if not -_EPS <= self.base_score <= 1 + _EPS:
            raise ValidationError(f"base score {self.base_score} not in [0, 1]")
        if not -_EPS <= self.boost <= 1 - self.base_score + _EPS:
            raise ValidationError(f"boost {self.boost} exceeds headroom above base")
        if abs(self.score - (self.base_score + self.boost)) > _EPS:
            raise ValidationError("score must equal base score plus boost")

    def as_dict(self) -> dict[str, float | int]:
        return {
            "common_count": self.common_count,
            "snippet_penalty": self.snippet_penalty,
            "title_penalty": self.title_penalty,
            "transposition_penalty": self.transposition_penalty,
            "base_score": self.base_score,
            "boost": self.boost,
            "score": self.score,
        }


def penalty_components(
    list_a: RankedList,
    list_b: RankedList,
    stopwords: frozenset[str] | None = None,
) -> PenaltyComponents:
    """Measure the config-independent penalties for a pair of lists."""
    snippet = content_penalty(list_a, list_b, "snippet", stopwords)
    title = content_penalty(list_a, list_b, "title", stopwords)
    alignment = RankAlignment.from_lists(list_a, list_b)
    agreements = tuple(
        i
        for i, (url_a, url_b) in enumerate(zip(list_a.urls(), list_b.urls()), start=1)
        if url_a == url_b
    )
    return PenaltyComponents(
        n=list_a.n,
        common_count=alignment.m,
        snippet_penalty=snippet,
        title_penalty=title,
        transposition_penalty=transposition_penalty(alignment),
        agreements=agreements,
    )


def score_from_components(
    components: PenaltyComponents, cfg: MetricConfig = DEFAULT_CONFIG
) -> SimilarityBreakdown:
    """Apply weights to pre-measured penalties."""
    m = components.common_count
    if m == 0:
        base = 0.0
        boost = 0.0
    else:
        deductions = (
            cfg.a * components.snippet_penalty
            + cfg.b * components.title_penalty
            + cfg.c * components.transposition_penalty
        )
        base = (3 * m + 1 - deductions) / (3 * components.n + 1)
        base = min(1.0, max(0.0, base))
        weights, r = cfg.boost_weights, cfg.r
        eligible = sum(weights[i - 1] for i in components.agreements if i <= r)
        boost = eligible * (1.0 - base)
    return SimilarityBreakdown(
        common_count=m,
        snippet_penalty=components.snippet_penalty,
        title_penalty=components.title_penalty,
        transposition_penalty=components.transposition_penalty,
        base_score=base,
        boost=boost,
        score=base + boost,
    )


def combined_similarity(
    list_a: RankedList,
    list_b: RankedList,
    cfg: MetricConfig = DEFAULT_CONFIG,
    stopwords: frozenset[str] | None = None,
) -> SimilarityBreakdown:
    """Score two equal-length result lists for the same query.

    Returns the full breakdown; the headline number is ``.score``.
    Symmetric in its list arguments, bit for bit.
    """
    return score_from_components(penalty_components(list_a, list_b, stopwords), cfg)
