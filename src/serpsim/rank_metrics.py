"""Rank-order similarity metrics for result lists.

All metrics treat a result as an opaque symbol identified by its URL;
content is handled elsewhere. The displacement-based measures
(transposition penalty, Spearman footrule) are normalized by the
largest total displacement the shared URLs could exhibit, so scores
stay comparable across list lengths and overlap sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import ValidationError
from .model import RankedList, SearchResult


def displacement_bound(i: int, n: int) -> int:
    """Largest |position shift| the i-th most displaceable element can have.

    Elements are considered in the order that greedily maximizes total
    displacement in two lists of length n: the worst offender can move
    n-1 places, its counterpart n-1 as well, the next pair n-3, and so
    on. Closed form: n+1-i for even i, n-i for odd i.
    """
    if not 1 <= i <= n:
        raise ValidationError(f"index {i} out of range for lists of length {n}")
    return n + 1 - i if i % 2 == 0 else n - i


def max_total_displacement(m: int, n: int) -> int:
    """Max possible sum of |position differences| over m shared elements."""
    if not 0 <= m <= n:
        raise ValidationError(f"need 0 <= m <= n, got m={m} n={n}")
    return sum(displacement_bound(i, n) for i in range(1, m + 1))


@dataclass(frozen=True)
class RankAlignment:
    """The one pairing of two equal-length lists that every penalty reads.

    ``shared`` holds, for each URL both lists show and in sorted URL
    order (for determinism), its result in a and its result in b.
    """

    shared: tuple[tuple[SearchResult, SearchResult], ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.shared)

    @classmethod
    def from_lists(cls, list_a: RankedList, list_b: RankedList) -> "RankAlignment":
        if list_a.n != list_b.n:
            raise ValidationError(
                f"lists must be the same length, got {list_a.n} and {list_b.n}"
            )
        in_b = {r.url: r for r in list_b.results}
        shared = [(r, in_b[r.url]) for r in list_a.results if r.url in in_b]
        shared.sort(key=lambda pair: pair[0].url)
        return cls(tuple(shared), list_a.n)

    def total_displacement(self) -> int:
        return sum(abs(a.rank - b.rank) for a, b in self.shared)


def transposition_penalty(alignment: RankAlignment) -> float:
    """Total displacement of shared URLs, scaled to [0, 1].

    0 when every shared URL sits at the same rank in both lists, 1 when
    the shared URLs are displaced as far as lists of this length allow.
    Zero by convention when nothing is shared.
    """
    bound = max_total_displacement(alignment.m, alignment.n)
    if bound == 0:
        return 0.0
    return alignment.total_displacement() / bound


def spearman_footrule_sim(list_a: RankedList, list_b: RankedList) -> float:
    """1 minus the transposition penalty: the normalized total displacement of shared URLs.

    Degenerate alignments (no shared URLs, or too short to displace)
    score 1.0: there is no rank evidence of disagreement.
    """
    return 1.0 - transposition_penalty(RankAlignment.from_lists(list_a, list_b))


def kendall_tau_sim(list_a: RankedList, list_b: RankedList) -> float:
    """Fraction of shared-URL pairs ranked in the same relative order.

    1 - discordant/C(m,2); 1.0 when fewer than two URLs are shared.
    """
    shared = RankAlignment.from_lists(list_a, list_b).shared
    m = len(shared)
    if m < 2:
        return 1.0
    ranks_b = [b.rank for a, b in sorted(shared, key=lambda pair: pair[0].rank)]
    discordant = sum(x > y for i, x in enumerate(ranks_b) for y in ranks_b[i + 1:])
    return 1.0 - discordant / (m * (m - 1) / 2)


def jaro_similarity(seq_a: Sequence[Hashable], seq_b: Sequence[Hashable]) -> float:
    """Jaro similarity over two symbol sequences.

    Symbols match when equal and within the usual search window
    (max(len)//2 - 1, never negative). Transpositions are half the
    count of matched symbols that appear in a different order.
    """
    len_a, len_b = len(seq_a), len(seq_b)
    if len_a == 0 and len_b == 0:
        return 1.0
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(max(len_a, len_b) // 2 - 1, 0)
    matched_b = [False] * len_b
    matches_a: list[Hashable] = []
    match_pos_b: list[int] = []
    for i, symbol in enumerate(seq_a):
        lo = max(0, i - window)
        hi = min(len_b, i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and seq_b[j] == symbol:
                matched_b[j] = True
                matches_a.append(symbol)
                match_pos_b.append(j)
                break
    m = len(matches_a)
    if m == 0:
        return 0.0
    matches_b = [seq_b[j] for j in sorted(match_pos_b)]
    half_transpositions = sum(x != y for x, y in zip(matches_a, matches_b))
    t = half_transpositions / 2
    return (m / len_a + m / len_b + (m - t) / m) / 3.0


def jaro_winkler_similarity(seq_a: Sequence[Hashable], seq_b: Sequence[Hashable]) -> float:
    """Jaro similarity boosted toward 1 for a shared leading prefix.

    The boost adds 0.1 per shared leading symbol, counting at most 3 of
    them, so the result cannot exceed 1.
    """
    jaro = jaro_similarity(seq_a, seq_b)
    prefix = 0
    for x, y in zip(seq_a, seq_b):
        if x != y or prefix >= 3:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def jaro_sim(list_a: RankedList, list_b: RankedList) -> float:
    """Jaro similarity of two result lists, URLs as symbols."""
    return jaro_similarity(list_a.urls(), list_b.urls())


def jaro_winkler_sim(list_a: RankedList, list_b: RankedList) -> float:
    """Jaro-Winkler similarity of two result lists, URLs as symbols."""
    return jaro_winkler_similarity(list_a.urls(), list_b.urls())
