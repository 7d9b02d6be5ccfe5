"""Tokenization and content-similarity penalties.

Snippets and titles are compared as term-frequency vectors after
stripping stopwords and the search query's own tokens (every result for
a query tends to echo the query, so those words carry no signal). The
per-URL penalty is the cosine distance between the two vectors; a
list-level penalty sums the distances over the URLs both lists share.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from functools import lru_cache
from importlib import resources
from itertools import filterfalse
from pathlib import Path
from typing import Literal

from .errors import ValidationError
from .model import RankedList
from .urlnorm import _data_lines

# Alphanumeric runs, Unicode-aware; underscore is a separator, not a word char.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Guards the bundled list against silent edits; update when the list changes.
_STOPWORDS_SHA256 = "3eaf18fcf6554bbbeff87ac78ba29dd65f7fdc3c17057861c7ad5665962c9e8b"

ContentField = Literal["snippet", "title"]


def _parse_stopword_lines(text: str) -> frozenset[str]:
    return frozenset(line.strip().lower() for _, line in _data_lines(text))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list, checksum-verified."""
    data = resources.files("serpsim.data").joinpath("stopwords_en.txt").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _STOPWORDS_SHA256:
        raise ValidationError(
            f"bundled stopword list is corrupted (sha256 {digest})"
        )
    return _parse_stopword_lines(data.decode("utf-8"))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword file: UTF-8, one word per line, '#' comments."""
    return _parse_stopword_lines(Path(path).read_text(encoding="utf-8"))


def _drop_set(query: str, stopwords: frozenset[str] | None) -> frozenset[str]:
    """The stopwords (``None``: the bundled list) plus the query's own tokens."""
    drop = default_stopwords() if stopwords is None else stopwords
    return drop.union(_TOKEN_RE.findall(query.lower())) if query else drop


def tokenize(
    text: str,
    query: str = "",
    stopwords: frozenset[str] | None = None,
) -> Counter[str]:
    """Lowercased term frequencies, minus stopwords and query tokens.

    Passing a precomputed drop set (the stopwords plus the query's
    tokens) as ``stopwords`` with an empty ``query`` gives the same result.
    """
    drop = _drop_set(query, stopwords)
    return Counter(filterfalse(drop.__contains__, _TOKEN_RE.findall(text.lower())))


def cosine_distance(v1: Counter[str], v2: Counter[str]) -> float:
    """1 minus the cosine of the angle between two count vectors.

    Conventions for degenerate input: two empty vectors are identical
    (distance 0); exactly one empty vector is maximally distant
    (distance 1). Equal vectors short-circuit to exactly 0.0 so that
    self-comparison is float-exact.
    """
    if v1 is v2:
        return 0.0
    if not v1 and not v2:
        return 0.0
    if not v1 or not v2:
        return 1.0
    if v1 == v2:
        return 0.0
    small, large = (v1, v2) if len(v1) <= len(v2) else (v2, v1)
    dot = sum(count * large.get(term, 0) for term, count in small.items())
    norm1 = math.sqrt(sum(count * count for count in v1.values()))
    norm2 = math.sqrt(sum(count * count for count in v2.values()))
    cos = dot / (norm1 * norm2)
    return min(1.0, max(0.0, 1.0 - cos))


# The last (query, stopwords) content_penalty scored, mapped to its drop set,
# text -> term vector and unordered (text, text) -> distance; a new key replaces it.
_cache: dict[tuple[str, frozenset[str] | None], tuple[frozenset[str], dict, dict]] = {}


def content_penalty(
    list_a: RankedList,
    list_b: RankedList,
    field: ContentField,
    stopwords: frozenset[str] | None = None,
) -> float:
    """Summed cosine distances of ``field`` over the shared URLs.

    Ranges over [0, m] where m is the number of URLs the lists share.
    Iteration follows sorted URL order so the result is bitwise
    symmetric in its two list arguments. Consecutive calls for one
    query and stopword set tokenize each text and compare each text
    pair once; that changes speed, never a result.
    """
    if list_a.n != list_b.n:
        raise ValidationError(
            f"lists must be the same length, got {list_a.n} and {list_b.n}"
        )
    if list_a.query != list_b.query:
        raise ValidationError(
            f"lists answer different queries: {list_a.query!r} vs {list_b.query!r}"
        )
    key = (list_a.query, stopwords)
    entry = _cache.get(key)
    if entry is None:
        entry = (_drop_set(list_a.query, stopwords), {}, {})
        _cache.clear()
        _cache[key] = entry
    drop, vectors, distances = entry

    def vector(text: str) -> Counter[str]:
        v = vectors.get(text)
        if v is None:
            v = vectors[text] = tokenize(text, "", drop)
        return v

    def distance(a: str, b: str) -> float:
        # equal texts share one vector, which cosine_distance sees as identical
        pair = (a, b) if a <= b else (b, a)
        d = distances.get(pair)
        if d is None:
            d = distances[pair] = cosine_distance(vector(a), vector(b))
        return d

    text_a = {r.url: getattr(r, field) for r in list_a.results}
    text_b = {r.url: getattr(r, field) for r in list_b.results}
    return sum(
        distance(text_a[url], text_b[url])
        for url in sorted(text_a.keys() & text_b.keys())
    )
