"""Tokenization and content-similarity penalties.

Snippets and titles are compared as term-frequency vectors after
stripping stopwords and the search query's own tokens (every result for
a query tends to echo the query, so those words carry no signal). The
per-URL penalty is the cosine distance between the two vectors; a
list-level penalty sums the distances over the URLs both lists share.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import threading
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from importlib import resources
from itertools import filterfalse
from pathlib import Path
from typing import Iterator, Literal

from .errors import ValidationError
from .rank_metrics import RankAlignment
from .urlnorm import _data_lines, _lines, _text_lines

# Alphanumeric runs, Unicode-aware; underscore is a separator, not a word char.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Guards the bundled list against silent edits; update when the list changes.
_STOPWORDS_SHA256 = "3eaf18fcf6554bbbeff87ac78ba29dd65f7fdc3c17057861c7ad5665962c9e8b"

ContentField = Literal["snippet", "title"]


def _parse_stopword_lines(lines: Iterator[str]) -> frozenset[str]:
    return frozenset(line.strip().lower() for _, line in _data_lines(lines))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list, checksum-verified."""
    data = resources.files("serpsim.data").joinpath("stopwords_en.txt").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _STOPWORDS_SHA256:
        raise ValidationError(
            f"bundled stopword list is corrupted (sha256 {digest})"
        )
    return _parse_stopword_lines(_lines(io.BytesIO(data), "stopwords_en.txt"))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword file: UTF-8, one word per line, '#' comments."""
    return _parse_stopword_lines(_text_lines(path))


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


_lent = threading.local()


@contextmanager
def _kept_in(table: dict) -> Iterator[None]:
    """Within the block (never nested), this thread's content_penalty keeps each
    (query, stopwords) key's drop set, text -> term vector and unordered (text, text)
    -> distance in ``table``; outside any block, each call builds a table of its own."""
    _lent.table = table
    try:
        yield
    finally:
        del _lent.table


def content_penalty(
    alignment: RankAlignment,
    field: ContentField,
    query: str,
    stopwords: frozenset[str] | None = None,
) -> float:
    """Summed cosine distances of ``field`` over the alignment's shared URLs.

    Ranges over [0, m] where m is the number of URLs the lists share.
    Iteration follows the alignment's sorted URL order, so the result is
    bitwise symmetric in the two lists. The tokens of ``query``, which
    both lists answer, are dropped with the stopwords. Each text is
    tokenized and each text pair compared once per query and stopword
    set: across all engine pairs a ``SerpDataset`` measures (the dataset
    keeps the table), else within this call only. That changes speed,
    never a result.
    """
    table = getattr(_lent, "table", {})  # outside a dataset walk: this call's own
    key = (query, stopwords)
    entry = table.get(key)
    if entry is None:
        entry = table[key] = (_drop_set(query, stopwords), {}, {})
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

    return sum(distance(getattr(a, field), getattr(b, field)) for a, b in alignment.shared)
