"""Seeded input generator for the serpsim benchmark.

``generate(workload, seed, out_dir)`` writes one workload's input files
into ``out_dir`` and returns a description of them (file names and the
input properties the benchmark reports). The same workload, seed and
size always give the same bytes. Nothing here imports serpsim: the
program only ever sees the files.

The content model: every query has a pool of URLs and a topic
vocabulary. A result's title and snippet are drawn from that topic
vocabulary, mixed with stopwords and the query's own tokens, so the
content penalties see realistic partial overlap. Engine "acme" evolves
day by day (one adjacent swap, sometimes one replacement); "bravo"
reshuffles acme's URLs and rewords some snippets and titles; "cobalt" keeps about
6 of acme's 10 URLs, sometimes none, and now and then misses a day.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from itertools import combinations
from pathlib import Path
from typing import Callable

DEPTH = 10

#: Full sizes, as measured by the benchmark.
SIZES = {
    "panel-session": {"queries": 100, "days": 10},
    "crawl-drift": {"queries": 100, "days": 20, "redirects": 1000},
    "import-convert": {"queries": 100, "days": 25},
}

#: Tiny sizes for the self-test.
TINY_SIZES = {
    "panel-session": {"queries": 6, "days": 3},
    "crawl-drift": {"queries": 6, "days": 3, "redirects": 40},
    "import-convert": {"queries": 6, "days": 3},
}

_STOPWORDS = (
    "the", "and", "of", "to", "in", "for", "with", "on", "is", "are",
    "this", "that", "from", "by", "as", "at", "it", "an", "be", "or",
)
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_CATEGORIES = ("health", "finance", "technology", "travel", "science")


class _Corpus:
    """Queries, URL pools and per-engine result text for one seed."""

    def __init__(self, rng: random.Random, n_queries: int):
        self.rng = rng
        words: set[str] = set()
        while len(words) < 3000:
            words.add(
                "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
                + rng.choice(_CONSONANTS)
            )
        self.vocab = sorted(words)
        hosts = [f"{w}.example.com" for w in rng.sample(self.vocab, 200)]
        self.queries: list[str] = []
        self.topics: list[list[str]] = []
        self.pools: list[list[str]] = []
        self.cobalt_pools: list[list[str]] = []
        seen: set[str] = set()
        while len(self.queries) < n_queries:
            query = " ".join(rng.sample(self.vocab, rng.choice((2, 3))))
            if query in seen:
                continue
            seen.add(query)
            qi = len(self.queries)
            slug = query.replace(" ", "-")
            self.queries.append(query)
            self.topics.append(rng.sample(self.vocab, 60))
            self.pools.append(
                [f"https://{rng.choice(hosts)}/{slug}/{rng.choice(self.vocab)}-{qi}-{k}"
                 for k in range(30)]
            )
            self.cobalt_pools.append(
                [f"https://{rng.choice(hosts)}/c/{slug}/{rng.choice(self.vocab)}-{qi}-{k}"
                 for k in range(15)]
            )
        self._text: dict[tuple[str, str], tuple[str, str]] = {}

    def category(self, qi: int) -> str:
        return _CATEGORIES[qi % len(_CATEGORIES)]

    def _compose(self, qi: int, rng: random.Random) -> tuple[str, str]:
        topic = self.topics[qi]
        qtokens = self.queries[qi].split()
        title = [rng.choice(qtokens)] + rng.sample(topic, 5)
        snippet = rng.sample(topic, 15) + rng.choices(_STOPWORDS, k=8) + rng.choices(qtokens, k=2)
        rng.shuffle(snippet)
        return " ".join(title).capitalize(), " ".join(snippet).capitalize() + "."

    def _reword(self, qi: int, rng: random.Random, text: str, n: int) -> str:
        words = text.split()
        for _ in range(n):
            words[rng.randrange(len(words))] = rng.choice(self.topics[qi])
        return " ".join(words)

    def text(self, engine: str, qi: int, url: str) -> tuple[str, str]:
        """(title, snippet) of ``url`` as ``engine`` shows it."""
        key = (engine, url)
        cached = self._text.get(key)
        if cached is not None:
            return cached
        if engine == "acme":
            out = self._compose(qi, random.Random(f"{self.vocab[0]}|{url}"))
        else:
            title, snippet = self.text("acme", qi, url)
            rng = random.Random(f"{engine}|{self.vocab[1]}|{url}")
            if engine == "cobalt" and rng.random() < 0.5:
                snippet = self._compose(qi, rng)[1]
            elif rng.random() < 0.5:
                snippet = self._reword(qi, rng, snippet, 2)
            if rng.random() < 0.3:
                title = self._reword(qi, rng, title, 1)
            out = (title, snippet)
        self._text[key] = out
        return out

    def acme_days(self, qi: int, n_days: int, churn: float = 0.5) -> list[list[str]]:
        """acme's URL order for one query on each of ``n_days`` days."""
        rng = self.rng
        pool = self.pools[qi]
        urls = rng.sample(pool[:20], DEPTH)
        days = []
        for _ in range(n_days):
            days.append(list(urls))
            i = rng.randrange(DEPTH - 1)
            urls[i], urls[i + 1] = urls[i + 1], urls[i]
            if rng.random() < churn:
                urls[rng.randrange(DEPTH)] = rng.choice([u for u in pool if u not in urls])
        return days

    def bravo(self, acme: list[str]) -> list[str]:
        urls = list(acme)
        for _ in range(3):
            i, j = self.rng.randrange(DEPTH), self.rng.randrange(DEPTH)
            urls[i], urls[j] = urls[j], urls[i]
        return urls

    def cobalt(self, qi: int, acme: list[str]) -> list[str] | None:
        """cobalt's URLs, or None on a day cobalt has no list."""
        rng = self.rng
        if rng.random() < 0.02:
            return None
        own = self.cobalt_pools[qi]
        if rng.random() < 0.05:
            return rng.sample(own, DEPTH)
        urls = rng.sample(acme, 6) + rng.sample(own, DEPTH - 6)
        rng.shuffle(urls)
        return urls

    def engine_lists(self, qi: int, acme_days: list[list[str]]) -> list[dict[str, list[str]]]:
        out = []
        for acme in acme_days:
            lists = {"acme": acme, "bravo": self.bravo(acme)}
            cobalt = self.cobalt(qi, acme)
            if cobalt is not None:
                lists["cobalt"] = cobalt
            out.append(lists)
        return out


def _messy(rng: random.Random, url: str) -> str:
    """A raw spelling of a canonical URL that canonicalizes back to it."""
    if rng.random() < 0.3:
        return url
    scheme, rest = url.split("://", 1)
    host, path = rest.split("/", 1)
    if rng.random() < 0.5:
        host = "".join(c.upper() if rng.random() < 0.4 else c for c in host)
    if rng.random() < 0.4:
        host += ":443"
    if rng.random() < 0.5:
        path = path.replace("-", "%2D")
    if rng.random() < 0.4:
        path += "/"
    if rng.random() < 0.3:
        path += f"#s{rng.randrange(9)}"
    return f"{scheme}://{host}/{path}"


def _native_line(engine: str, query: str, day: dt.date, category: str,
                 results: list[tuple[str, str, str]]) -> str:
    obj = {
        "category": category,
        "date": day.isoformat(),
        "engine": engine,
        "query": query,
        "results": [
            {"rank": rank, "snippet": snippet, "title": title, "url": url}
            for rank, (url, title, snippet) in enumerate(results, start=1)
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class _Stats:
    """Input properties accumulated while lists are generated."""

    def __init__(self) -> None:
        self.lists = 0
        self.results = 0
        self.raw_urls: set[str] = set()
        self.shared: list[int] = []
        self.zero_overlap = 0

    def add_cell(self, lists: dict[str, list[str]]) -> None:
        for a, b in combinations(sorted(lists), 2):
            shared = len(set(lists[a]) & set(lists[b]))
            self.shared.append(shared)
            self.zero_overlap += shared == 0

    def add_list(self, raw_urls: list[str]) -> None:
        self.lists += 1
        self.results += len(raw_urls)
        self.raw_urls.update(raw_urls)

    def properties(self, files: list[Path]) -> dict:
        return {
            "lists": self.lists,
            "results": self.results,
            "bytes": sum(f.stat().st_size for f in files),
            "distinct_raw_urls_per_occurrence": round(len(self.raw_urls) / self.results, 4),
            "mean_shared_urls_per_pair": round(sum(self.shared) / len(self.shared), 4),
            "zero_overlap_cells": self.zero_overlap,
        }


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _panel(corpus: _Corpus, start: dt.date, n_days: int, stats: _Stats, *,
           churn: float = 0.5, raw: Callable[[str], str] | None = None,
           ) -> list[tuple[dt.date, str, int, str]]:
    """Native lines of a 3-engine panel as (date, engine, query index, line).

    ``raw`` spells each canonical URL as the crawl recorded it."""
    rows = []
    for qi, query in enumerate(corpus.queries):
        for d, lists in enumerate(corpus.engine_lists(qi, corpus.acme_days(qi, n_days, churn))):
            stats.add_cell(lists)
            day = start + dt.timedelta(days=d)
            for engine, urls in lists.items():
                shown = [raw(u) for u in urls] if raw else urls
                stats.add_list(shown)
                results = [
                    (shown_url, *corpus.text(engine, qi, url))
                    for shown_url, url in zip(shown, urls)
                ]
                rows.append((day, engine, qi,
                             _native_line(engine, query, day, corpus.category(qi), results)))
    return rows


def _gen_panel_session(rng, size, out: Path) -> dict:
    corpus = _Corpus(rng, size["queries"])
    stats = _Stats()
    rows = _panel(corpus, dt.date(2020, 3, 1), size["days"], stats)
    panel = out / "panel.jsonl"
    _write_lines(panel, [line for _, _, _, line in rows])
    return {"files": {"panel": panel.name}, "properties": stats.properties([panel])}


def _gen_crawl_drift(rng, size, out: Path) -> dict:
    corpus = _Corpus(rng, size["queries"])
    stats = _Stats()
    raw_rng = random.Random(rng.random())
    files = {}
    for name, start, churn in (("old", dt.date(2020, 1, 1), 0.5),
                               ("new", dt.date(2020, 7, 1), 0.9)):
        rows = _panel(corpus, start, size["days"], stats, churn=churn,
                      raw=lambda u: _messy(raw_rng, u))
        rows.sort(key=lambda row: (row[0], row[1], row[2]))  # crawl order
        path = out / f"{name}.jsonl"
        _write_lines(path, [line for _, _, _, line in rows])
        files[name] = path.name

    # Sources come from the queries' URL pools; every target is fresh, so
    # resolving never merges two URLs of one list.
    sources = rng.sample([u for pool in corpus.pools for u in pool], size["redirects"])
    entries: list[tuple[str, str]] = []
    for i, source in enumerate(sources):
        if len(entries) >= size["redirects"]:
            break
        target = f"https://moved.example.org/r/{i}"
        if rng.random() < 0.2:
            final = f"https://moved.example.org/final/{i}"
            entries.append((target, final))
        entries.append((source, target))
    rng.shuffle(entries)
    redirects = out / "redirects.tsv"
    _write_lines(redirects, [f"{s}\t{t}" for s, t in entries])
    files["redirects"] = redirects.name
    props = stats.properties([out / files["old"], out / files["new"], redirects])
    props["redirect_entries"] = len(entries)
    return {"files": files, "properties": props}


_IMPORT_MAPPING = {
    "engine": "se",
    "query": "kw",
    "date": "day",
    "date_format": "%d/%m/%Y",
    "rank": "pos",
    "url": "link",
    "title": "headline",
    "snippet": "desc",
    "category": "topic",
}


def _gen_import_convert(rng, size, out: Path) -> dict:
    corpus = _Corpus(rng, size["queries"])
    stats = _Stats()
    rows = []
    start = dt.date(2020, 5, 1)
    for qi, query in enumerate(corpus.queries):
        acme_days = corpus.acme_days(qi, size["days"])
        for d, lists in enumerate(corpus.engine_lists(qi, acme_days)):
            lists["delta"] = corpus.bravo(lists["acme"])
            stats.add_cell(lists)
            day = (start + dt.timedelta(days=d)).strftime("%d/%m/%Y")
            for engine, urls in lists.items():
                stats.add_list(urls)
                for pos, url in enumerate(urls, start=1):
                    title, snippet = corpus.text(engine, qi, url)
                    rows.append(json.dumps({
                        "se": engine, "kw": query, "day": day, "pos": pos, "link": url,
                        "headline": title, "desc": snippet, "topic": corpus.category(qi),
                    }, ensure_ascii=False))
    rng.shuffle(rows)
    flat = out / "flat.jsonl"
    _write_lines(flat, rows)
    mapping = out / "mapping.json"
    mapping.write_text(json.dumps(_IMPORT_MAPPING, indent=2) + "\n", encoding="utf-8")
    return {"files": {"flat": flat.name, "mapping": mapping.name},
            "properties": stats.properties([flat])}


_GENERATORS = {
    "panel-session": _gen_panel_session,
    "crawl-drift": _gen_crawl_drift,
    "import-convert": _gen_import_convert,
}

WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, out_dir: Path, *, tiny: bool = False) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``out_dir``, with a
    ``meta.json`` naming the files and their properties; return that."""
    size = (TINY_SIZES if tiny else SIZES)[workload]
    rng = random.Random(f"{workload}:{seed}")
    meta = _GENERATORS[workload](rng, size, Path(out_dir))
    (Path(out_dir) / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return meta
