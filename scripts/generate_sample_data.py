#!/usr/bin/env python3
"""Regenerate the committed test fixtures under tests/data/.

Everything is seeded, so reruns reproduce the same bytes. The sample
corpus holds three engines ("acme", "bravo", "cobalt") answering five
queries over three days, ten results each. bravo is built as a
perturbed copy of acme (shared URLs, lightly shuffled ranks, slightly
reworded snippets); cobalt draws from a different slice of the URL pool
so cross-engine scores spread out.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from serpsim import RankedList, SearchResult, SerpDataset, write_dataset

DATA_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"

DAYS = (dt.date(2019, 7, 1), dt.date(2019, 7, 2), dt.date(2019, 7, 3))

QUERIES = {
    "climate change": "environment",
    "electric cars": "technology",
    "quantum computing": "technology",
    "mediterranean diet": "health",
    "student loans": "finance",
}

PAIR_QUERY = "sample query"
PAIR_DAY = dt.date(2019, 7, 1)
PAIR_FLAVORS = {
    "plain": ("title{u} page{u}", "snippet{u} text{u} info{u}"),
    "alt": ("header{u} name{u}", "words{u} body{u} prose{u}"),
}


def slugify(query: str) -> str:
    return query.replace(" ", "-")


def build_pair_file(name: str, engine: str, keys: str, flavor: str) -> None:
    title_tpl, snippet_tpl = PAIR_FLAVORS[flavor]
    results = tuple(
        SearchResult(
            url=f"https://{key}.example.com/page",
            title=title_tpl.format(u=key),
            snippet=snippet_tpl.format(u=key),
            rank=rank,
        )
        for rank, key in enumerate(keys, start=1)
    )
    ranked = RankedList(engine=engine, query=PAIR_QUERY, date=PAIR_DAY, results=results)
    write_dataset(SerpDataset([ranked]), DATA_DIR / name)


def content_for(query: str, url: str, engine_group: str) -> tuple[str, str]:
    """Deterministic title/snippet for one engine group's view of a URL."""
    slug = slugify(query).replace("-", "")
    vocab = [f"{slug}term{j:02d}" for j in range(40)]
    base_rng = random.Random(f"{query}|{url}")
    words = base_rng.sample(vocab, 6)
    if engine_group == "bravo":
        tweak = random.Random(f"bravo|{url}")
        if tweak.random() < 0.5:
            words = list(words)
            words[tweak.randrange(6)] = tweak.choice(vocab)
    elif engine_group == "cobalt":
        words = random.Random(f"cobalt|{query}|{url}").sample(vocab, 6)
    return " ".join(words[:3]), " ".join(words)


def mutate_day(rng: random.Random, urls: list[str], pool: list[str]) -> list[str]:
    """Next-day list: one adjacent swap plus one replacement from the pool."""
    urls = list(urls)
    i = rng.randrange(len(urls) - 1)
    urls[i], urls[i + 1] = urls[i + 1], urls[i]
    unused = [u for u in pool if u not in urls]
    if unused:
        urls[rng.randrange(len(urls))] = rng.choice(unused)
    return urls


def build_sample() -> SerpDataset:
    rng = random.Random(20190701)
    lists: list[RankedList] = []
    for query, category in QUERIES.items():
        slug = slugify(query)
        pool = [f"https://site{k:02d}.example.org/{slug}" for k in range(18)]

        acme_urls = rng.sample(pool[:14], 10)
        bravo_urls = list(acme_urls)
        for _ in range(3):
            victim = rng.randrange(len(bravo_urls))
            replacement = rng.choice([u for u in pool if u not in bravo_urls])
            bravo_urls[victim] = replacement
        for _ in range(2):
            i = rng.randrange(len(bravo_urls) - 1)
            bravo_urls[i], bravo_urls[i + 1] = bravo_urls[i + 1], bravo_urls[i]
        cobalt_urls = rng.sample(pool[4:], 10)

        per_engine = {"acme": acme_urls, "bravo": bravo_urls, "cobalt": cobalt_urls}
        for engine, day1_urls in per_engine.items():
            urls = day1_urls
            for day in DAYS:
                results = tuple(
                    SearchResult(
                        url=url,
                        title=content_for(query, url, engine)[0],
                        snippet=content_for(query, url, engine)[1],
                        rank=rank,
                    )
                    for rank, url in enumerate(urls, start=1)
                )
                lists.append(
                    RankedList(engine=engine, query=query, date=day, results=results)
                )
                urls = mutate_day(rng, urls, pool)
    return SerpDataset(lists, categories=QUERIES)


def build_alien() -> None:
    rows = []
    for pos, (link, heading, text) in enumerate(
        [
            ("https://Solar-One.example.net:443/guide/", "panel sizing basics",
             "rooftop panel sizing walkthrough"),
            ("https://sun.example.net/inverters", "inverter comparison",
             "string versus micro inverter tradeoffs"),
            ("https://sun.example.net/batteries", "storage options",
             "battery storage payback estimates"),
        ],
        start=1,
    ):
        rows.append(
            {"se": "zephyr", "q": "solar panels", "day": "01/07/2019",
             "pos": pos, "link": link, "heading": heading, "text": text}
        )
    rows.append(
        {"se": "zephyr", "q": "solar panels", "day": "02/07/2019",
         "pos": 1, "link": "https://sun.example.net/batteries",
         "heading": "storage options", "text": "battery storage payback estimates"}
    )
    with open(DATA_DIR / "alien.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")

    mapping = {
        "engine": "se",
        "query": "q",
        "date": "day",
        "date_format": "%d/%m/%Y",
        "rank": "pos",
        "url": "link",
        "title": "heading",
        "snippet": "text",
        "category": {"const": "energy"},
    }
    (DATA_DIR / "alien_mapping.json").write_text(
        json.dumps(mapping, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def build_url_fixtures() -> None:
    (DATA_DIR / "redirects.tsv").write_text(
        "# source<TAB>target\n"
        "http://example.com/old\thttp://example.com/new\n"
        "http://example.com/new\thttps://final.example.com/landing\n"
        "http://tracking.example.net/r?id=1\thttps://content.example.net/article\n",
        encoding="utf-8",
    )
    (DATA_DIR / "urls.txt").write_text(
        "# assorted messy URLs\n"
        "HTTP://Example.COM:80/a/./b/#frag\n"
        "https://example.com/a/%7euser\n"
        "http://example.com/old\n"
        "https://News.Example.org:443/x/../y?z=%41\n",
        encoding="utf-8",
    )


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    build_pair_file("pair_a.jsonl", "alpha", "abcdef", "plain")
    build_pair_file("pair_b_distinct.jsonl", "beta", "aghijk", "alt")
    build_pair_file("pair_b_same.jsonl", "beta", "aghijk", "plain")
    write_dataset(build_sample(), DATA_DIR / "sample.jsonl")
    build_alien()
    build_url_fixtures()
    print(f"fixtures written to {DATA_DIR}")


if __name__ == "__main__":
    main()
