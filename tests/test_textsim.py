import datetime as dt
import math
import os
import re
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serpsim import (
    RankAlignment,
    RankedList,
    SearchResult,
    content_penalty,
    cosine_distance,
    default_stopwords,
    load_stopwords,
    tokenize,
)
from tests.conftest import make_list

# Stopwords, query words in mixed case, plain words and non-ASCII words;
# "" lets a text be separators only.
_WORDS = ["the", "Of", "AND", "aurora", "AURORA", "Borealis", "solar", "panel", "2019",
          "škoda", "naïve", "x", ""]
_SEPARATORS = [" ", "_", "-", ", ", "!? ", "\t", "..."]
_QUERIES = ["aurora borealis", "Aurora", "SOLAR panel 2019", "the aurora"]
_STOPWORDS = [None, frozenset(), frozenset({"the", "of", "and", "solar"})]

_texts = st.lists(
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=8
).map(lambda parts: "".join(word + sep for word, sep in parts))


def penalty(list_a, list_b, field, stopwords=None):
    """``content_penalty`` over the one alignment of two lists for the same query."""
    return content_penalty(RankAlignment.from_lists(list_a, list_b), field, list_a.query, stopwords)


class TestTokenize:
    def test_lowercases_and_splits_on_non_word_runs(self):
        counts = tokenize("Solar-Panels: cost/benefit (2019)!", stopwords=frozenset())
        assert counts == Counter(
            {"solar": 1, "panels": 1, "cost": 1, "benefit": 1, "2019": 1}
        )

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar", stopwords=frozenset()) == Counter({"foo": 1, "bar": 1})

    def test_counts_repeats(self):
        counts = tokenize("solar solar panels", stopwords=frozenset())
        assert counts == Counter({"solar": 2, "panels": 1})

    def test_stopwords_and_query_removed(self):
        counts = tokenize(
            "The best aurora borealis viewing guide for beginners",
            query="aurora borealis",
        )
        assert counts == Counter({"best": 1, "viewing": 1, "guide": 1, "beginners": 1})

    def test_query_match_is_case_insensitive(self):
        counts = tokenize("Aurora sightings", query="AURORA", stopwords=frozenset())
        assert counts == Counter({"sightings": 1})
        # "İ".lower() is "i" plus a combining dot, which splits the word in two
        counts = tokenize("İstanbul travel guide", query="İstanbul", stopwords=frozenset())
        assert counts == Counter({"travel": 1, "guide": 1})

    def test_unicode_words_survive(self):
        counts = tokenize("Škoda Österreich naïve", stopwords=frozenset())
        assert counts == Counter({"škoda": 1, "österreich": 1, "naïve": 1})

    def test_empty_text(self):
        assert tokenize("", stopwords=frozenset()) == Counter()


class TestCosineDistance:
    def test_both_empty_is_zero(self):
        assert cosine_distance(Counter(), Counter()) == 0.0

    def test_one_empty_is_one(self):
        assert cosine_distance(Counter({"x": 1}), Counter()) == 1.0
        assert cosine_distance(Counter(), Counter({"x": 1})) == 1.0

    def test_same_vector_is_exactly_zero(self):
        v = Counter({"alpha": 3, "beta": 2, "gamma": 7})
        assert cosine_distance(v, v) == 0.0

    def test_equal_vectors_are_exactly_zero(self):
        v = Counter({"alpha": 3, "beta": 2, "gamma": 7})
        assert cosine_distance(v, Counter(v)) == 0.0

    def test_orthogonal_vectors_are_one(self):
        assert cosine_distance(Counter({"x": 2}), Counter({"y": 5})) == 1.0

    def test_partial_overlap(self):
        # cos = 1/sqrt(2) when one doc adds a second, equally frequent term
        d = cosine_distance(Counter({"x": 1, "y": 1}), Counter({"x": 1}))
        assert d == pytest.approx(1 - 1 / math.sqrt(2))

    def test_scale_invariant(self):
        v1 = Counter({"x": 1, "y": 2})
        v2 = Counter({"x": 3, "y": 6})
        assert cosine_distance(v1, v2) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        v1 = Counter({"x": 2, "y": 1})
        v2 = Counter({"y": 4, "z": 3})
        assert cosine_distance(v1, v2) == cosine_distance(v2, v1)


class TestContentPenalty:
    def test_identical_lists_zero(self):
        a = make_list("abc", engine="e1")
        b = make_list("abc", engine="e2")
        assert penalty(a, b, "snippet") == 0.0
        assert penalty(a, b, "title") == 0.0

    def test_disjoint_lists_zero(self):
        a = make_list("abc", engine="e1")
        b = make_list("xyz", engine="e2")
        assert penalty(a, b, "snippet") == 0.0

    def test_orthogonal_content_costs_one_per_shared_url(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("abcghi", engine="e2", flavor="alt")
        assert penalty(a, b, "snippet") == pytest.approx(3.0)
        assert penalty(a, b, "title") == pytest.approx(3.0)

    def test_symmetric(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("fedcba", engine="e2", flavor="alt")
        assert penalty(a, b, "snippet") == penalty(b, a, "snippet")

    @settings(max_examples=1000, deadline=None)
    @given(
        query=st.sampled_from(_QUERIES),
        stopwords=st.sampled_from(_STOPWORDS),
        field=st.sampled_from(["snippet", "title"]),
        # per rank: is the URL shared, is its text equal on both sides, the two texts
        slots=st.lists(
            st.tuples(st.booleans(), st.booleans(), _texts, _texts), min_size=1, max_size=6
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_matches_per_url_reference_bit_for_bit(self, query, stopwords, field, slots, order):
        def ranked(engine, entries):
            return RankedList(engine, query, dt.date(2019, 7, 1), tuple(
                SearchResult(url=url, rank=rank, **{"title": "x", "snippet": "x", field: text})
                for rank, (url, text) in enumerate(entries, start=1)
            ))

        side_a = [(f"https://{i}.example.com/", ta) for i, (_, _, ta, _) in enumerate(slots)]
        side_b = [
            (f"https://{i if shared else f'b{i}'}.example.com/", ta if same else tb)
            for i, (shared, same, ta, tb) in enumerate(slots)
        ]
        order.shuffle(side_b)
        list_a, list_b = ranked("e1", side_a), ranked("e2", side_b)

        text_a, text_b = dict(side_a), dict(side_b)
        expected = sum(
            cosine_distance(
                tokenize(text_a[url], query, stopwords), tokenize(text_b[url], query, stopwords)
            )
            for url in sorted(text_a.keys() & text_b.keys())
        )
        assert penalty(list_a, list_b, field, stopwords) == expected
        assert penalty(list_b, list_a, field, stopwords) == expected

        drop = (default_stopwords() if stopwords is None else stopwords) | set(
            re.findall(r"[^\W_]+", query.lower())
        )
        for text in text_a.values():
            assert tokenize(text, query, stopwords) == tokenize(text, "", drop)

    @settings(max_examples=1000, deadline=None)
    @given(
        texts=st.lists(_texts, min_size=1, max_size=3),
        # per call: query, stopwords, field, and which texts its two URLs carry
        calls=st.lists(
            st.tuples(
                st.sampled_from(_QUERIES), st.sampled_from(_STOPWORDS),
                st.sampled_from(["snippet", "title"]), st.integers(0, 2), st.integers(0, 2),
            ),
            max_size=8,
        ),
    )
    def test_cache_never_crosses_queries_or_stopwords(self, texts, calls):
        def ranked(engine, query, field, first, second):
            return RankedList(engine, query, dt.date(2019, 7, 1), tuple(
                SearchResult(url=url, rank=rank, **{"title": "x", "snippet": "x", field: text})
                for rank, (url, text) in enumerate(
                    [("https://a.example.com/", first), ("https://b.example.com/", second)],
                    start=1,
                )
            ))

        # a fixed start moves to another query and stopword set, then back to both
        start = [(_QUERIES[0], None), (_QUERIES[1], _STOPWORDS[2]), (_QUERIES[0], None)]
        for query, stopwords, field, i, j in [(q, sw, "snippet", 0, 1) for q, sw in start] + calls:
            a, b = texts[i % len(texts)], texts[j % len(texts)]
            va, vb = (tokenize(text, query, stopwords) for text in (a, b))
            expected = sum([cosine_distance(va, vb), cosine_distance(vb, va)])
            pair = (ranked("e1", query, field, a, b), ranked("e2", query, field, b, a))
            assert penalty(*pair, field, stopwords) == expected

    def test_threads_scoring_at_once_get_fresh_results(self):
        text_a, text_b = "aurora solar borealis the panel", "Aurora panel škoda of 2019"
        pairs = {query: tuple(
            RankedList(engine, query, dt.date(2019, 7, 1), (
                SearchResult(url="https://a.example.com/", title="t", snippet=text, rank=1),
            ))
            for engine, text in (("e1", text_a), ("e2", text_b))
        ) for query in _QUERIES}
        keys = [(query, stopwords) for query in _QUERIES for stopwords in _STOPWORDS]
        expected = {
            key: cosine_distance(tokenize(text_a, *key), tokenize(text_b, *key)) for key in keys
        }
        wrong = []

        def score(offset):
            for k in range(1000):
                query, stopwords = keys[(offset + k) % len(keys)]
                try:
                    got = penalty(*pairs[query], "snippet", stopwords)
                except Exception as exc:  # recorded, so the assertion below reports it
                    got = exc
                if got != expected[(query, stopwords)]:
                    wrong.append((query, stopwords, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=score, args=(i,)) for i in range((os.cpu_count() or 1) + 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_stopwords_must_be_hashable(self):
        a, b = make_list("abc", engine="e1"), make_list("abc", engine="e2")
        with pytest.raises(TypeError):
            penalty(a, b, "snippet", {"snippeta"})


class TestStopwords:
    def test_default_list_loads_and_has_core_words(self):
        words = default_stopwords()
        assert isinstance(words, frozenset)
        assert {"the", "for", "of", "and"} <= words

    def test_load_custom_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nFoo\n\nbar\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"foo", "bar"})

    def test_only_cr_and_lf_end_a_line(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("foo\u2028bar\rbaz\x1cqux\r\nend\x85word\n", encoding="utf-8", newline="")
        assert load_stopwords(path) == frozenset({"foo\u2028bar", "baz\x1cqux", "end\x85word"})
