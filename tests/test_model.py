import datetime as dt
from dataclasses import FrozenInstanceError, replace

import pytest

from serpsim import (
    DEFAULT_CONFIG,
    MetricConfig,
    RankedList,
    SearchResult,
    SimilarityMatrix,
    ValidationError,
    validate_ranked_list,
)
from tests.conftest import make_list


def result(url: str, rank: int) -> SearchResult:
    return SearchResult(url=url, title="t", snippet="s", rank=rank)


class TestSearchResult:
    def test_fields_held(self):
        r = SearchResult(url="https://x.example.com", title="T", snippet="S", rank=3)
        assert (r.url, r.title, r.snippet, r.rank) == ("https://x.example.com", "T", "S", 3)

    def test_empty_url_rejected(self):
        with pytest.raises(ValidationError):
            result("", 1)

    @pytest.mark.parametrize("rank", [0, -1, 1.5, "1", True])
    def test_bad_rank_rejected(self, rank):
        with pytest.raises(ValidationError):
            SearchResult(url="https://x.example.com", title="", snippet="", rank=rank)

    def test_empty_title_and_snippet_allowed(self):
        r = SearchResult(url="https://x.example.com", title="", snippet="", rank=1)
        assert r.title == "" and r.snippet == ""

    def test_slotted_frozen_value(self):
        r = SearchResult(url="https://x.example.com", title="T", snippet="S", rank=3)
        assert not hasattr(r, "__dict__")
        moved = replace(r, rank=1)
        same = SearchResult(url="https://x.example.com", title="T", snippet="S", rank=1)
        assert moved == same and hash(moved) == hash(same)
        assert moved != r and r.rank == 3
        with pytest.raises(ValidationError):
            replace(r, rank=0)
        with pytest.raises(FrozenInstanceError):
            r.rank = 1


class TestRankedList:
    def test_helpers(self):
        ranked = make_list("abc")
        assert ranked.n == 3
        assert ranked.urls() == (
            "https://a.example.com/page",
            "https://b.example.com/page",
            "https://c.example.com/page",
        )

    def test_rank_gap_rejected(self):
        with pytest.raises(ValidationError, match="ranks"):
            RankedList(
                engine="e", query="q", date=dt.date(2019, 7, 1),
                results=(result("https://a.example.com", 1), result("https://b.example.com", 3)),
            )

    def test_duplicate_url_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            RankedList(
                engine="e", query="q", date=dt.date(2019, 7, 1),
                results=(result("https://a.example.com", 1), result("https://a.example.com", 2)),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            RankedList(engine="e", query="q", date=dt.date(2019, 7, 1), results=())

    def test_datetime_rejected(self):
        with pytest.raises(ValidationError, match="date"):
            RankedList(
                engine="e", query="q", date=dt.datetime(2019, 7, 1, 12, 0),
                results=(result("https://a.example.com", 1),),
            )


class TestMetricConfig:
    def test_default_config(self):
        assert (DEFAULT_CONFIG.a, DEFAULT_CONFIG.b, DEFAULT_CONFIG.c) == (0.8, 1.0, 0.8)
        assert DEFAULT_CONFIG.boost_weights == (0.15, 0.10, 0.07, 0.03, 0.01)
        assert DEFAULT_CONFIG.r == 5

    @pytest.mark.parametrize("field", ["a", "b", "c"])
    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_weight_range(self, field, value):
        kwargs = {"a": 0.5, "b": 0.5, "c": 0.5, field: value}
        with pytest.raises(ValidationError):
            MetricConfig(**kwargs)

    def test_boost_must_descend(self):
        with pytest.raises(ValidationError, match="descending"):
            MetricConfig(a=1, b=1, c=1, boost_weights=(0.1, 0.1))

    def test_boost_must_be_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            MetricConfig(a=1, b=1, c=1, boost_weights=(0.2, 0.0))

    @pytest.mark.parametrize("weights", [(float("nan"),), (0.2, float("nan"))])
    def test_nan_boost_rejected(self, weights):
        with pytest.raises(ValidationError, match="positive"):
            MetricConfig(a=1, b=1, c=1, boost_weights=weights)

    def test_boost_sum_capped(self):
        with pytest.raises(ValidationError, match="sum"):
            MetricConfig(a=1, b=1, c=1, boost_weights=(0.9, 0.2))

    def test_no_boost_is_fine(self):
        assert MetricConfig(a=0, b=0, c=0).r == 0


class TestSimilarityMatrix:
    def test_cell_lookup_and_missing(self):
        m = SimilarityMatrix(
            engine_pair=("x", "y"),
            days=(dt.date(2019, 7, 1), dt.date(2019, 7, 2)),
            queries=("q1", "q2"),
            values=((1.0, None), (0.5, 0.25)),
        )
        assert m.cell(dt.date(2019, 7, 1), "q2") is None
        assert m.cell(dt.date(2019, 7, 2), "q1") == 0.5
        assert m.present_values() == [1.0, 0.5, 0.25]

    def test_row_shape_checked(self):
        with pytest.raises(ValidationError):
            SimilarityMatrix(
                engine_pair=("x", "y"),
                days=(dt.date(2019, 7, 1),),
                queries=("q1", "q2"),
                values=((1.0,),),
            )

    def test_value_range_checked(self):
        with pytest.raises(ValidationError):
            SimilarityMatrix(
                engine_pair=("x", "y"),
                days=(dt.date(2019, 7, 1),),
                queries=("q1",),
                values=((1.5,),),
            )


class TestValidateRankedList:
    def test_dedup_truncate_rerank(self):
        raw = [
            result("https://a.example.com", 2),
            result("https://b.example.com", 1),
            result("https://b.example.com", 3),
            result("https://c.example.com", 4),
        ]
        ranked = validate_ranked_list(
            raw, 2, engine="e", query="q", date=dt.date(2019, 7, 1)
        )
        assert ranked.urls() == ("https://b.example.com", "https://a.example.com")
        assert [r.rank for r in ranked.results] == [1, 2]

    def test_results_at_final_rank_are_reused(self):
        raw = [result("https://b.example.com", 2), result("https://a.example.com", 1)]
        ranked = validate_ranked_list(raw, 2, engine="e", query="q", date=dt.date(2019, 7, 1))
        assert ranked.results[0] is raw[1]
        assert ranked.results[1] is raw[0]

    def test_duplicate_input_rank_rejected(self):
        raw = [result("https://a.example.com", 1), result("https://b.example.com", 1)]
        with pytest.raises(ValidationError, match="duplicate rank"):
            validate_ranked_list(raw, 2, engine="e", query="q", date=dt.date(2019, 7, 1))

    def test_strict_rejects_short_lists(self):
        raw = [result("https://a.example.com", 1)]
        with pytest.raises(ValidationError, match="strict|expected"):
            validate_ranked_list(
                raw, 3, engine="e", query="q", date=dt.date(2019, 7, 1), strict=True
            )

    def test_lenient_keeps_short_lists(self):
        raw = [result("https://a.example.com", 1)]
        ranked = validate_ranked_list(
            raw, 3, engine="e", query="q", date=dt.date(2019, 7, 1)
        )
        assert ranked.n == 1
