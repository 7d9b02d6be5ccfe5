import datetime as dt
import itertools
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serpsim import (
    DEFAULT_CONFIG,
    MetricConfig,
    RankedList,
    SearchResult,
    SerpDataset,
    ValidationError,
    analysis,
    combined_similarity,
    consistency_series,
    cross_period_drift,
    impact_sweep,
    pair_summary,
    penalty_components,
    score_from_components,
    similarity_matrix,
    spearman_footrule_sim,
    textsim,
)
from tests.conftest import make_list

UNIT = MetricConfig(a=1.0, b=1.0, c=1.0, boost_weights=(0.15, 0.10, 0.07, 0.03, 0.01))

D1 = dt.date(2019, 7, 1)
D2 = dt.date(2019, 7, 2)
D3 = dt.date(2019, 7, 3)


@pytest.fixture
def grid_dataset() -> SerpDataset:
    """2x2 grid with one identical pair, one swap, one disjoint, one hole."""
    return SerpDataset.from_lists(
        [
            make_list("ab", engine="x", query="alpha query", date=D1),
            make_list("ab", engine="y", query="alpha query", date=D1),
            make_list("ab", engine="x", query="beta query", date=D1),
            make_list("ba", engine="y", query="beta query", date=D1),
            make_list("ab", engine="x", query="alpha query", date=D2),
            make_list("cd", engine="y", query="alpha query", date=D2),
            make_list("ab", engine="x", query="beta query", date=D2),
        ]
    )


class TestSerpDataset:
    def test_axes(self, grid_dataset):
        assert grid_dataset.engines() == ("x", "y")
        assert grid_dataset.queries() == ("alpha query", "beta query")
        assert grid_dataset.dates() == (D1, D2)
        assert grid_dataset.dates("y", "beta query") == (D1,)
        assert len(grid_dataset) == 7

    def test_get(self, grid_dataset):
        assert grid_dataset.get("y", "beta query", D1).urls()[0].startswith("https://b.")
        assert grid_dataset.get("y", "beta query", D2) is None

    def test_duplicate_rejected(self):
        lists = [make_list("ab", engine="x"), make_list("ba", engine="x")]
        with pytest.raises(ValidationError, match="duplicate"):
            SerpDataset.from_lists(lists)

    def test_categories_carried(self):
        ds = SerpDataset.from_lists(
            [make_list("ab", engine="x")], categories={"sample query": "testing"}
        )
        assert ds.categories["sample query"] == "testing"


class TestSimilarityMatrix:
    def test_grid_values(self, grid_dataset):
        matrix = similarity_matrix(grid_dataset, "x", "y", UNIT)
        assert matrix.engine_pair == ("x", "y")
        assert matrix.days == (D1, D2)
        assert matrix.queries == ("alpha query", "beta query")
        assert matrix.cell(D1, "alpha query") == 1.0
        assert matrix.cell(D1, "beta query") == pytest.approx(6 / 7)
        assert matrix.cell(D2, "alpha query") == 0.0
        assert matrix.cell(D2, "beta query") is None

    def test_symmetric_in_engine_order(self, grid_dataset):
        forward = similarity_matrix(grid_dataset, "x", "y", UNIT)
        backward = similarity_matrix(grid_dataset, "y", "x", UNIT)
        assert forward.values == backward.values

    def test_metric_override(self, grid_dataset):
        matrix = similarity_matrix(grid_dataset, "x", "y", metric_fn=spearman_footrule_sim)
        assert matrix.cell(D1, "beta query") == 0.0
        assert matrix.cell(D2, "alpha query") == 1.0

    def test_unknown_engine_rejected(self, grid_dataset):
        with pytest.raises(ValidationError, match="not in dataset"):
            similarity_matrix(grid_dataset, "x", "nope", UNIT)


def short_list_dataset() -> SerpDataset:
    """Engines x and y on two queries and two days; y's beta query list on D2 is short."""
    lists = []
    for query in ("alpha query", "beta query"):
        for day in (D1, D2):
            lists.append(make_list("abc", engine="x", query=query, date=day))
            short = query == "beta query" and day == D2
            lists.append(make_list("ab" if short else "acb", engine="y", query=query, date=day))
    return SerpDataset.from_lists(lists)


class TestScoringErrorNamesCell:
    CELL = "x vs y, query 'beta query', 2019-07-02: lists must be the same length, got 3 and 2"

    def test_combined_matrix(self):
        with pytest.raises(ValidationError) as info:
            similarity_matrix(short_list_dataset(), "x", "y", UNIT)
        assert str(info.value) == self.CELL
        assert "same length" in str(info.value.__cause__)

    def test_metric_fn_matrix(self):
        with pytest.raises(ValidationError) as info:
            similarity_matrix(short_list_dataset(), "x", "y", metric_fn=spearman_footrule_sim)
        assert str(info.value) == self.CELL

    def test_sweep(self):
        with pytest.raises(ValidationError) as info:
            impact_sweep(short_list_dataset(), "x", "y", "snippet")
        assert str(info.value) == self.CELL

    def test_failed_pair_is_not_cached(self):
        ds = short_list_dataset()
        with pytest.raises(ValidationError):
            similarity_matrix(ds, "x", "y", UNIT)
        assert ds._components == {}

    def test_drift(self):
        old = SerpDataset.from_lists([
            make_list("abc", engine="x", query="alpha query", date=D1),
            make_list("abc", engine="x", query="beta query", date=D1),
        ])
        new = SerpDataset.from_lists([
            make_list("acb", engine="x", query="alpha query", date=D2),
            make_list("ab", engine="x", query="beta query", date=D3),
        ])
        with pytest.raises(ValidationError) as info:
            cross_period_drift(old, new, "x", UNIT)
        assert str(info.value) == (
            "x, query 'beta query', 2019-07-01 vs 2019-07-03: "
            "lists must be the same length, got 3 and 2"
        )

    def test_drift_missing_pinned_date(self, grid_dataset):
        with pytest.raises(ValidationError) as info:
            cross_period_drift(grid_dataset, grid_dataset, "y", UNIT, date_old=D1, date_new=D2)
        assert str(info.value) == (
            "y, query 'beta query', 2019-07-01 vs 2019-07-02: "
            "no record for y/beta query on the requested date"
        )


QUERIES = ("alpha", "beta", "alpha gamma")
# holds the tokens of every query, so each query strips it differently
SHARED_TEXT = "alpha beta gamma word"
TEXTS = (SHARED_TEXT, "beta word", "word note", "Alpha, ALPHA gamma", "note", "", "the word")
URL_KEYS = "abcdef"
STOPWORD_SETS = (None, frozenset(), frozenset({"word"}), frozenset({"gamma", "note"}))


@st.composite
def repeating_datasets(draw) -> SerpDataset:
    """Two or three engines, queries and dates whose texts repeat.

    Each URL has two (title, snippet) variants shared by every list it
    appears in, so a text recurs across dates, engines and queries. URL
    "a" heads the first date's lists of the first two queries for the
    first two engines, carrying ``SHARED_TEXT`` under both queries.
    """
    engines = ("x", "y", "z")[: draw(st.integers(2, 3))]
    queries = QUERIES[: draw(st.integers(2, 3))]
    days = (D1, D2, D3)[: draw(st.integers(2, 3))]
    n = draw(st.integers(1, 4))
    text = st.sampled_from(TEXTS)
    variants = {(key, v): (draw(text), draw(text)) for key in URL_KEYS for v in (0, 1)}
    variants["a", 0] = (SHARED_TEXT, SHARED_TEXT)
    lists = []
    for (e, engine), (q, query), day in itertools.product(
        enumerate(engines), enumerate(queries), days
    ):
        forced = day == D1 and e < 2 and q < 2
        if not forced and draw(st.integers(0, 3)) == 0:
            continue
        keys = list(draw(st.permutations(URL_KEYS)))
        if forced:
            keys.remove("a")
            keys.insert(0, "a")
        results = []
        for rank, key in enumerate(keys[:n], start=1):
            v = 0 if forced and rank == 1 else draw(st.integers(0, 1))
            title, snippet = variants[key, v]
            results.append(SearchResult(
                url=f"https://{key}.example.com/", title=title, snippet=snippet, rank=rank
            ))
        lists.append(RankedList(engine, query, day, tuple(results)))
    return SerpDataset.from_lists(lists)


def _fresh_sweep(dataset, engine_a, engine_b, factor, stopwords):
    """``impact_sweep``'s base_mean and decrease_pct from fresh per-cell components."""
    components = [
        penalty_components(list_a, list_b, stopwords)
        for day in dataset.dates()
        for query in dataset.queries()
        if (list_a := dataset.get(engine_a, query, day)) is not None
        and (list_b := dataset.get(engine_b, query, day)) is not None
    ]

    def mean(weight):
        penalties = dict.fromkeys("abc", 0.0)
        penalties["abc"[analysis.SWEEP_FACTORS.index(factor)]] = weight
        cfg = MetricConfig(**penalties, boost_weights=DEFAULT_CONFIG.boost_weights)
        return statistics.fmean(score_from_components(c, cfg).score for c in components)

    base = mean(0.0)
    drops = [100.0 * (base - mean(step)) / base for step in analysis.DEFAULT_SWEEP_STEPS]
    return base, tuple(0.0 if -1e-9 <= d < 0.0 else d for d in drops)


class TestCachedComponents:
    @settings(max_examples=1000, deadline=None)
    @given(
        dataset=repeating_datasets(),
        stopwords=st.lists(st.sampled_from(STOPWORD_SETS), min_size=2, max_size=2),
        weights=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
        factor=st.sampled_from(analysis.SWEEP_FACTORS),
    )
    def test_matches_fresh_per_cell_scores_bit_for_bit(self, dataset, stopwords, weights, factor):
        cfgs = (DEFAULT_CONFIG, MetricConfig(*weights))
        engines = dataset.engines()
        for sw, cfg in zip(stopwords, cfgs):
            for engine_a, engine_b in itertools.permutations(engines, 2):
                matrix = similarity_matrix(dataset, engine_a, engine_b, cfg, stopwords=sw)
                for day, row in zip(matrix.days, matrix.values):
                    for query, value in zip(matrix.queries, row):
                        list_a = dataset.get(engine_a, query, day)
                        list_b = dataset.get(engine_b, query, day)
                        if list_a is None or list_b is None:
                            assert value is None
                        else:
                            expected = combined_similarity(list_a, list_b, cfg, sw).score
                            assert value == expected, (engine_a, engine_b, query, day, sw)
            base, drops = _fresh_sweep(dataset, *engines[:2], factor, sw)
            if base <= 0.0:
                with pytest.raises(ValidationError, match="zero"):
                    impact_sweep(dataset, *engines[:2], factor, stopwords=sw)
            else:
                report = impact_sweep(dataset, *engines[:2], factor, stopwords=sw)
                assert (report.base_mean, report.decrease_pct) == (base, drops)


@pytest.fixture
def counted(monkeypatch) -> list:
    """Arguments of every ``penalty_components`` call made by ``analysis``."""
    calls = []
    original = analysis.penalty_components

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "penalty_components", counting)
    return calls


def _copy(dataset: SerpDataset) -> SerpDataset:
    return SerpDataset.from_lists(dataset.get(*key) for key in dataset)


class TestComponentCacheKey:
    def test_new_weights_and_sweep_measure_nothing_again(self, grid_dataset, counted):
        similarity_matrix(grid_dataset, "x", "y")
        assert len(counted) == 3
        matrix = similarity_matrix(grid_dataset, "x", "y", UNIT)
        report = impact_sweep(grid_dataset, "x", "y", "title")
        assert len(counted) == 3
        assert matrix == similarity_matrix(_copy(grid_dataset), "x", "y", UNIT)
        assert report == impact_sweep(_copy(grid_dataset), "x", "y", "title")

    def test_stopwords_are_part_of_the_key(self, counted):
        dataset = SerpDataset.from_lists([
            make_list("ab", engine="x"),
            make_list("ab", engine="y", snippet_flavor="alt"),
        ])
        # every snippet word of URL a: its snippets become equal (empty)
        stopwords = frozenset({"snippeta", "texta", "infoa", "wordsa", "bodya", "prosea"})
        default = similarity_matrix(dataset, "x", "y", UNIT)
        stripped = similarity_matrix(dataset, "x", "y", UNIT, stopwords=stopwords)
        assert len(counted) == 2
        assert stripped == similarity_matrix(_copy(dataset), "x", "y", UNIT, stopwords=stopwords)
        assert stripped.values != default.values

    def test_metric_fn_ignores_cached_components(self, grid_dataset):
        similarity_matrix(grid_dataset, "x", "y", UNIT)
        footrule = similarity_matrix(grid_dataset, "x", "y", metric_fn=spearman_footrule_sim)
        assert footrule == similarity_matrix(
            _copy(grid_dataset), "x", "y", metric_fn=spearman_footrule_sim
        )
        assert footrule.cell(D1, "beta query") == 0.0


def _panel() -> SerpDataset:
    """Engines x and y on every query and three days; y's content differs on D2."""
    return SerpDataset.from_lists(
        make_list(keys, engine=engine, query=query, date=day,
                  flavor="alt" if (engine, day) == ("y", D2) else "plain")
        for engine, keys in (("x", "abc"), ("y", "cab"))
        for query in QUERIES
        for day in (D1, D2, D3)
    )


class TestContentCache:
    def test_holds_the_last_query_only(self):
        dataset = _panel()
        for stopwords in (None, frozenset({"word"})):
            similarity_matrix(dataset, "x", "y", stopwords=stopwords)
            impact_sweep(dataset, "y", "x", "title", stopwords=stopwords)
            assert list(textsim._cache) == [(max(QUERIES), stopwords)]

    def test_each_text_is_tokenized_once_per_query(self, monkeypatch):
        dataset = _panel()
        tokenized = []
        tokenize = textsim.tokenize

        def counting(text, *args):
            tokenized.append(text)
            return tokenize(text, *args)

        monkeypatch.setattr(textsim, "tokenize", counting)
        textsim._cache.clear()
        similarity_matrix(dataset, "x", "y")
        texts_per_query = [
            {text for key in dataset if key[1] == query
             for r in dataset.get(*key).results for text in (r.title, r.snippet)}
            for query in QUERIES
        ]
        assert len(tokenized) == sum(map(len, texts_per_query)) == 12 * len(QUERIES)


class TestConsistencySeries:
    def test_per_day_means(self, grid_dataset):
        matrix = similarity_matrix(grid_dataset, "x", "y", UNIT)
        series = consistency_series(matrix)
        assert series[0][0] == D1
        assert series[0][1] == pytest.approx(13 / 14)
        assert series[1][1] == pytest.approx(0.0)

    def test_day_without_cells_is_none(self):
        ds = SerpDataset.from_lists(
            [
                make_list("ab", engine="x", date=D1),
                make_list("ab", engine="y", date=D1),
                make_list("ab", engine="x", date=D2),
            ]
        )
        matrix = similarity_matrix(ds, "x", "y", UNIT)
        assert consistency_series(matrix)[1] == (D2, None)


class TestPairSummary:
    def test_statistics(self, grid_dataset):
        matrix = similarity_matrix(grid_dataset, "x", "y", UNIT)
        stats = pair_summary(matrix)
        assert stats["mean"] == pytest.approx(13 / 21)
        assert stats["median"] == pytest.approx(6 / 7)
        assert stats["min"] == 0.0
        assert stats["max"] == 1.0

    def test_empty_matrix_rejected(self):
        ds = SerpDataset.from_lists(
            [
                make_list("ab", engine="x", date=D1),
                make_list("ab", engine="y", date=D2),
            ]
        )
        matrix = similarity_matrix(ds, "x", "y", UNIT)
        with pytest.raises(ValidationError, match="no scored cells"):
            pair_summary(matrix)


@pytest.fixture
def sweep_dataset() -> SerpDataset:
    """Same URLs and order, same titles, orthogonal snippets."""
    return SerpDataset.from_lists(
        [
            make_list("abcdef", engine="x", snippet_flavor="plain"),
            make_list("abcdef", engine="y", snippet_flavor="alt"),
        ]
    )


class TestImpactSweep:
    def test_snippet_weight_bites(self, sweep_dataset):
        report = impact_sweep(sweep_dataset, "x", "y", "snippet")
        assert report.base_mean == pytest.approx(1.0)
        assert all(pct > 0 for pct in report.decrease_pct)
        assert list(report.decrease_pct) == sorted(report.decrease_pct)
        # closed form for this fixture: identical ranks, orthogonal snippets
        for w, pct in zip(report.weight_steps, report.decrease_pct):
            assert pct == pytest.approx(100 * (1 - 0.36) * w * 6 / 19)

    def test_silent_factors_stay_zero(self, sweep_dataset):
        for factor in ("title", "transposition"):
            report = impact_sweep(sweep_dataset, "x", "y", factor)
            assert all(pct == pytest.approx(0.0, abs=1e-12) for pct in report.decrease_pct)

    def test_boost_weights_apply_at_every_step(self, sweep_dataset):
        report = impact_sweep(sweep_dataset, "x", "y", "snippet", boost_weights=())
        for w, pct in zip(report.weight_steps, report.decrease_pct):
            assert pct == pytest.approx(100 * w * 6 / 19)

    def test_bad_factor_rejected(self, sweep_dataset):
        with pytest.raises(ValidationError, match="factor"):
            impact_sweep(sweep_dataset, "x", "y", "velocity")

    @pytest.mark.parametrize("steps", [(), (0.5, 0.5), (0.8, 0.2), (0.0, 0.5), (0.5, 1.2)])
    def test_bad_steps_rejected(self, sweep_dataset, steps):
        with pytest.raises(ValidationError, match="step"):
            impact_sweep(sweep_dataset, "x", "y", "snippet", steps)

    def test_zero_baseline_rejected(self):
        ds = SerpDataset.from_lists(
            [make_list("abc", engine="x"), make_list("xyz", engine="y")]
        )
        with pytest.raises(ValidationError, match="zero"):
            impact_sweep(ds, "x", "y", "snippet")

    def test_no_shared_cells_rejected(self):
        ds = SerpDataset.from_lists(
            [
                make_list("abc", engine="x", date=D1),
                make_list("abc", engine="y", date=D2),
            ]
        )
        with pytest.raises(ValidationError, match="no overlapping"):
            impact_sweep(ds, "x", "y", "snippet")


class TestCrossPeriodDrift:
    def test_same_lists_score_one(self, grid_dataset):
        scores = cross_period_drift(
            grid_dataset, grid_dataset, "x", UNIT, date_old=D1, date_new=D1
        )
        assert set(scores) == {"alpha query", "beta query"}
        assert all(v == 1.0 for v in scores.values())

    def test_defaults_to_earliest_dates(self):
        old = SerpDataset.from_lists([make_list("abcdef", engine="x", date=D1)])
        new = SerpDataset.from_lists([make_list("abcghi", engine="x", date=D2)])
        scores = cross_period_drift(old, new, "x", UNIT)
        assert scores["sample query"] == pytest.approx(0.6779, abs=1e-4)

    def test_each_query_uses_its_own_earliest_date(self):
        old = SerpDataset.from_lists([
            make_list("abcdef", engine="x", query="alpha query", date=D2),
            make_list("fedcba", engine="x", query="alpha query", date=D3),
            make_list("abcghi", engine="x", query="beta query", date=D1),
            make_list("abcdef", engine="x", query="beta query", date=D3),
            make_list("ghidef", engine="y", query="alpha query", date=D1),
        ])
        new = SerpDataset.from_lists([
            make_list("abcdfe", engine="x", query="alpha query", date=D3),
            make_list("abcdef", engine="x", query="beta query", date=D2),
            make_list("defabc", engine="x", query="beta query", date=D3),
            make_list("abcdef", engine="y", query="beta query", date=D1),
        ])
        expected = {
            "alpha query": combined_similarity(
                old.get("x", "alpha query", D2), new.get("x", "alpha query", D3), UNIT
            ).score,
            "beta query": combined_similarity(
                old.get("x", "beta query", D1), new.get("x", "beta query", D2), UNIT
            ).score,
        }
        scores = cross_period_drift(old, new, "x", UNIT)
        assert scores == expected
        assert list(scores) == ["alpha query", "beta query"]
        assert len(set(scores.values())) == 2

    def test_no_shared_queries_rejected(self):
        old = SerpDataset.from_lists([make_list("ab", engine="x", query="one query")])
        new = SerpDataset.from_lists([make_list("ab", engine="x", query="two query")])
        with pytest.raises(ValidationError, match="share no queries"):
            cross_period_drift(old, new, "x", UNIT)

    def test_missing_engine_rejected(self, grid_dataset):
        with pytest.raises(ValidationError, match="not in dataset"):
            cross_period_drift(grid_dataset, grid_dataset, "zz", UNIT)
