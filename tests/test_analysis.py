import datetime as dt
import gc
import itertools
import os
import statistics
import sys
import threading
import weakref
from dataclasses import replace
from typing import Callable

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
    return SerpDataset(
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
            SerpDataset(lists)

    def test_categories_carried(self):
        ds = SerpDataset(
            [make_list("ab", engine="x")], categories={"sample query": "testing"}
        )
        assert ds.categories["sample query"] == "testing"

    def test_repeated_key_is_refused_and_named(self):
        lists = [make_list("ab", engine="x", date=D1), make_list("ab", engine="y", date=D1),
                 make_list("ba", engine="x", date=D1)]
        key = ("x", "sample query", D1)
        with pytest.raises(ValidationError) as info:
            SerpDataset(lists)
        assert str(info.value) == f"duplicate record for {key}"

    def test_same_lists_on_other_dates_are_kept(self):
        ds = SerpDataset(make_list("ab", engine="x", date=day) for day in (D1, D2))
        assert list(ds) == [("x", "sample query", D1), ("x", "sample query", D2)]

    def test_keeps_categories_as_its_own_copy(self):
        categories = {"sample query": "testing"}
        ds = SerpDataset([make_list("ab", engine="x")], categories)
        categories["sample query"] = "changed"
        assert ds.categories == {"sample query": "testing"}
        assert SerpDataset([]).categories == {}

    def test_accepts_a_generator(self):
        lists = [make_list("ab", engine=engine) for engine in ("x", "y", "z")]
        ds = SerpDataset(ranked for ranked in lists)
        assert len(ds) == 3
        assert [ds.get(*key) for key in ds] == lists


INDEX_ENGINES, INDEX_QUERIES, INDEX_DATES = ("x", "y", "z"), ("q1", "q2", "q3", "q4"), (D1, D2, D3)
#: One list per possible key, built once: a dataset of ``keys`` holds ``INDEXED[k]`` for each.
INDEXED = {
    (e, q, d): make_list("ab", engine=e, query=q, date=d)
    for e in INDEX_ENGINES for q in INDEX_QUERIES for d in INDEX_DATES
}


class TestIndexMatchesAScan:
    """Every accessor of a dataset answers as a brute-force scan of its keys would, for
    each engine and query, ``None`` and one the dataset lacks."""

    @settings(max_examples=1000, deadline=None)
    @given(keys=st.lists(st.sampled_from(sorted(INDEXED)), unique=True), data=st.data())
    def test_accessors_equal_a_scan_of_the_keys(self, keys, data):
        ds = SerpDataset(INDEXED[key] for key in keys)
        assert (list(ds), len(ds)) == (sorted(keys), len(keys))
        assert ds.engines() == tuple(sorted({e for e, _, _ in keys}))
        for engine in (*INDEX_ENGINES, None, "w"):
            scanned = [key for key in keys if engine in (None, key[0])]
            assert ds.queries(engine) == tuple(sorted({q for _, q, _ in scanned}))
            for query in (*INDEX_QUERIES, None, "q0"):
                dates = {d for _, q, d in scanned if query in (None, q)}
                assert ds.dates(engine, query) == tuple(sorted(dates)), (engine, query)
                for date in (*INDEX_DATES, D1 - dt.timedelta(days=1)):
                    key = (engine, query, date)
                    assert ds.get(*key) is (INDEXED[key] if key in keys else None), key

        if keys:
            first = data.draw(st.integers(0, len(keys) - 1))
            lists = [INDEXED[key] for key in keys]
            lists.insert(data.draw(st.integers(first + 1, len(keys))), replace(lists[first]))
            with pytest.raises(ValidationError) as info:
                SerpDataset(lists)
            assert str(info.value) == f"duplicate record for {keys[first]}"

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

    def test_pair_of_unequal_depth_is_scored_at_the_shorter_depth(self):
        ds = short_list_dataset()
        list_x, list_y = (ds.get(engine, "beta query", D2) for engine in "xy")
        assert (list_x.n, list_y.n) == (3, 2)
        at_two = replace(list_x, results=list_x.results[:2])
        combined = similarity_matrix(ds, "x", "y", UNIT)
        footrule = similarity_matrix(ds, "x", "y", metric_fn=spearman_footrule_sim)
        assert combined.cell(D2, "beta query") == combined_similarity(at_two, list_y, UNIT).score
        assert footrule.cell(D2, "beta query") == spearman_footrule_sim(at_two, list_y)


def short_list_dataset() -> SerpDataset:
    """Engines x and y on two queries and two days; y's beta query list on D2 is short."""
    lists = []
    for query in ("alpha query", "beta query"):
        for day in (D1, D2):
            lists.append(make_list("abc", engine="x", query=query, date=day))
            short = query == "beta query" and day == D2
            lists.append(make_list("ab" if short else "acb", engine="y", query=query, date=day))
    return SerpDataset(lists)


def _failing_on(query: str, date_b: dt.date, measure):
    """``measure``, raising a ValidationError instead for a pair of ``query`` whose
    second list is from ``date_b``."""
    def failing(list_a, list_b, *args):
        if (list_b.query, list_b.date) == (query, date_b):
            raise ValidationError("cannot score this pair")
        return measure(list_a, list_b, *args)
    return failing


class TestScoringErrorNamesCell:
    CELL = "x vs y, query 'beta query', 2019-07-02: cannot score this pair"

    @pytest.fixture
    def failing_penalties(self, monkeypatch):
        failing = _failing_on("beta query", D2, analysis.penalty_components)
        monkeypatch.setattr(analysis, "penalty_components", failing)

    def test_combined_matrix(self, failing_penalties):
        with pytest.raises(ValidationError) as info:
            similarity_matrix(short_list_dataset(), "x", "y", UNIT)
        assert str(info.value) == self.CELL
        assert str(info.value.__cause__) == "cannot score this pair"

    def test_metric_fn_matrix(self):
        failing = _failing_on("beta query", D2, spearman_footrule_sim)
        with pytest.raises(ValidationError) as info:
            similarity_matrix(short_list_dataset(), "x", "y", metric_fn=failing)
        assert str(info.value) == self.CELL

    def test_sweep(self, failing_penalties):
        with pytest.raises(ValidationError) as info:
            impact_sweep(short_list_dataset(), "x", "y", "snippet")
        assert str(info.value) == self.CELL

    def test_failed_pair_is_not_cached(self, failing_penalties):
        ds = short_list_dataset()
        with pytest.raises(ValidationError):
            similarity_matrix(ds, "x", "y", UNIT)
        assert ds._components == {}

    def test_drift(self, monkeypatch):
        failing = _failing_on("beta query", D3, analysis.combined_similarity)
        monkeypatch.setattr(analysis, "combined_similarity", failing)
        old = SerpDataset([
            make_list("abc", engine="x", query="alpha query", date=D1),
            make_list("abc", engine="x", query="beta query", date=D1),
        ])
        new = SerpDataset([
            make_list("acb", engine="x", query="alpha query", date=D2),
            make_list("ab", engine="x", query="beta query", date=D3),
        ])
        with pytest.raises(ValidationError) as info:
            cross_period_drift(old, new, "x", UNIT)
        assert str(info.value) == (
            "x, query 'beta query', 2019-07-01 vs 2019-07-03: cannot score this pair"
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
    return SerpDataset(lists)


def _cut(ranked: RankedList, n: int) -> RankedList:
    return replace(ranked, results=ranked.results[:n])


def _at_shorter_depth(list_a: RankedList, list_b: RankedList) -> tuple[RankedList, RankedList]:
    n = min(list_a.n, list_b.n)
    return _cut(list_a, n), _cut(list_b, n)


def _fresh_sweep(dataset, engine_a, engine_b, factor, stopwords):
    """``impact_sweep``'s base_mean and decrease_pct from fresh per-cell components,
    each pair at the depth of its shorter list."""
    components = [
        penalty_components(*_at_shorter_depth(list_a, list_b), stopwords)
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


@st.composite
def one_list_cut(draw) -> tuple[SerpDataset, SerpDataset, analysis.RecordKey]:
    """A ``repeating_datasets`` dataset of lists at least 2 deep, the same dataset with
    one of its lists cut shorter, and that list's key."""
    dataset = draw(repeating_datasets().filter(lambda ds: ds.get(*next(iter(ds))).n > 1))
    key = draw(st.sampled_from(list(dataset)))
    depth = draw(st.integers(1, dataset.get(*key).n - 1))
    cut = SerpDataset(
        _cut(dataset.get(*k), depth) if k == key else dataset.get(*k) for k in dataset
    )
    return dataset, cut, key


class TestShortListStaysInItsCells:
    """Without a given depth, a short list changes only the matrix and sweep cells and
    the drift queries that hold it, and each of them scores its pair at the shorter
    list's depth."""

    @settings(max_examples=1000, deadline=None)
    @given(case=one_list_cut(), stopwords=st.sampled_from(STOPWORD_SETS),
           factor=st.sampled_from(analysis.SWEEP_FACTORS))
    def test_cutting_one_list_changes_only_what_holds_it(self, case, stopwords, factor):
        dataset, cut, key = case
        for engine_a, engine_b in itertools.permutations(dataset.engines(), 2):

            def shorter_pair(query, day):
                """The cell's pair from ``cut``, if it holds the cut list, else None."""
                if key[0] in (engine_a, engine_b) and key[1:] == (query, day):
                    list_a, list_b = cut.get(engine_a, query, day), cut.get(engine_b, query, day)
                    if list_a is not None and list_b is not None:
                        return _at_shorter_depth(list_a, list_b)
                return None

            before = similarity_matrix(dataset, engine_a, engine_b, stopwords=stopwords)
            after = similarity_matrix(cut, engine_a, engine_b, stopwords=stopwords)
            assert (after.days, after.queries) == (before.days, before.queries)
            for day, row_before, row_after in zip(before.days, before.values, after.values):
                for query, value_before, value_after in zip(before.queries, row_before, row_after):
                    pair = shorter_pair(query, day)
                    if pair is None:
                        assert value_after == value_before
                    else:
                        expected = combined_similarity(*pair, DEFAULT_CONFIG, stopwords).score
                        assert value_after == expected
            # the sweep reads the components the matrices above measured
            cells_before = analysis._pair_components(dataset, engine_a, engine_b, stopwords)[2]
            cells_after = analysis._pair_components(cut, engine_a, engine_b, stopwords)[2]
            assert [cell[:2] for cell in cells_after] == [cell[:2] for cell in cells_before]
            for (i, j, comp_before), (_, _, comp_after) in zip(cells_before, cells_after):
                pair = shorter_pair(after.queries[j], after.days[i])
                if pair is None:
                    assert comp_after == comp_before
                else:
                    assert comp_after == penalty_components(*pair, stopwords)
        base, drops = _fresh_sweep(cut, *cut.engines()[:2], factor, stopwords)
        if base > 0.0:
            report = impact_sweep(cut, *cut.engines()[:2], factor, stopwords=stopwords)
            assert (report.base_mean, report.decrease_pct) == (base, drops)

        # drift of the cut list's engine against another engine's lists, renamed
        engine = key[0]
        partner = next(e for e in dataset.engines() if e != engine)
        renamed = SerpDataset(
            replace(dataset.get(*k), engine=engine) for k in dataset if k[0] == partner
        )
        for old, new, old_cut, new_cut in ((dataset, renamed, cut, renamed),
                                           (renamed, dataset, renamed, cut)):
            if not set(old.queries(engine)) & set(new.queries(engine)):
                continue
            before = cross_period_drift(old, new, engine, stopwords=stopwords)
            after = cross_period_drift(old_cut, new_cut, engine, stopwords=stopwords)
            assert after.keys() == before.keys()
            for query, score in after.items():
                if query == key[1] and key[2] == min(cut.dates(engine, query)):
                    pair = _at_shorter_depth(
                        old_cut.get(engine, query, min(old_cut.dates(engine, query))),
                        new_cut.get(engine, query, min(new_cut.dates(engine, query))),
                    )
                    assert score == combined_similarity(*pair, DEFAULT_CONFIG, stopwords).score
                else:
                    assert score == before[query]


@st.composite
def two_engine_datasets(draw) -> SerpDataset:
    """Engines x and y over 1-3 queries: each engine has each query's list on D1, D2 or
    both, 1-6 deep, so some cells lack a list and some pairs differ in depth. Each list
    gives its URLs one of two (title, snippet) variants."""
    text = st.sampled_from(TEXTS)
    variants = [{key: (draw(text), draw(text)) for key in URL_KEYS} for _ in range(2)]
    lists = []
    for engine, query in itertools.product("xy", QUERIES[: draw(st.integers(1, 3))]):
        for day in draw(st.sampled_from([(D1,), (D2,), (D1, D2)])):
            keys = draw(st.permutations(URL_KEYS))[: draw(st.integers(1, 6))]
            texts = variants[draw(st.integers(0, 1))]
            results = tuple(
                SearchResult(url=f"https://{key}.example.com/", title=texts[key][0],
                             snippet=texts[key][1], rank=rank)
                for rank, key in enumerate(keys, start=1)
            )
            lists.append(RankedList(engine, query, day, results))
    return SerpDataset(lists)


class TestDriftWalksMatrixCells:
    """Drift of x against y's lists renamed to x, both pinned to one date, walks the
    x-vs-y matrix row of that date: each scored cell alike, bit for bit, and a missing
    list where the row holds None."""

    @settings(max_examples=1000, deadline=None)
    @given(dataset=two_engine_datasets(), pick=st.integers(0, 1),
           cfg=st.sampled_from((DEFAULT_CONFIG, UNIT)), stopwords=st.sampled_from(STOPWORD_SETS))
    def test_pinned_drift_is_the_matrix_row(self, dataset, pick, cfg, stopwords):
        matrix = similarity_matrix(dataset, "x", "y", cfg, stopwords=stopwords)
        day = matrix.days[pick % len(matrix.days)]
        row = dict(zip(matrix.queries, matrix.values[matrix.days.index(day)]))
        missing = [query for query, value in row.items() if value is None]

        def drift(dropped=()):
            old, new = (
                SerpDataset(replace(dataset.get(*key), engine="x") for key in dataset
                            if key[0] == engine and key[1] not in dropped)
                for engine in "xy"
            )
            return cross_period_drift(old, new, "x", cfg, stopwords=stopwords,
                                      date_old=day, date_new=day)

        if missing:
            with pytest.raises(ValidationError) as info:
                drift()
            assert str(info.value) == (
                f"x, query {missing[0]!r}, {day} vs {day}: "
                f"no record for x/{missing[0]} on the requested date"
            )
        if len(missing) < len(row):
            scored = {query: value for query, value in row.items() if value is not None}
            assert drift(missing) == scored


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
    return SerpDataset(dataset.get(*key) for key in dataset)


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
        dataset = SerpDataset([
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


def _outcome(fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the message of the ValidationError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)


def _panel() -> SerpDataset:
    """Engines x and y on every query and three days; y's content differs on D2."""
    return SerpDataset(
        make_list(keys, engine=engine, query=query, date=day,
                  flavor="alt" if (engine, day) == ("y", D2) else "plain")
        for engine, keys in (("x", "abc"), ("y", "cab"))
        for query in QUERIES
        for day in (D1, D2, D3)
    )


def _tables_held() -> list:
    """Every content table ``textsim`` holds: module-level dicts, and the table this
    thread has lent it."""
    module = [name for name, value in vars(textsim).items()
              if isinstance(value, dict) and not name.startswith("__")]
    lent = getattr(textsim._lent, "table", None)
    return module + ([] if lent is None else [lent])


@pytest.fixture
def tokenized(monkeypatch) -> list:
    """Each text ``textsim.tokenize`` is called with, in call order."""
    texts = []
    tokenize = textsim.tokenize

    def counting(text, *args):
        texts.append(text)
        return tokenize(text, *args)

    monkeypatch.setattr(textsim, "tokenize", counting)
    return texts


class TestContentCache:
    def test_outside_a_walk_textsim_holds_no_table(self):
        dataset = _panel()
        assert _tables_held() == []
        for stopwords in (None, frozenset({"word"})):
            for query in QUERIES:
                combined_similarity(*(dataset.get(e, query, D2) for e in "xy"), UNIT, stopwords)
                assert _tables_held() == []
            similarity_matrix(dataset, "x", "y", stopwords=stopwords)
            impact_sweep(dataset, "y", "x", "title", stopwords=stopwords)
            assert _tables_held() == []
        drift = cross_period_drift(dataset, _panel(), "x")
        assert _tables_held() == []
        assert len(drift) == len(QUERIES)

    def test_threads_keep_their_tables_apart(self):
        """Threads walking their own datasets and threads scoring outside any walk at
        once: each gets exact results, and none is left holding a table."""
        expected = similarity_matrix(_panel(), "x", "y", UNIT)
        lone = (make_list("abc", engine="x", query="lone query"),
                make_list("abc", engine="y", query="lone query", flavor="alt"))
        lone_score = combined_similarity(*lone, UNIT).score
        wrong = []

        def walk():
            for _ in range(30):
                dataset = _panel()
                try:
                    got = similarity_matrix(dataset, "x", "y", UNIT)
                except Exception as exc:  # recorded, so the assertion below reports it
                    got = exc
                if got != expected or _tables_held():
                    wrong.append((got, _tables_held()))

        def alone():
            for _ in range(300):
                try:
                    got = combined_similarity(*lone, UNIT).score
                except Exception as exc:  # recorded, so the assertion below reports it
                    got = exc
                if got != lone_score or _tables_held():
                    wrong.append((got, _tables_held()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=(walk, alone)[i % 2])
                       for i in range(2 * (os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert _tables_held() == []

    @settings(max_examples=1000, deadline=None)
    @given(
        dataset=repeating_datasets(),
        stopwords=st.lists(st.sampled_from(STOPWORD_SETS), min_size=2, max_size=2, unique=True),
        factor=st.sampled_from(analysis.SWEEP_FACTORS),
        order=st.randoms(use_true_random=False),
    )
    def test_shared_table_changes_no_result(self, dataset, stopwords, factor, order):
        """Every pair's matrix and sweep, in any order and under two stopword sets that
        take turns, equals the same call on a fresh copy, and each cell equals
        ``combined_similarity`` of its pair, bit for bit."""
        jobs = [
            (kind, pair, sw)
            for kind in ("matrix", "sweep")
            for pair in itertools.permutations(dataset.engines(), 2)
            for sw in stopwords
        ]
        order.shuffle(jobs)
        for kind, (engine_a, engine_b), sw in jobs:
            if kind == "sweep":
                sweeps = [_outcome(impact_sweep, ds, engine_a, engine_b, factor, stopwords=sw)
                          for ds in (dataset, _copy(dataset))]
                assert sweeps[0] == sweeps[1], (engine_a, engine_b, sw)
                continue
            matrix = similarity_matrix(dataset, engine_a, engine_b, stopwords=sw)
            assert matrix == similarity_matrix(_copy(dataset), engine_a, engine_b, stopwords=sw)
            for day, row in zip(matrix.days, matrix.values):
                for query, value in zip(matrix.queries, row):
                    list_a = dataset.get(engine_a, query, day)
                    list_b = dataset.get(engine_b, query, day)
                    if list_a is None or list_b is None:
                        assert value is None
                    else:
                        pair = _at_shorter_depth(list_a, list_b)
                        expected = combined_similarity(*pair, DEFAULT_CONFIG, sw).score
                        assert value == expected, (engine_a, engine_b, query, day, sw)

    def test_dataset_table_holds_its_keys_and_is_freed_with_the_dataset(self, monkeypatch):
        vectors = []  # a weak reference to each vector tokenize made
        tokenize = textsim.tokenize

        def keeping(*args):
            vector = tokenize(*args)
            vectors.append(weakref.ref(vector))
            return vector

        monkeypatch.setattr(textsim, "tokenize", keeping)
        dataset = _panel()
        stopword_sets = (None, frozenset({"word"}))
        for stopwords in stopword_sets:
            similarity_matrix(dataset, "x", "y", stopwords=stopwords)
        assert len(vectors) == 12 * len(QUERIES) * len(stopword_sets)
        # the other engine order is measured afresh, from every key's kept vectors
        for stopwords in stopword_sets:
            impact_sweep(dataset, "y", "x", "title", stopwords=stopwords)
        assert len(vectors) == 12 * len(QUERIES) * len(stopword_sets)
        assert all(ref() is not None for ref in vectors)
        refs = [weakref.ref(dataset)] + vectors
        del dataset
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_each_text_is_tokenized_once_per_query(self, tokenized):
        """Once per dataset: both engine orders and a sweep add no call."""
        dataset = _panel()
        similarity_matrix(dataset, "x", "y")
        similarity_matrix(dataset, "y", "x")
        impact_sweep(dataset, "x", "y", "snippet")
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
        ds = SerpDataset(
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
        ds = SerpDataset(
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
    return SerpDataset(
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
        ds = SerpDataset(
            [make_list("abc", engine="x"), make_list("xyz", engine="y")]
        )
        with pytest.raises(ValidationError, match="zero"):
            impact_sweep(ds, "x", "y", "snippet")

    def test_no_shared_cells_rejected(self):
        ds = SerpDataset(
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
        old = SerpDataset([make_list("abcdef", engine="x", date=D1)])
        new = SerpDataset([make_list("abcghi", engine="x", date=D2)])
        scores = cross_period_drift(old, new, "x", UNIT)
        assert scores["sample query"] == pytest.approx(0.6779, abs=1e-4)

    def test_each_query_uses_its_own_earliest_date(self):
        old = SerpDataset([
            make_list("abcdef", engine="x", query="alpha query", date=D2),
            make_list("fedcba", engine="x", query="alpha query", date=D3),
            make_list("abcghi", engine="x", query="beta query", date=D1),
            make_list("abcdef", engine="x", query="beta query", date=D3),
            make_list("ghidef", engine="y", query="alpha query", date=D1),
        ])
        new = SerpDataset([
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
        old = SerpDataset([make_list("ab", engine="x", query="one query")])
        new = SerpDataset([make_list("ab", engine="x", query="two query")])
        with pytest.raises(ValidationError, match="share no queries"):
            cross_period_drift(old, new, "x", UNIT)

    def test_missing_engine_rejected(self, grid_dataset):
        with pytest.raises(ValidationError, match="not in dataset"):
            cross_period_drift(grid_dataset, grid_dataset, "zz", UNIT)
