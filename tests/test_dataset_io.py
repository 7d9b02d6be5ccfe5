import datetime as dt
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from serpsim import (
    DatasetError,
    RankedList,
    RedirectCache,
    SearchResult,
    SerpDataset,
    SimilarityMatrix,
    ValidationError,
    dumps_dataset,
    format_matrix,
    import_dataset,
    load_dataset,
    parse_matrix,
    read_matrix,
    write_dataset,
    write_matrix,
)
from serpsim import dataset_io, urlnorm
from serpsim.model import validate_ranked_list

D1 = dt.date(2019, 7, 1)


def record_line(engine="e1", query="sample query", date="2019-07-01", urls=("a", "b"), **extra):
    results = [
        {"rank": i, "url": f"https://{u}.example.com/page", "title": f"t{u}", "snippet": f"s{u}"}
        for i, u in enumerate(urls, start=1)
    ]
    return json.dumps({"engine": engine, "query": query, "date": date, "results": results, **extra})


def write_jsonl(tmp_path, *lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def count_calls(monkeypatch, name):
    """The URLs ``dataset_io`` passes to its ``name`` function, as a growing list."""
    seen = []
    original = getattr(dataset_io, name)

    def counting(url, *args, **kwargs):
        seen.append(url)
        return original(url, *args, **kwargs)

    monkeypatch.setattr(dataset_io, name, counting)
    return seen


def count_strptime(monkeypatch):
    """The date texts ``dataset_io`` passes to ``datetime.strptime``, as a growing list."""
    seen = []

    def counting(text, date_format):
        seen.append(text)
        return dt.datetime.strptime(text, date_format)

    stand_in = SimpleNamespace(date=dt.date, datetime=SimpleNamespace(strptime=counting))
    monkeypatch.setattr(dataset_io, "dt", stand_in)
    return seen


class TestLoadDataset:
    def test_loads_records_and_axes(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            record_line(engine="e1"),
            record_line(engine="e2", urls=("b", "c")),
            record_line(engine="e1", date="2019-07-02"),
        )
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.engines() == ("e1", "e2")
        assert ds.get("e2", "sample query", D1).n == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="no records"):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(), "")
        assert len(load_dataset(path)) == 1

    def test_bad_json_names_line(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(), "{not json")
        with pytest.raises(DatasetError, match=r"data\.jsonl:2"):
            load_dataset(path)

    def test_line_that_is_not_an_object_names_line(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(), "[1,2]")
        with pytest.raises(DatasetError, match=r"data\.jsonl:2: each line must be a JSON object$"):
            load_dataset(path)

    def test_result_that_is_not_an_object_names_line(self, tmp_path):
        bad = json.loads(record_line())
        bad["results"][1] = "https://b.example.com/page"
        path = write_jsonl(tmp_path, json.dumps(bad))
        with pytest.raises(DatasetError, match=r"data\.jsonl:1: each result must be a JSON obj"):
            load_dataset(path)

    def test_duplicate_rank_names_line(self, tmp_path):
        bad = json.loads(record_line())
        bad["results"][1]["rank"] = 1
        path = write_jsonl(tmp_path, record_line(engine="other"), json.dumps(bad))
        with pytest.raises(DatasetError, match=r"data\.jsonl:2.*duplicate rank"):
            load_dataset(path)

    def test_duplicate_record_key_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(), record_line(urls=("c", "d")))
        with pytest.raises(DatasetError, match="duplicate record"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["engine", "query", "date", "results"])
    def test_missing_field_rejected(self, tmp_path, field):
        obj = json.loads(record_line())
        del obj[field]
        path = write_jsonl(tmp_path, json.dumps(obj))
        with pytest.raises(DatasetError, match=field):
            load_dataset(path)

    def test_bad_date_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(date="01/07/2019"))
        with pytest.raises(DatasetError, match="date"):
            load_dataset(path)

    @pytest.mark.parametrize("date", ["20190701", "2019-W27-1"], ids=["basic", "week"])
    def test_date_must_be_yyyy_mm_dd(self, tmp_path, date):
        path = write_jsonl(tmp_path, record_line(), record_line(engine="e2", date=date))
        with pytest.raises(DatasetError, match=rf"data\.jsonl:2: bad date '{date}'"):
            load_dataset(path)

    def test_truncates_to_shortest_list(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            record_line(engine="e1", urls=("a", "b", "c")),
            record_line(engine="e2", urls=("x", "y")),
        )
        ds = load_dataset(path)
        assert ds.get("e1", "sample query", D1).n == 2
        assert ds.get("e2", "sample query", D1).n == 2

    def test_explicit_depth_wins(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            record_line(engine="e1", urls=("a", "b", "c")),
            record_line(engine="e2", urls=("x", "y")),
        )
        ds = load_dataset(path, expected_n=3)
        assert ds.get("e1", "sample query", D1).n == 3
        assert ds.get("e2", "sample query", D1).n == 2

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected_before_any_line(self, tmp_path, depth):
        path = write_jsonl(tmp_path, record_line())
        mapping = {"engine": "engine", "query": "query", "date": "date", "rank": "p", "url": "u"}
        for load in (
            lambda: load_dataset(path, expected_n=depth),
            lambda: import_dataset(path, mapping, expected_n=depth),
        ):
            with pytest.raises(ValidationError) as info:
                load()
            assert str(info.value) == f"expected_n must be >= 1, got {depth}"

    def test_strict_depth_enforced(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            record_line(engine="e1", urls=("a", "b", "c")),
            record_line(engine="e2", urls=("x", "y")),
        )
        with pytest.raises(DatasetError, match="expected 3"):
            load_dataset(path, expected_n=3, strict=True)

    def test_normalize_collapses_url_variants(self, tmp_path):
        obj = json.loads(record_line())
        obj["results"] = [
            {"rank": 1, "url": "http://Example.com:80/x", "title": "t", "snippet": "s"},
            {"rank": 2, "url": "http://example.com/x/", "title": "t2", "snippet": "s2"},
        ]
        path = write_jsonl(tmp_path, json.dumps(obj))
        ds = load_dataset(path, normalize=True)
        ranked = ds.get("e1", "sample query", D1)
        assert ranked.n == 1
        assert ranked.urls() == ("http://example.com/x",)
        assert ranked.results[0].title == "t"

    def test_normalize_applies_redirects(self, tmp_path):
        cache = RedirectCache({"http://example.com/x": "https://example.com/final"})
        obj = json.loads(record_line())
        obj["results"] = [
            {"rank": 1, "url": "http://Example.com/x", "title": "t", "snippet": "s"},
        ]
        path = write_jsonl(tmp_path, json.dumps(obj))
        ds = load_dataset(path, normalize=True, redirect_cache=cache)
        assert ds.get("e1", "sample query", D1).urls() == ("https://example.com/final",)

    def test_redirect_cache_implies_normalize(self, tmp_path):
        cache = RedirectCache({"http://example.com/x": "https://example.com/final"})
        obj = json.loads(record_line())
        obj["results"] = [{"rank": 1, "url": "HTTP://Example.com/x", "title": "t", "snippet": "s"}]
        path = write_jsonl(tmp_path, json.dumps(obj))
        ds = load_dataset(path, redirect_cache=cache)
        assert ds.get("e1", "sample query", D1).urls() == ("https://example.com/final",)

    @pytest.mark.parametrize(
        "url, cache",
        [
            ("not a url", None),
            (
                "http://a.example.com/",
                RedirectCache(
                    {"http://a.example.com/": "http://b.example.com/",
                     "http://b.example.com/": "http://a.example.com/"}
                ),
            ),
            ("http://a.example.com:\u00b2/x", None),
        ],
        ids=["unparsable", "redirect-loop", "non-ascii-port"],
    )
    def test_normalize_error_names_line(self, tmp_path, url, cache):
        obj = json.loads(record_line())
        obj["results"] = [{"rank": 1, "url": url, "title": "t", "snippet": "s"}]
        path = write_jsonl(tmp_path, json.dumps(obj))
        with pytest.raises(DatasetError, match=r"data\.jsonl:1"):
            load_dataset(path, normalize=True, redirect_cache=cache)

    def test_redirect_cache_canonicalizes_each_url_once(self, tmp_path, monkeypatch):
        cache = RedirectCache({"http://example.com/x": "https://example.com/final"})
        path = write_jsonl(tmp_path, record_line(urls=("a", "b", "c")))
        seen = []
        canonicalize = urlnorm.canonicalize

        def counting(url, **kwargs):
            seen.append(url)
            return canonicalize(url, **kwargs)

        monkeypatch.setattr(urlnorm, "canonicalize", counting)
        monkeypatch.setattr(dataset_io, "canonicalize", counting)
        load_dataset(path, normalize=True, redirect_cache=cache)
        assert len(seen) == 3

    def test_each_distinct_raw_url_canonicalized_once_per_load(self, tmp_path, monkeypatch):
        path = write_jsonl(
            tmp_path,
            record_line(urls=("a", "b")),
            record_line(engine="e2", urls=("b", "a")),
            record_line(engine="e3", urls=("c", "a")),
        )
        seen = count_calls(monkeypatch, "canonicalize")
        ds = load_dataset(path, normalize=True)
        raw = {u: f"https://{u}.example.com/page" for u in "abc"}
        assert sorted(seen) == [raw["a"], raw["b"], raw["c"]]
        assert ds.get("e2", "sample query", D1).urls() == (raw["b"], raw["a"])
        load_dataset(path, normalize=True)  # a new load starts with nothing remembered
        assert len(seen) == 6

    def test_each_distinct_raw_url_resolved_once_per_load(self, tmp_path, monkeypatch):
        cache = RedirectCache({"https://a.example.com/page": "https://example.com/final"})
        path = write_jsonl(
            tmp_path, record_line(urls=("a", "b")), record_line(engine="e2", urls=("b", "a"))
        )
        seen = count_calls(monkeypatch, "resolve_redirects")
        ds = load_dataset(path, redirect_cache=cache)
        assert len(seen) == 2
        assert ds.get("e2", "sample query", D1).urls() == (
            "https://b.example.com/page", "https://example.com/final"
        )

    def test_rejected_url_names_its_first_line(self, tmp_path):
        bad = json.loads(record_line(engine="e2"))
        bad["results"][1]["url"] = "not a url"
        later = dict(bad, engine="e3")
        path = write_jsonl(tmp_path, record_line(), json.dumps(bad), json.dumps(later))
        with pytest.raises(DatasetError, match=r"data\.jsonl:2: .*not a url"):
            load_dataset(path, normalize=True)

    def test_category_collected(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(category="testing"))
        assert load_dataset(path).categories["sample query"] == "testing"

    def test_non_string_category_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(category=7))
        with pytest.raises(DatasetError, match="category"):
            load_dataset(path)

    def test_second_category_for_a_query_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            record_line(category="energy"),
            record_line(date="2019-07-02"),  # no category: no conflict
            record_line(date="2019-07-03", category="energy"),
            record_line(engine="e2", category="travel"),
        )
        message = ("data.jsonl:4: query 'sample query' has category 'travel', "
                   "but line 1 gave 'energy'")
        with pytest.raises(DatasetError, match=re.escape(message)):
            load_dataset(path)


class TestRoundTrip:
    def test_sample_corpus_bytes_stable(self, data_dir):
        source = (data_dir / "sample.jsonl").read_text(encoding="utf-8")
        assert dumps_dataset(load_dataset(data_dir / "sample.jsonl")) == source

    def test_empty_dataset_is_one_newline(self):
        assert dumps_dataset(SerpDataset({})) == "\n"

    def test_write_then_load(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(category="topic"))
        ds = load_dataset(path)
        out = tmp_path / "out.jsonl"
        write_dataset(ds, out)
        again = load_dataset(out)
        assert list(again) == list(ds)
        assert again.categories == ds.categories
        assert out.read_text(encoding="utf-8") == dumps_dataset(ds)

    def test_non_ascii_survives_unescaped(self, tmp_path):
        obj = json.loads(record_line())
        obj["results"][0]["snippet"] = "smörgåsbord"
        path = write_jsonl(tmp_path, json.dumps(obj, ensure_ascii=False))
        text = dumps_dataset(load_dataset(path))
        assert "smörgåsbord" in text

    @pytest.mark.parametrize("char", ["\u2028", "\x85"], ids=["U+2028", "U+0085"])
    def test_unicode_line_separator_round_trips(self, tmp_path, char):
        obj = json.loads(record_line())
        obj["results"][0]["snippet"] = f"before{char}after"
        ds = load_dataset(write_jsonl(tmp_path, json.dumps(obj)))
        out = tmp_path / "out.jsonl"
        write_dataset(ds, out)
        again = load_dataset(out)
        assert [again.get(*key) for key in again] == [ds.get(*key) for key in ds]
        assert again.get("e1", "sample query", D1).results[0].snippet == f"before{char}after"


class TestMatrixIO:
    def matrix(self):
        return SimilarityMatrix(
            engine_pair=("x", "y"),
            days=(D1, dt.date(2019, 7, 2)),
            queries=("alpha", "beta"),
            values=((0.25, None), (1.0, 0.5)),
        )

    def test_format(self):
        text = format_matrix(self.matrix())
        assert text.splitlines() == [
            "# pair\tx\ty",
            "date\talpha\tbeta",
            "2019-07-01\t0.2500\tNA",
            "2019-07-02\t1.0000\t0.5000",
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_matrix(self.matrix(), path)
        assert read_matrix(path) == self.matrix()

    def test_missing_pair_line(self):
        with pytest.raises(DatasetError, match="pair"):
            parse_matrix("date\talpha\n2019-07-01\t0.5\n")

    def test_pair_line_with_one_engine(self):
        with pytest.raises(DatasetError, match=r"^<string>:1: pair line must name exactly two"):
            parse_matrix("# pair\tx\ndate\talpha\n2019-07-01\t0.5\n")

    def test_missing_column_header_line(self):
        with pytest.raises(DatasetError, match=r"^<string>:2: missing column header line$"):
            parse_matrix("# pair\tx\ty\n")

    def test_bad_header(self):
        with pytest.raises(DatasetError, match="date"):
            parse_matrix("# pair\tx\ty\nday\talpha\n")

    def test_column_count_checked(self):
        text = "# pair\tx\ty\ndate\talpha\tbeta\n2019-07-01\t0.5\n"
        with pytest.raises(DatasetError, match="columns"):
            parse_matrix(text)

    def test_bad_cell(self):
        text = "# pair\tx\ty\ndate\talpha\n2019-07-01\tmaybe\n"
        with pytest.raises(DatasetError, match="cell"):
            parse_matrix(text)

    @pytest.mark.parametrize("cell", ["1.5", "-0.01", "nan", "inf", "-inf"])
    def test_cell_outside_unit_range_names_its_line(self, cell):
        text = f"# pair\tx\ty\ndate\talpha\n2019-07-01\t0.5\n2019-07-02\t{cell}\n"
        with pytest.raises(DatasetError, match=r"^<string>:4: cell value \S+ outside \[0, 1\]$"):
            parse_matrix(text)

    @pytest.mark.parametrize("cell", ["0.0", "1.0", "1.0000000005", "-0.0000000005"])
    def test_cells_the_matrix_accepts_parse(self, cell):
        text = f"# pair\tx\ty\ndate\talpha\n2019-07-01\t{cell}\n"
        assert parse_matrix(text).values == ((float(cell),),)

    @pytest.mark.parametrize("char", ["\u2028", "\u0085", "\x0b", "\x0c", "\x1c"])
    def test_round_trip_keeps_names_with_other_line_breaks(self, char):
        matrix = SimilarityMatrix(
            engine_pair=(f"x{char}", "y"),
            days=(D1,),
            queries=(f"a{char}b", "c"),
            values=((0.25, None),),
        )
        assert parse_matrix(format_matrix(matrix)) == matrix

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    def test_name_with_tab_or_line_end_refused(self, char):
        query = SimilarityMatrix(
            engine_pair=("x", "y"), days=(D1,), queries=(f"a{char}b",), values=((0.5,),)
        )
        with pytest.raises(ValidationError, match=r"^matrix query 'a\\[trn]b' holds a tab"):
            format_matrix(query)
        engine = SimilarityMatrix(
            engine_pair=("x", f"y{char}"), days=(D1,), queries=("a",), values=((0.5,),)
        )
        with pytest.raises(ValidationError, match=r"^matrix engine 'y\\[trn]' holds a tab"):
            format_matrix(engine)

    @pytest.mark.parametrize("day", ["20190701", "2019-W27-1"], ids=["basic", "week"])
    def test_date_must_be_yyyy_mm_dd(self, day):
        text = f"# pair\tx\ty\ndate\talpha\n2019-07-01\t0.5\n{day}\t0.5\n"
        with pytest.raises(DatasetError, match=rf"<string>:4: bad date '{day}'"):
            parse_matrix(text)

    def test_repeated_query_refused_at_header(self):
        text = "# pair\tx\ty\ndate\talpha\tbeta\talpha\n2019-07-01\t0.5\t0.5\t0.5\n"
        with pytest.raises(DatasetError, match=r"^<string>:2: repeated query 'alpha'$"):
            parse_matrix(text)

    def test_repeated_date_refused_at_its_own_line(self):
        text = "# pair\tx\ty\ndate\talpha\n2019-07-01\t0.5\n\n2019-07-02\t0.5\n2019-07-01\t0.6\n"
        with pytest.raises(
            DatasetError, match=r"^<string>:6: repeated date 2019-07-01, first on line 3$"
        ):
            parse_matrix(text)


# -- reference: import one row at a time, parsing every date and text as it comes --

_DAYS = (dt.date(2016, 3, 1), dt.date(2019, 7, 1), dt.date(2019, 12, 31))

#: A date form: the mapping's "date_format", and the values a row may give for a day.
_DATE_FORMS = (
    (None, lambda day: [day.isoformat()]),
    ("%d/%m/%Y", lambda day: [day.strftime("%d/%m/%Y")]),
    ("%Y%m%d", lambda day: [day.strftime("%Y%m%d"), int(day.strftime("%Y%m%d"))]),
)
_TEXT_SOURCES = {"engine": "se", "query": "kw", "title": "t", "snippet": "s", "category": "c"}
_OPTIONAL = ("title", "snippet", "category")


def _texts(field):
    words = ["e1", "a b", "\u00e9"] + ([""] if field in _OPTIONAL else [])
    return st.one_of(st.sampled_from(words), st.integers(-3, 20), st.sampled_from([1.5, 2.0]))


@st.composite
def _flat_imports(draw):
    """Flat rows and their mapping: each text field read from a source key or
    given as a const (an optional one may be absent), as a string or a number,
    and a few dates repeated across rows in one of three forms."""
    date_format, day_values = draw(st.sampled_from(_DATE_FORMS))
    mapping = {"date": "day", "rank": "pos", "url": "link"}
    if date_format is not None:
        mapping["date_format"] = date_format
    for field, key in _TEXT_SOURCES.items():
        how = draw(st.sampled_from(["key", "const", "absent"][: 3 if field in _OPTIONAL else 2]))
        if how == "key":
            mapping[field] = key
        elif how == "const":
            mapping[field] = {"const": draw(_texts(field))}
    rows = []
    for i in range(draw(st.integers(1, 12))):
        row = {"day": draw(st.sampled_from(day_values(draw(st.sampled_from(_DAYS))))),
               "pos": i + 1, "link": f"https://h{i}.example.com/"}
        rows.append(row | {key: draw(_texts(field)) for field, key in _TEXT_SOURCES.items()})
    return rows, mapping


def _reference_import(rows, mapping):
    """Each list's results in rank order, and the categories, built row by row;
    DatasetError (with no path) at the row whose query an earlier row gave
    another category."""
    def text(row, field, default=None):
        spec = mapping.get(field)
        if spec is None:
            return default
        return str(spec["const"] if isinstance(spec, dict) else row[spec])

    lists, categories, first_lines = {}, {}, {}
    for lineno, row in enumerate(rows, start=1):
        if "date_format" in mapping:
            day = dt.datetime.strptime(str(row["day"]), mapping["date_format"]).date()
        else:
            day = dt.date.fromisoformat(row["day"])
        query = text(row, "query")
        if "category" in mapping:
            category = text(row, "category")
            known = categories.setdefault(query, category)
            first = first_lines.setdefault(query, lineno)
            if known != category:
                problem = f"query {query!r} has category {category!r}, but line {first} gave"
                raise DatasetError(f"{problem} {known!r}", None, lineno)
        results = lists.setdefault((text(row, "engine"), query, day), [])
        results.append(SearchResult(
            url=row["link"], title=text(row, "title", ""), snippet=text(row, "snippet", ""),
            rank=len(results) + 1,
        ))
    return lists, categories


class TestImportMatchesPerRowReference:
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flat=_flat_imports())
    def test_matches_reference(self, tmp_path, flat):
        rows, mapping = flat
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        try:
            lists, categories = _reference_import(rows, mapping)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as raised:
                import_dataset(path, mapping)
            assert str(raised.value) == f"{path}:{exc.line}: {exc}"
            return
        ds = import_dataset(path, mapping)
        assert sorted(ds) == sorted(lists)
        for key, results in lists.items():
            assert ds.get(*key).results == tuple(results)
        assert ds.categories == categories



# -- reference: the writer as one json.dumps per record --

def _reference_dumps(dataset):
    lines = []
    for engine, query, date in dataset:
        ranked = dataset.get(engine, query, date)
        obj = {
            "engine": ranked.engine,
            "query": ranked.query,
            "date": ranked.date.isoformat(),
            "results": [
                {"rank": r.rank, "url": r.url, "title": r.title, "snippet": r.snippet}
                for r in ranked.results
            ],
        }
        category = dataset.categories.get(query)
        if category is not None:
            obj["category"] = category
        lines.append(
            json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
        )
    return "".join(lines) or "\n"


#: Characters a JSON encoder must escape or may get wrong: quotes, backslashes,
#: C0 controls, DEL, line and paragraph separators, NEL, non-ASCII and non-BMP.
_HARD_CHARS = '"\\/\x00\x01\x08\t\n\r\x1f\x7f\u2028\u2029\x85\u00e9\U0001f600 a'
_JSON_TEXTS = st.text(st.one_of(st.sampled_from(_HARD_CHARS), st.characters()), max_size=5)


@st.composite
def _datasets(draw):
    """Datasets whose texts come from one small pool, so many texts repeat."""
    pool = draw(st.lists(_JSON_TEXTS, min_size=1, max_size=6, unique=True))
    names = [text for text in pool if text] or ["x"]
    lists = {}
    for _ in range(draw(st.integers(0, 5))):
        key = (draw(st.sampled_from(names)), draw(st.sampled_from(names)),
               draw(st.sampled_from(_DAYS)))
        urls = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
        lists[key] = RankedList(
            engine=key[0], query=key[1], date=key[2],
            results=tuple(
                SearchResult(url=url, title=draw(st.sampled_from(pool)),
                             snippet=draw(st.sampled_from(pool)), rank=rank)
                for rank, url in enumerate(urls, start=1)
            ),
        )
    queries = sorted({query for _, query, _ in lists})
    categories = {query: draw(st.sampled_from(pool)) for query in queries if draw(st.booleans())}
    return SerpDataset(lists, categories)


class TestDumpsMatchesPerRecordReference:
    @settings(max_examples=1000, deadline=None)
    @given(dataset=_datasets())
    def test_matches_reference(self, dataset):
        assert dumps_dataset(dataset) == _reference_dumps(dataset)


# -- reference: the importer's row loop with a dispatch on each spec per row --

def _reference_mapped_value(obj, spec, field, path, lineno):
    if isinstance(spec, dict):
        return spec["const"]
    if spec not in obj:
        raise DatasetError(f"source field {spec!r} (for {field!r}) not found", path, lineno)
    return obj[spec]


def _reference_mapped_text(obj, spec, field, path, lineno):
    value = _reference_mapped_value(obj, spec, field, path, lineno)
    if type(value) is str:
        return value
    if value is None or isinstance(value, (dict, list)):
        problem = f"must be a string or a number, got {type(value).__name__}"
        raise DatasetError(f"field {field!r} {problem}", path, lineno)
    return str(value)


def _reference_import_rows(path, mapping):
    """``import_dataset`` after its mapping checks, one spec dispatch per field per row."""
    engine_spec, query_spec, date_spec, rank_spec, url_spec = map(
        mapping.get, dataset_io._REQUIRED_FIELDS
    )
    title_spec, snippet_spec, category_spec = map(mapping.get, ("title", "snippet", "category"))
    date_format = mapping.get("date_format")
    load = dataset_io._Load(path, False, None, False, None)
    where, groups, dates = load.path, load.groups, {}
    for lineno, obj in dataset_io._rows(path):
        engine = _reference_mapped_text(obj, engine_spec, "engine", where, lineno)
        query = _reference_mapped_text(obj, query_spec, "query", where, lineno)
        raw_date = _reference_mapped_value(obj, date_spec, "date", where, lineno)
        date_text = str(raw_date)
        date = dates.get(date_text)
        if date is None:
            if date_format:
                try:
                    date = dt.datetime.strptime(date_text, date_format).date()
                except ValueError as exc:
                    raise DatasetError(f"bad date {raw_date!r}: {exc}", where, lineno) from exc
            else:
                date = dataset_io._parse_date(date_text, where, lineno)
            dates[date_text] = date
        raw_rank = _reference_mapped_value(obj, rank_spec, "rank", where, lineno)
        if isinstance(raw_rank, bool) or isinstance(raw_rank, float) and not raw_rank.is_integer():
            raise DatasetError(f"bad rank {raw_rank!r}", where, lineno)
        try:
            rank = int(raw_rank)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"bad rank {raw_rank!r}", where, lineno) from exc
        url = _reference_mapped_value(obj, url_spec, "url", where, lineno)
        if not isinstance(url, str):
            raise DatasetError(f"field 'url' must be str, got {type(url).__name__}", where, lineno)
        title = snippet = ""
        if title_spec is not None:
            title = _reference_mapped_text(obj, title_spec, "title", where, lineno)
        if snippet_spec is not None:
            snippet = _reference_mapped_text(obj, snippet_spec, "snippet", where, lineno)
        if category_spec is not None:
            category = _reference_mapped_text(obj, category_spec, "category", where, lineno)
            known, first = load.categories.setdefault(query, (category, lineno))
            if known != category:
                problem = f"query {query!r} has category {category!r}, but line {first} gave"
                raise DatasetError(f"{problem} {known!r}", where, lineno)
        result = load.result(url, title, snippet, rank, lineno)
        groups.setdefault((engine, query, date), (lineno, []))[1].append(result)
    if not groups:
        raise DatasetError("no records to import", where)
    return load.dataset()


_NAN = float("nan")
#: Per field: values a row may hold, good ones first, then defects.
_ROW_VALUES = {
    "engine": (["e1", "e2", 7], [None, {"x": 1}, ["x"], ""]),
    "query": (["a b", "c", 1.5], [None, {}, []]),
    "date": (["2019-07-01", "2016-03-01"], ["07/01/2019", 20190701, None, "2019-7-1"]),
    "rank": ([1, 2, 3, 2.0], [True, 1.9, "x", _NAN, None]),
    "url": (["https://a.example.com/", "https://b.example.com/"], [None, 5, ""]),
    "title": (["t", "", 3], [None, {}, ["t"]]),
    "snippet": (["s", ""], [None, {"s": 1}, []]),
    "category": (["topic", 0], [None, [], {}]),
}


@st.composite
def _defective_imports(draw):
    """Flat rows with a few random defects, and a mapping of source keys and consts."""
    mapping = {}
    for field, (good, bad) in _ROW_VALUES.items():
        hows = ["key", "key", "const"] + (["absent"] if field in _OPTIONAL else [])
        how = draw(st.sampled_from(hows))
        if how == "key":
            mapping[field] = field[:2]
        elif how == "const":
            mapping[field] = {"const": draw(st.sampled_from(good + bad[:1]))}
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {}
        for field, (good, bad) in _ROW_VALUES.items():
            choice = draw(st.integers(0, 11))
            if choice == 11:
                continue  # the source key is missing
            row[field[:2]] = bad[choice % len(bad)] if choice >= 9 else draw(st.sampled_from(good))
        rows.append(row)
    return rows, mapping


def _outcome(load):
    try:
        ds = load()
    except DatasetError as exc:
        return "error", str(exc), exc.line
    return "ok", [ds.get(*key) for key in ds], ds.categories


class TestImportErrorsMatchPerRowDispatch:
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flat=_defective_imports())
    def test_matches_reference(self, tmp_path, flat):
        rows, mapping = flat
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        expected = _outcome(lambda: _reference_import_rows(path, mapping))
        assert _outcome(lambda: import_dataset(path, mapping)) == expected


class TestImport:
    def test_alien_fixture(self, data_dir):
        mapping = json.loads((data_dir / "alien_mapping.json").read_text(encoding="utf-8"))
        ds = import_dataset(data_dir / "alien.jsonl", mapping)
        assert ds.engines() == ("zephyr",)
        ranked = ds.get("zephyr", "solar panels", D1)
        assert ranked.n == 3
        assert [r.rank for r in ranked.results] == [1, 2, 3]
        assert ds.categories["solar panels"] == "energy"
        # second crawl day groups separately
        assert ds.get("zephyr", "solar panels", dt.date(2019, 7, 2)).n == 1

    def test_normalize_during_import(self, data_dir):
        mapping = json.loads((data_dir / "alien_mapping.json").read_text(encoding="utf-8"))
        ds = import_dataset(data_dir / "alien.jsonl", mapping, normalize=True)
        urls = ds.get("zephyr", "solar panels", D1).urls()
        assert urls[0] == "https://solar-one.example.net/guide"

    def test_missing_mapping_field_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="rank"):
            import_dataset(tmp_path / "x.jsonl", {"engine": "e", "query": "q", "date": "d", "url": "u"})

    def test_missing_source_field_names_line(self, tmp_path):
        path = write_jsonl(tmp_path, json.dumps({"q": "a", "d": "2019-07-01", "p": 1, "u": "https://x.example.com"}))
        mapping = {"engine": "missing", "query": "q", "date": "d", "rank": "p", "url": "u"}
        with pytest.raises(DatasetError, match=r"data\.jsonl:1.*missing"):
            import_dataset(path, mapping)

    def test_const_and_rank_coercion(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            json.dumps({"q": "a b", "d": "2019-07-01", "p": "2", "u": "https://x.example.com"}),
            json.dumps({"q": "a b", "d": "2019-07-01", "p": "1", "u": "https://y.example.com"}),
        )
        mapping = {"engine": {"const": "fixed"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        ds = import_dataset(path, mapping)
        ranked = ds.get("fixed", "a b", D1)
        assert ranked.urls() == ("https://y.example.com", "https://x.example.com")

    def test_bad_rank_rejected(self, tmp_path):
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        for rank in ("first", 1.9, True):
            path = write_jsonl(
                tmp_path,
                json.dumps({"q": "a", "d": "2019-07-01", "p": rank, "u": "https://x.example.com"}),
            )
            with pytest.raises(DatasetError, match=r"data\.jsonl:1.*rank"):
                import_dataset(path, mapping)

    @pytest.mark.parametrize("rank", [2, 2.0], ids=["int", "float"])
    def test_whole_number_rank_accepted(self, tmp_path, rank):
        path = write_jsonl(
            tmp_path,
            json.dumps({"q": "a", "d": "2019-07-01", "p": rank, "u": "https://x.example.com"}),
            json.dumps({"q": "a", "d": "2019-07-01", "p": 1, "u": "https://y.example.com"}),
        )
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        ranked = import_dataset(path, mapping).get("e", "a", D1)
        assert ranked.urls() == ("https://y.example.com", "https://x.example.com")

    def test_null_url_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, json.dumps({"q": "a", "d": "2019-07-01", "p": 1, "u": None}))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        with pytest.raises(DatasetError, match=r"data\.jsonl:1.*url"):
            import_dataset(path, mapping)

    @pytest.mark.parametrize("field", ["engine", "query", "title", "snippet", "category"])
    @pytest.mark.parametrize("value", [None, {"x": 1}, ["x"]], ids=["null", "object", "array"])
    def test_non_text_field_rejected(self, tmp_path, field, value):
        row = {"engine": "e1", "query": "a", "date": "2019-07-01", "rank": 1,
               "url": "https://x.example.com", "title": "t", "snippet": "s", "category": "c"}
        row[field] = value
        path = write_jsonl(tmp_path, json.dumps(row))
        with pytest.raises(DatasetError, match=rf"data\.jsonl:1: field '{field}' must be a string"):
            import_dataset(path, {key: key for key in row})

    def test_numeric_text_fields_become_strings(self, tmp_path):
        row = {"q": 42, "d": "2019-07-01", "p": 1, "u": "https://x.example.com", "t": 1.5}
        path = write_jsonl(tmp_path, json.dumps(row))
        mapping = {"engine": {"const": 7}, "query": "q", "date": "d", "rank": "p", "url": "u",
                   "title": "t", "category": {"const": 3}}
        ds = import_dataset(path, mapping)
        assert ds.get("7", "42", D1).results[0].title == "1.5"
        assert ds.categories == {"42": "3"}

    @pytest.mark.parametrize("spec", [5, None, ["t"], {"const": "x", "extra": 1}, {}])
    def test_bad_field_spec_rejected_before_any_row(self, tmp_path, spec):
        path = write_jsonl(tmp_path)
        mapping = {"engine": "e", "query": "q", "date": "d", "rank": "p", "url": "u",
                   "title": spec}
        with pytest.raises(ValidationError, match="import mapping field 'title'"):
            import_dataset(path, mapping)

    def test_unknown_mapping_key_rejected(self, tmp_path):
        # a misspelled optional field once imported every title as ''
        row = {"q": "a", "d": "2019-07-01", "p": 1, "u": "https://x.example.com", "t": "Title"}
        path = write_jsonl(tmp_path, json.dumps(row))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u",
                   "titel": "t"}
        with pytest.raises(ValidationError, match="unknown field 'titel'"):
            import_dataset(path, mapping)
        # before any row is read: the input need not even exist
        with pytest.raises(ValidationError, match="unknown field 'titel'"):
            import_dataset(tmp_path / "absent.jsonl", mapping)

    def test_each_distinct_raw_url_canonicalized_once(self, tmp_path, monkeypatch):
        rows = [{"q": q, "d": "2019-07-01", "p": p, "u": f"HTTP://{u}.example.com/"}
                for q in ("a", "b") for p, u in ((1, "x"), (2, "y"))]
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        seen = count_calls(monkeypatch, "canonicalize")
        ds = import_dataset(path, mapping, normalize=True)
        assert seen == ["HTTP://x.example.com/", "HTTP://y.example.com/"]
        assert ds.get("e", "b", D1).urls() == ("http://x.example.com/", "http://y.example.com/")

    def test_bad_date_names_each_line_that_carries_it(self, tmp_path):
        days = ["01/07/2019", "31/02/2019", "02/07/2019", "01/07/2019", "31/02/2019"]
        rows = [{"q": "a", "d": day, "p": p, "u": "https://x.example.com"}
                for p, day in enumerate(days, start=1)]
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u",
                   "date_format": "%d/%m/%Y"}
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        with pytest.raises(DatasetError, match=r"data\.jsonl:2: bad date '31/02/2019'"):
            import_dataset(path, mapping)
        rows[1]["d"] = "03/07/2019"
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        with pytest.raises(DatasetError, match=r"data\.jsonl:5: bad date '31/02/2019'"):
            import_dataset(path, mapping)

    @pytest.mark.parametrize(
        "day", ["20190701", 20190701, "2019-W27-1"], ids=["basic", "number", "week"]
    )
    def test_date_without_format_must_be_yyyy_mm_dd(self, tmp_path, day):
        rows = [{"q": "a", "d": d, "p": p, "u": f"https://{p}.example.com"}
                for p, d in enumerate(["2019-07-01", day], start=1)]
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        with pytest.raises(DatasetError, match=rf"data\.jsonl:2: bad date '{day}'"):
            import_dataset(path, mapping)

    def test_date_format_read_afresh_by_each_import(self, tmp_path):
        row = {"q": "a", "d": "01/07/2019", "p": 1, "u": "https://x.example.com"}
        path = write_jsonl(tmp_path, json.dumps(row))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        dmy = import_dataset(path, mapping | {"date_format": "%d/%m/%Y"})
        mdy = import_dataset(path, mapping | {"date_format": "%m/%d/%Y"})
        assert dmy.dates() == (dt.date(2019, 7, 1),)
        assert mdy.dates() == (dt.date(2019, 1, 7),)

    def test_each_distinct_date_text_parsed_once(self, tmp_path, monkeypatch):
        days = [20190701, "20190701", 20190702, "20190702", 20190701]
        rows = [{"q": "a", "d": day, "p": p, "u": f"https://{p}.example.com"}
                for p, day in enumerate(days, start=1)]
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u",
                   "date_format": "%Y%m%d"}
        seen = count_strptime(monkeypatch)
        ds = import_dataset(path, mapping)
        assert seen == ["20190701", "20190702"]
        assert ds.get("e", "a", D1).n == 3
        import_dataset(path, mapping)  # a new import starts with nothing remembered
        assert len(seen) == 4

    def test_non_string_date_format_rejected(self, tmp_path):
        mapping = {"engine": "e", "query": "q", "date": "d", "rank": "p", "url": "u"}
        mapping["date_format"] = 5
        with pytest.raises(ValidationError, match="date_format"):
            import_dataset(tmp_path / "x.jsonl", mapping)

    def test_unicode_line_separators_in_row(self, tmp_path):
        row = {"q": "a", "d": "2019-07-01", "p": 1, "u": "https://x.example.com",
               "s": "one\u2028two\x85three"}
        path = write_jsonl(tmp_path, json.dumps(row, ensure_ascii=False))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u",
                   "snippet": "s"}
        ranked = import_dataset(path, mapping).get("e", "a", D1)
        assert ranked.results[0].snippet == "one\u2028two\x85three"

    def test_redirect_cache_implies_normalize(self, tmp_path):
        cache = RedirectCache({"http://example.com/x": "https://example.com/final"})
        row = {"q": "a", "d": "2019-07-01", "p": 1, "u": "HTTP://Example.com/x"}
        path = write_jsonl(tmp_path, json.dumps(row))
        mapping = {"engine": {"const": "e"}, "query": "q", "date": "d", "rank": "p", "url": "u"}
        ds = import_dataset(path, mapping, redirect_cache=cache)
        assert ds.get("e", "a", D1).urls() == ("https://example.com/final",)


# -- one string object per distinct URL, title and snippet per load --

def all_results(ds):
    return [r for key in ds for r in ds.get(*key).results]


def assert_one_object_per_text(results):
    """Every URL, title and snippet equal to another is the same object, and
    the results hold fewer distinct texts than occurrences (the check is not empty)."""
    kept: dict[str, str] = {}
    texts = [text for r in results for text in (r.url, r.title, r.snippet)]
    for text in texts:
        assert kept.setdefault(text, text) is text, text
    assert len(kept) < len(texts)


class TestOneStringPerText:
    @pytest.mark.parametrize("normalize", [False, True], ids=["plain", "normalize"])
    def test_load_keeps_one_object_per_text(self, tmp_path, normalize):
        path = write_jsonl(
            tmp_path,
            record_line(urls=("ab", "bc")),
            record_line(engine="e2", urls=("bc", "ab")),
            record_line(date="2019-07-02", urls=("ab", "cd")),
        )
        assert_one_object_per_text(all_results(load_dataset(path, normalize=normalize)))

    def test_import_keeps_one_object_per_text(self, tmp_path):
        rows = [{"e": e, "q": "a", "d": "2019-07-01", "p": p, "u": f"https://{u}.example.com/",
                 "t": f"title {u}", "s": f"snippet {u}"}
                for e in ("e1", "e2") for p, u in enumerate(("ab", "bc"), start=1)]
        path = write_jsonl(tmp_path, *map(json.dumps, rows))
        mapping = {"engine": "e", "query": "q", "date": "d", "rank": "p", "url": "u",
                   "title": "t", "snippet": "s"}
        for options in ({}, {"normalize": True}):
            assert_one_object_per_text(all_results(import_dataset(path, mapping, **options)))

    @pytest.mark.parametrize(
        "cache",
        [None, RedirectCache({"http://example.com/old": "http://example.com/x"})],
        ids=["canonical", "redirect"],
    )
    def test_raw_urls_with_one_final_form_share_one_string(self, tmp_path, cache):
        lines = []
        for engine, url in (("e1", "http://Example.com:80/x"), ("e2", "http://example.com/x/"),
                            ("e3", "http://EXAMPLE.com/old")):
            obj = json.loads(record_line(engine=engine))
            obj["results"] = [{"rank": 1, "url": url, "title": "tt", "snippet": "ss"}]
            lines.append(json.dumps(obj))
        ds = load_dataset(write_jsonl(tmp_path, *lines), normalize=True, redirect_cache=cache)
        urls = [r.url for r in all_results(ds)]
        if cache is None:
            urls = urls[:2]  # without the redirect, the third list keeps its own URL
        assert set(urls) == {"http://example.com/x"}
        assert all(url is urls[0] for url in urls)

    def test_separate_loads_share_no_text(self, tmp_path):
        path = write_jsonl(tmp_path, record_line(urls=("ab", "bc")), record_line(engine="e2"))
        first, second = (all_results(load_dataset(path)) for _ in range(2))
        assert first == second
        ids = {id(text) for r in first for text in (r.url, r.title, r.snippet)}
        assert not any(id(text) in ids for r in second for text in (r.url, r.title, r.snippet))


# -- one result object per distinct (final URL, title, snippet, rank) per load --

#: Raw URLs with repeated final forms: the first two canonicalize alike, and
#: the cache sends the fourth to the first.
_SHARED_URLS = (
    "http://a.example.com/x", "HTTP://A.example.com:80/x/", "http://b.example.com/y",
    "http://b.example.com/old", "https://c.example.com/",
)
_SHARED_CACHE = {"http://b.example.com/old": "http://a.example.com/x"}
#: One field of a result that both loaders reject.
_RESULT_DEFECTS = (
    {"rank": 0}, {"rank": True}, {"rank": None}, {"url": ""}, {"url": 5}, {"title": None},
)


@st.composite
def _repeated_results(draw):
    """Native lines whose results repeat across lists and engines, and maybe one
    more line, after the line it copies, holding a copy of one of its results
    with one defect: (lines, that line's index or None)."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["e1", "e2"]), st.sampled_from(["q1", "q2"]),
                  st.sampled_from(["2019-07-01", "2016-03-01"])),
        min_size=1, max_size=6, unique=True,
    ))
    lines = [
        {"engine": engine, "query": query, "date": day, "results": [
            {"rank": rank, "url": draw(st.sampled_from(_SHARED_URLS)),
             "title": draw(st.sampled_from(["t", "u"])),
             "snippet": draw(st.sampled_from(["s", ""]))}
            for rank in range(1, draw(st.integers(1, 4)) + 1)
        ]}
        for engine, query, day in keys
    ]
    if not draw(st.booleans()):
        return lines, None
    good = draw(st.integers(0, len(lines) - 1))
    result = draw(st.sampled_from(lines[good]["results"]))
    bad = draw(st.integers(good + 1, len(lines)))
    lines.insert(bad, dict(lines[good], results=[result | draw(st.sampled_from(_RESULT_DEFECTS))]))
    return lines, bad


def _flat_rows(lines):
    return [{"e": obj["engine"], "q": obj["query"], "d": obj["date"], "p": r["rank"],
             "u": r["url"], "t": r["title"], "s": r["snippet"]}
            for obj in lines for r in obj["results"]]


_FLAT_MAPPING = {"engine": "e", "query": "q", "date": "d", "rank": "p", "url": "u",
                 "title": "t", "snippet": "s"}


def _reference_lists(lines, final, depth):
    """Each list built from one fresh ``SearchResult`` per row; ``final`` maps a
    raw URL to its final form, ``depth`` the lists to the depth they keep."""
    groups = {}
    for obj in lines:
        results = groups.setdefault(
            (obj["engine"], obj["query"], dt.date.fromisoformat(obj["date"])), []
        )
        results.extend(
            SearchResult(url=final(r["url"]), title=r["title"], snippet=r["snippet"],
                         rank=r["rank"])
            for r in obj["results"]
        )
    n = depth(groups.values())
    return {
        key: validate_ranked_list(results, n or len(results), engine=key[0], query=key[1],
                                  date=key[2])
        for key, results in groups.items()
    }


def _shortest(lists):
    return min(len({r.url for r in results}) for results in lists)


def _message(exc):
    """A DatasetError's text without its ``file:line: `` prefix."""
    return str(exc).removeprefix(f"{exc.path}:{exc.line}: ")


class TestOneResultPerDistinctResult:
    """Equal results of one load share one object; it must not change what a
    load returns, nor which line a bad result is reported at."""

    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_repeated_results())
    def test_matches_fresh_result_per_row_reference(self, tmp_path, case):
        lines, bad = case
        cache = RedirectCache(_SHARED_CACHE)
        finals = (
            ({}, lambda url: url),
            ({"normalize": True}, urlnorm.canonicalize),
            ({"redirect_cache": cache},
             lambda url: urlnorm.resolve_redirects(url, cache, "offline")),
        )
        formats = (  # texts, the bad one's index, the loader, its default depth
            ([json.dumps(obj) for obj in lines], bad, load_dataset, _shortest),
            ([json.dumps(row) for row in _flat_rows(lines)],
             None if bad is None else len(_flat_rows(lines[:bad])),
             lambda path, **options: import_dataset(path, _FLAT_MAPPING, **options),
             lambda lists: None),
        )
        for texts, bad_at, load, depth in formats:
            path = write_jsonl(tmp_path, *texts)
            for options, final in finals:
                if bad_at is None:
                    ds = load(path, **options)
                    expected = _reference_lists(lines, final, depth)
                    assert {key: ds.get(*key) for key in ds} == expected
                    continue
                alone = tmp_path / "alone.jsonl"
                alone.write_text(texts[bad_at] + "\n", encoding="utf-8")
                with pytest.raises(DatasetError) as own:
                    load(alone, **options)
                with pytest.raises(DatasetError) as raised:
                    load(path, **options)
                assert raised.value.line == bad_at + 1
                assert _message(raised.value) == _message(own.value)

    @pytest.mark.parametrize("normalize", [False, True], ids=["plain", "normalize"])
    def test_equal_results_are_one_object(self, tmp_path, normalize):
        lines = [json.loads(line) for line in (
            record_line(urls=("ab", "bc")),
            record_line(engine="e2", urls=("ab", "cd")),
            record_line(date="2019-07-02", urls=("ab", "bc")),
        )]
        path = write_jsonl(tmp_path, *map(json.dumps, lines))
        flat = tmp_path / "flat.jsonl"
        flat.write_text("".join(json.dumps(row) + "\n" for row in _flat_rows(lines)),
                        encoding="utf-8")
        for ds in (load_dataset(path, normalize=normalize),
                   import_dataset(flat, _FLAT_MAPPING, normalize=normalize)):
            results = all_results(ds)
            kept = {}
            for result in results:
                assert kept.setdefault(result, result) is result, result
            assert len(kept) == 3 < len(results)


# -- the default depth: each list is built once, then cut to the shortest list --


@st.composite
def _lists_of_unequal_depth(draw):
    """Native lines of 1-6 results drawn from a few raw URLs, so lists repeat a
    URL and differ in length, with a cache that sends one URL to another."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["e1", "e2"]), st.sampled_from(["q1", "q2"]),
                  st.sampled_from(["2019-07-01", "2016-03-01"])),
        min_size=1, max_size=6, unique=True,
    ))
    return [
        {"engine": engine, "query": query, "date": day, "results": [
            {"rank": rank, "url": draw(st.sampled_from(_SHARED_URLS)),
             "title": f"t{rank}", "snippet": draw(st.sampled_from(["s", ""]))}
            for rank in draw(st.permutations(range(1, draw(st.integers(1, 6)) + 1)))
        ]}
        for engine, query, day in keys
    ]


class TestDefaultDepthIsTheShortestList:
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=_lists_of_unequal_depth(), strict=st.booleans(),
           how=st.sampled_from(["plain", "normalize", "redirects"]))
    def test_default_load_equals_load_at_the_shortest_depth(self, tmp_path, lines, strict, how):
        path = write_jsonl(tmp_path, *map(json.dumps, lines))
        cache = RedirectCache(_SHARED_CACHE)
        options, final = {
            "plain": ({}, lambda url: url),
            "normalize": ({"normalize": True}, urlnorm.canonicalize),
            "redirects": ({"redirect_cache": cache},
                          lambda url: urlnorm.resolve_redirects(url, cache, "offline")),
        }[how]
        shortest = min(len({final(r["url"]) for r in obj["results"]}) for obj in lines)
        default = load_dataset(path, strict=strict, **options)
        at_shortest = load_dataset(path, strict=strict, expected_n=shortest, **options)
        assert dumps_dataset(default) == dumps_dataset(at_shortest)
        assert {default.get(*key).n for key in default} == {shortest}
