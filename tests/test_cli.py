import codecs
import datetime as dt
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from serpsim import (
    MetricConfig,
    RedirectCache,
    SerpDataset,
    ValidationError,
    combined_similarity,
    format_matrix,
    impact_sweep,
    kendall_tau_sim,
    load_dataset,
    similarity_matrix,
    spearman_footrule_sim,
    write_dataset,
)
from serpsim import cli, dataset_io, urlnorm
from serpsim.cli import run_cli
from tests.conftest import make_list

D1 = dt.date(2019, 7, 1)
D2 = dt.date(2019, 7, 2)


@pytest.fixture
def grid_file(tmp_path):
    ds = SerpDataset.from_lists(
        [
            make_list("ab", engine="x", query="alpha query", date=D1),
            make_list("ab", engine="y", query="alpha query", date=D1),
            make_list("ab", engine="x", query="beta query", date=D1),
            make_list("ba", engine="y", query="beta query", date=D1),
            make_list("ab", engine="x", query="alpha query", date=D2),
            make_list("cd", engine="y", query="alpha query", date=D2),
        ]
    )
    path = tmp_path / "grid.jsonl"
    write_dataset(ds, path)
    return str(path)


class TestCompare:
    def test_two_files_full_breakdown(self, data_dir, capsys):
        code = run_cli(
            [
                "compare",
                str(data_dir / "pair_a.jsonl"),
                str(data_dir / "pair_b_distinct.jsonl"),
                "--weights", "1,1,1",
            ]
        )
        assert code == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["metric"] == "combined"
        assert out["score"] == "0.2395"
        assert out["base_score"] == "0.1053"
        assert out["boost"] == "0.1342"
        assert out["common_count"] == "1"

    def test_identical_content_scores_higher(self, data_dir, capsys):
        run_cli(
            [
                "compare",
                str(data_dir / "pair_a.jsonl"),
                str(data_dir / "pair_b_same.jsonl"),
                "--weights", "1,1,1",
            ]
        )
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["score"] == "0.3289"

    def test_dataset_selection(self, grid_file, capsys):
        code = run_cli(
            [
                "compare", "--dataset", grid_file,
                "--engine-a", "x", "--engine-b", "y",
                "--query", "alpha query", "--date", "2019-07-01",
            ]
        )
        assert code == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["score"] == "1.0000"

    @pytest.mark.parametrize(
        "day", ["20190701", "2019-W27-1", "2019-7-1"], ids=["basic", "week", "short"]
    )
    def test_date_must_be_yyyy_mm_dd(self, grid_file, capsys, day):
        code = run_cli(
            [
                "compare", "--dataset", grid_file,
                "--engine-a", "x", "--engine-b", "y",
                "--query", "alpha query", "--date", day,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument --date: Invalid isoformat string: '{day}'" in err

    @pytest.mark.parametrize(
        "metric,expected",
        [("footrule", "0.0000"), ("kendall", "0.0000"), ("jaro", "0.0000"), ("jarowinkler", "0.0000")],
    )
    def test_baseline_metrics(self, grid_file, capsys, metric, expected):
        # "ab" vs "ba" swap: length-2 lists get window 0, so Jaro finds no matches
        code = run_cli(
            [
                "compare", "--dataset", grid_file,
                "--engine-a", "x", "--engine-b", "y",
                "--query", "beta query", "--date", "2019-07-01",
                "--metric", metric,
            ]
        )
        assert code == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["score"] == expected

    def test_boost_none(self, data_dir, capsys):
        run_cli(
            [
                "compare",
                str(data_dir / "pair_a.jsonl"),
                str(data_dir / "pair_b_distinct.jsonl"),
                "--weights", "1,1,1", "--boost", "none",
            ]
        )
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["score"] == "0.1053"
        assert out["boost"] == "0.0000"

    def test_one_file_is_usage_error(self, data_dir, capsys):
        assert run_cli(["compare", str(data_dir / "pair_a.jsonl")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_record_is_data_error(self, grid_file, capsys):
        code = run_cli(
            [
                "compare", "--dataset", grid_file,
                "--engine-a", "x", "--engine-b", "zz",
                "--query", "alpha query", "--date", "2019-07-01",
            ]
        )
        assert code == 2
        assert "no record" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli(
            ["compare", str(tmp_path / "nope.jsonl"), str(tmp_path / "nada.jsonl")]
        )
        assert code == 2

    def test_failed_scoring_writes_nothing(self, data_dir, monkeypatch, capsys):
        def fail(*args):
            raise ValidationError("scoring failed")

        monkeypatch.setattr(cli, "combined_similarity", fail)
        code = run_cli(
            ["compare", str(data_dir / "pair_a.jsonl"), str(data_dir / "pair_b_same.jsonl")]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: scoring failed\n"

    def test_file_with_two_records_is_data_error(self, data_dir, tmp_path, capsys):
        lines = (data_dir / "sample.jsonl").read_text(encoding="utf-8").splitlines(True)
        two = tmp_path / "two.jsonl"
        two.write_text("".join(lines[:2]), encoding="utf-8")
        assert run_cli(["compare", str(two), str(data_dir / "pair_a.jsonl")]) == 2
        assert capsys.readouterr() == (
            "", f"error: {two}: expected exactly one record, found 2\n"
        )

    def test_dataset_with_one_selector_is_usage_error(self, data_dir, capsys):
        code = run_cli(["compare", "--dataset", str(data_dir / "sample.jsonl"),
                        "--engine-a", "acme"])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: compare needs either two record files or --dataset with "
            "--engine-a, --engine-b, --query and --date\n"
        )

    def test_unknown_first_engine_is_data_error(self, grid_file, capsys):
        code = run_cli(
            ["compare", "--dataset", grid_file, "--engine-a", "zz", "--engine-b", "y",
             "--query", "alpha query", "--date", "2019-07-01"]
        )
        assert code == 2
        assert capsys.readouterr() == ("", "error: no record for zz/alpha query/2019-07-01\n")

    def test_custom_boost(self, data_dir, capsys):
        pair = [data_dir / "pair_a.jsonl", data_dir / "pair_b_distinct.jsonl"]
        code = run_cli(["compare", *map(str, pair), "--weights", "1,1,1", "--boost", "0.3,0.2"])
        assert code == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        list_a, list_b = (ds.get(*next(iter(ds))) for ds in map(load_dataset, pair))
        expected = combined_similarity(list_a, list_b, MetricConfig(1, 1, 1, (0.3, 0.2)))
        assert out["boost"] == f"{expected.boost:.4f}" != "0.1342"
        assert out["score"] == f"{expected.score:.4f}"


class TestArgHandling:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "compare" in capsys.readouterr().out

    def test_unknown_command_exits_one(self, capsys):
        assert run_cli(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert run_cli(["matrix", "--dataset", "x.jsonl", "--engine-a", "a"]) == 1

    def test_malformed_weights_exit_one(self, data_dir, capsys):
        code = run_cli(
            [
                "compare",
                str(data_dir / "pair_a.jsonl"),
                str(data_dir / "pair_b_same.jsonl"),
                "--weights", "1,1",
            ]
        )
        assert code == 1

    def test_non_numeric_weight_exits_one(self, data_dir, capsys):
        code = run_cli(
            ["compare", str(data_dir / "pair_a.jsonl"), str(data_dir / "pair_b_same.jsonl"),
             "--weights", "1,1,x"]
        )
        assert code == 1
        assert "argument --weights: could not convert string to float: 'x'" in (
            capsys.readouterr().err
        )

    def test_out_of_range_weights_exit_two(self, data_dir, capsys):
        code = run_cli(
            [
                "compare",
                str(data_dir / "pair_a.jsonl"),
                str(data_dir / "pair_b_same.jsonl"),
                "--weights", "2,1,1",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["compare", "{pair_a}", "{pair_b}"],
        ["matrix", "--dataset", "{sample}", "--engine-a", "acme", "--engine-b", "bravo"],
        ["import", "--input", "{alien}", "--mapping", "{mapping}"],
    ], ids=["compare", "matrix", "import"])
    def test_top_n_below_one_exits_two_naming_no_line(self, command, data_dir, capsys):
        paths = {"pair_a": data_dir / "pair_a.jsonl", "pair_b": data_dir / "pair_b_same.jsonl",
                 "sample": data_dir / "sample.jsonl", "alien": data_dir / "alien.jsonl",
                 "mapping": data_dir / "alien_mapping.json"}
        argv = [token.format(**paths) for token in command]
        assert run_cli([*argv, "--top-n", "0"]) == 2
        assert capsys.readouterr() == ("", "error: expected_n must be >= 1, got 0\n")


#: Invocations with a flag the subcommand does not take, or one its chosen input
#: mode cannot use. Tokens are formatted with the paths of ``test_unread_flag_exits_one``.
_SWEEP = ["sweep", "--dataset", "{sample}", "--engine-a", "acme", "--engine-b", "bravo",
          "--factor", "snippet"]
_DRIFT = ["drift", "--old", "{sample}", "--new", "{sample}", "--engine", "acme"]
_IMPORT = ["import", "--input", "{alien}", "--mapping", "{mapping}"]
_DATASET_ONLY = [
    ["--dataset", "{sample}"], ["--engine-a", "acme"], ["--engine-b", "bravo"],
    ["--weights", "1,1,1"], ["--boost", "none"], ["--stopwords", "{missing}"],
    ["--metric", "kendall"], ["--normalize"], ["--redirects", "{missing}"], ["--strict"],
    ["--top-n", "3"],
]
UNREAD_FLAGS = [
    [*_SWEEP, "--weights", "0,0,0"],
    [*_SWEEP, "--metric", "jaro"],
    [*_DRIFT, "--metric", "kendall"],
    [*_IMPORT, "--weights", "1,1,1"],
    [*_IMPORT, "--boost", "none"],
    [*_IMPORT, "--stopwords", "{missing}"],
    [*_IMPORT, "--metric", "jaro"],
    *(
        ["compare", "{pair_a}", "{pair_b}", *extra]
        for extra in (
            ["--dataset", "{sample}"], ["--engine-a", "acme"], ["--engine-b", "bravo"],
            ["--query", "climate change"], ["--date", "2019-07-01"], ["--date-b", "2019-07-02"],
        )
    ),
    *(
        [command, "--matrix", "{matrix}", *extra]
        for command in ("consistency", "summary")
        for extra in _DATASET_ONLY
    ),
]


def _last_flag(argv: list[str]) -> str:
    return [token for token in argv if token.startswith("--")][-1]


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv", UNREAD_FLAGS, ids=[argv[0] + _last_flag(argv)[1:] for argv in UNREAD_FLAGS]
    )
    def test_unread_flag_exits_one(self, argv, data_dir, tmp_path, capsys):
        sample = str(data_dir / "sample.jsonl")
        matrix = tmp_path / "m.tsv"
        matrix.write_text(format_matrix(similarity_matrix(load_dataset(sample), "acme", "bravo")))
        paths = {
            "sample": sample,
            "matrix": str(matrix),
            "missing": str(tmp_path / "missing.txt"),
            "pair_a": str(data_dir / "pair_a.jsonl"),
            "pair_b": str(data_dir / "pair_b_same.jsonl"),
            "alien": str(data_dir / "alien.jsonl"),
            "mapping": str(data_dir / "alien_mapping.json"),
        }
        assert run_cli([token.format(**paths) for token in argv]) == 1
        assert _last_flag(argv) in capsys.readouterr().err

    def test_matrix_with_output_is_accepted(self, grid_file, tmp_path, capsys):
        matrix = tmp_path / "m.tsv"
        assert run_cli(["matrix", "--dataset", grid_file, "--engine-a", "x", "--engine-b", "y",
                        "-o", str(matrix)]) == 0
        out = tmp_path / "summary.txt"
        assert run_cli(["summary", "--matrix", str(matrix), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("# pair\tx\ty\nmean\t")


class TestMatrix:
    def test_grid_output(self, grid_file, capsys):
        code = run_cli(
            ["matrix", "--dataset", grid_file, "--engine-a", "x", "--engine-b", "y",
             "--weights", "1,1,1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# pair\tx\ty"
        assert lines[1] == "date\talpha query\tbeta query"
        assert lines[2] == "2019-07-01\t1.0000\t0.8571"
        assert lines[3] == "2019-07-02\t0.0000\tNA"

    def test_deterministic_across_runs(self, data_dir, capsys):
        argv = [
            "matrix", "--dataset", str(data_dir / "sample.jsonl"),
            "--engine-a", "acme", "--engine-b", "bravo",
        ]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first

    def test_output_file(self, grid_file, tmp_path, capsys):
        out = tmp_path / "m.tsv"
        code = run_cli(
            ["matrix", "--dataset", grid_file, "--engine-a", "x", "--engine-b", "y",
             "-o", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").startswith("# pair\tx\ty\n")

    @pytest.mark.parametrize(
        "metric,metric_fn", [("footrule", spearman_footrule_sim), ("kendall", kendall_tau_sim)]
    )
    def test_baseline_metric(self, grid_file, capsys, metric, metric_fn):
        code = run_cli(
            ["matrix", "--dataset", grid_file, "--engine-a", "x", "--engine-b", "y",
             "--metric", metric]
        )
        assert code == 0
        expected = similarity_matrix(load_dataset(grid_file), "x", "y", metric_fn=metric_fn)
        assert capsys.readouterr().out == format_matrix(expected)

    def test_short_list_error_names_cell(self, data_dir, tmp_path, capsys):
        records = [json.loads(line) for line in
                   (data_dir / "sample.jsonl").read_text(encoding="utf-8").splitlines()]
        first_bravo = next(r for r in records if r["engine"] == "bravo")
        first_bravo["results"] = first_bravo["results"][:8]
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code = run_cli(
            ["matrix", "--dataset", str(cut), "--engine-a", "acme", "--engine-b", "bravo",
             "--top-n", "10"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: acme vs bravo, query {first_bravo['query']!r}, {first_bravo['date']}: "
            "lists must be the same length, got 10 and 8\n"
        )


class TestConsistencyAndSummary:
    def test_consistency_from_dataset(self, grid_file, capsys):
        code = run_cli(
            ["consistency", "--dataset", grid_file, "--engine-a", "x", "--engine-b", "y",
             "--weights", "1,1,1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "2019-07-01\t0.9286"
        assert lines[2] == "2019-07-02\t0.0000"

    def test_consistency_from_matrix_file(self, grid_file, tmp_path, capsys):
        matrix_path = tmp_path / "m.tsv"
        run_cli(
            ["matrix", "--dataset", grid_file, "--engine-a", "x", "--engine-b", "y",
             "--weights", "1,1,1", "-o", str(matrix_path)]
        )
        capsys.readouterr()
        code = run_cli(["consistency", "--matrix", str(matrix_path)])
        assert code == 0
        # cells were rounded to 4 decimals on disk, so allow that much slack
        day1 = capsys.readouterr().out.splitlines()[1].split("\t")
        assert day1[0] == "2019-07-01"
        assert float(day1[1]) == pytest.approx(13 / 14, abs=1e-4)

    def test_summary_values(self, grid_file, capsys):
        code = run_cli(
            ["summary", "--dataset", grid_file, "--engine-a", "x", "--engine-b", "y",
             "--weights", "1,1,1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "mean\t0.6190" in lines
        assert "median\t0.8571" in lines
        assert "min\t0.0000" in lines
        assert "max\t1.0000" in lines

    def test_needs_matrix_or_dataset(self, capsys):
        assert run_cli(["summary"]) == 1


class TestSweep:
    def test_snippet_sweep_non_decreasing(self, data_dir, capsys):
        code = run_cli(
            ["sweep", "--dataset", str(data_dir / "sample.jsonl"),
             "--engine-a", "acme", "--engine-b", "bravo", "--factor", "snippet"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# factor\tsnippet"
        values = [float(line.split("\t")[1]) for line in lines[2:]]
        assert len(values) == 10
        assert values == sorted(values)
        assert values[-1] > 0

    def test_custom_steps(self, data_dir, capsys):
        code = run_cli(
            ["sweep", "--dataset", str(data_dir / "sample.jsonl"),
             "--engine-a", "acme", "--engine-b", "bravo", "--factor", "title",
             "--steps", "0.5,1.0"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_bad_factor_exits_one(self, data_dir, capsys):
        code = run_cli(
            ["sweep", "--dataset", str(data_dir / "sample.jsonl"),
             "--engine-a", "acme", "--engine-b", "bravo", "--factor", "velocity"]
        )
        assert code == 1

    def test_boost_reaches_the_sweep(self, data_dir, capsys):
        sample = str(data_dir / "sample.jsonl")
        code = run_cli(
            ["sweep", "--dataset", sample, "--engine-a", "acme", "--engine-b", "bravo",
             "--factor", "title", "--boost", "none"]
        )
        assert code == 0
        report = impact_sweep(load_dataset(sample), "acme", "bravo", "title", boost_weights=())
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"# base_mean\t{report.base_mean:.4f}"
        assert lines[2:] == [
            f"{step:.2f}\t{pct:.2f}" for step, pct in zip(report.weight_steps, report.decrease_pct)
        ]


class TestDrift:
    def test_same_day_drift_is_one(self, data_dir, capsys):
        code = run_cli(
            ["drift", "--old", str(data_dir / "sample.jsonl"),
             "--new", str(data_dir / "sample.jsonl"), "--engine", "acme",
             "--date-old", "2019-07-01", "--date-new", "2019-07-01"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# engine\tacme"
        assert all(line.endswith("\t1.0000") for line in lines[1:])

    def test_across_days_below_one(self, data_dir, capsys):
        code = run_cli(
            ["drift", "--old", str(data_dir / "sample.jsonl"),
             "--new", str(data_dir / "sample.jsonl"), "--engine", "acme",
             "--date-old", "2019-07-01", "--date-new", "2019-07-03"]
        )
        assert code == 0
        mean_line = capsys.readouterr().out.splitlines()[-1]
        assert mean_line.startswith("mean\t")
        assert 0.0 < float(mean_line.split("\t")[1]) < 1.0

    def test_redirect_cache_read_once(self, data_dir, monkeypatch, capsys):
        reads = []
        from_file = RedirectCache.from_file
        monkeypatch.setattr(
            RedirectCache, "from_file", lambda path: reads.append(path) or from_file(path)
        )
        sample = str(data_dir / "sample.jsonl")
        redirects = str(data_dir / "redirects.tsv")
        code = run_cli(
            ["drift", "--old", sample, "--new", sample, "--engine", "acme",
             "--redirects", redirects]
        )
        assert code == 0
        assert reads == [redirects]


class TestNormalizeUrls:
    def test_file_with_redirects(self, data_dir, capsys):
        code = run_cli(
            ["normalize-urls", str(data_dir / "urls.txt"),
             "--redirects", str(data_dir / "redirects.tsv")]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "http://example.com/a/b",
            "https://example.com/a/~user",
            "https://final.example.com/landing",
            "https://news.example.org/y?z=A",
        ]

    def test_redirects_canonicalize_each_url_once(self, data_dir, capsys, monkeypatch):
        seen = []
        canonicalize = urlnorm.canonicalize

        def counting(url, **kwargs):
            seen.append(url)
            return canonicalize(url, **kwargs)

        monkeypatch.setattr(urlnorm, "canonicalize", counting)
        monkeypatch.setattr(cli, "canonicalize", counting)
        urls = data_dir / "urls.txt"
        redirects = data_dir / "redirects.tsv"
        assert run_cli(["normalize-urls", str(urls), "--redirects", str(redirects)]) == 0
        cache_fields = [f for line in redirects.read_text().splitlines()[1:]
                        for f in line.split("\t")]
        listed = urls.read_text().splitlines()[1:]
        # the cache's sources and targets once each as it loads, then each URL once
        assert sorted(seen) == sorted(cache_fields + listed)
        assert capsys.readouterr().out.splitlines()[2] == "https://final.example.com/landing"

    def test_redirects_with_sort_query_and_strip_www(self, tmp_path, capsys):
        urls = tmp_path / "urls.txt"
        urls.write_text("HTTP://WWW.www.A.com:80/p/?b=2&a=%41#f\nhttp://www.b.com/x\n")
        redirects = tmp_path / "redirects.tsv"
        redirects.write_text("http://a.com/p?a=A&b=2\thttp://moved.com/\n"
                             "http://www.b.com/x\thttp://unused.com/\n")
        argv = ["normalize-urls", str(urls), "--redirects", str(redirects),
                "--sort-query", "--strip-www"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "http://moved.com/\nhttp://b.com/x\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("HTTP://X.Example.com/a/../b\n"))
        assert run_cli(["normalize-urls", "-"]) == 0
        assert capsys.readouterr().out == "http://x.example.com/b\n"

    def test_unicode_line_break_stays_in_its_url(self, tmp_path, capsys):
        path = tmp_path / "urls.txt"
        path.write_text("http://A.com/x\u2028y\r\nhttp://b.com/\x85z\rhttp://C.com\n",
                        encoding="utf-8")
        assert run_cli(["normalize-urls", str(path)]) == 0
        assert capsys.readouterr().out == (
            "http://a.com/x\u2028y\nhttp://b.com/\x85z\nhttp://c.com/\n"
        )

    def test_bad_url_exits_two(self, tmp_path, capsys):
        path = tmp_path / "urls.txt"
        path.write_text("not-a-url\n", encoding="utf-8")
        assert run_cli(["normalize-urls", str(path)]) == 2

    def test_bad_url_after_good_one_writes_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("http://a.com/x\nnot-a-url\n"))
        assert run_cli(["normalize-urls", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "not-a-url" in err

    def test_bad_url_error_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "urls.txt"
        path.write_text("http://a.com/x\n\nhttp://[zz]/a\n", encoding="utf-8")
        assert run_cli(["normalize-urls", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}:3: cannot canonicalize 'http://[zz]/a'")

    def test_stdin_error_names_its_line(self, tmp_path, capsys, monkeypatch):
        redirects = tmp_path / "redirects.tsv"
        redirects.write_text("http://a.com/x\thttp://b.com/\n", encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO("http://a.com/x\nnot a url\n"))
        assert run_cli(["normalize-urls", "-", "--redirects", str(redirects)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: <stdin>:2: cannot canonicalize 'not a url'"
        )

    def test_redirect_loop_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "urls.txt"
        path.write_text("# urls\nhttp://a.com/x\n", encoding="utf-8")
        redirects = tmp_path / "redirects.tsv"
        redirects.write_text("http://a.com/x\thttp://b.com/\nhttp://b.com/\thttp://a.com/x\n",
                             encoding="utf-8")
        assert run_cli(["normalize-urls", str(path), "--redirects", str(redirects)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: redirect loop in cache")

    def test_sort_query_flag(self, tmp_path, capsys):
        path = tmp_path / "urls.txt"
        path.write_text("http://example.com/?b=2&a=1\n", encoding="utf-8")
        run_cli(["normalize-urls", str(path), "--sort-query"])
        assert capsys.readouterr().out == "http://example.com/?a=1&b=2\n"


class TestImport:
    def test_to_native_and_reload(self, data_dir, tmp_path, capsys):
        out = tmp_path / "native.jsonl"
        code = run_cli(
            ["import", "--input", str(data_dir / "alien.jsonl"),
             "--mapping", str(data_dir / "alien_mapping.json"), "-o", str(out)]
        )
        assert code == 0
        ds = load_dataset(out, expected_n=3)
        assert ds.engines() == ("zephyr",)
        assert ds.categories["solar panels"] == "energy"

    def test_stdout_is_canonical_jsonl(self, data_dir, capsys):
        code = run_cli(
            ["import", "--input", str(data_dir / "alien.jsonl"),
             "--mapping", str(data_dir / "alien_mapping.json")]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["date"] for line in lines] == ["2019-07-01", "2019-07-02"]

    def test_two_categories_for_one_query_exit_two(self, tmp_path, capsys):
        rows = [{"q": "q", "d": day, "p": 1, "u": "http://a.com/", "topic": topic}
                for day, topic in (("2019-07-01", "energy"), ("2019-07-02", "travel"))]
        flat = tmp_path / "flat.jsonl"
        flat.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({"engine": {"const": "e"}, "query": "q", "date": "d",
                                       "rank": "p", "url": "u", "category": "topic"}))
        assert run_cli(["import", "--input", str(flat), "--mapping", str(mapping)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {flat}:2: query 'q' has category 'travel', "
                       "but line 1 gave 'energy'\n")

    def test_strict_without_top_n_keeps_a_list_with_a_duplicate_url(self, tmp_path, capsys):
        rows = [{"q": "q", "d": "2019-07-01", "p": rank, "u": url}
                for rank, url in enumerate(("http://x/", "http://x", "http://y/"), start=1)]
        flat = tmp_path / "flat.jsonl"
        flat.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({"engine": {"const": "e"}, "query": "q", "date": "d",
                                       "rank": "p", "url": "u"}))
        argv = ["import", "--input", str(flat), "--mapping", str(mapping), "--normalize",
                "--strict"]
        assert run_cli(argv) == 0
        [line] = capsys.readouterr().out.splitlines()
        assert [r["url"] for r in json.loads(line)["results"]] == ["http://x/", "http://y/"]
        assert run_cli(argv + ["--top-n", "3"]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {flat}:1: e/q/2019-07-01: only 2 distinct results remain after "
            "deduplication, expected 3\n"
        ))

    def test_file_of_blank_lines_exits_two(self, data_dir, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n  \n\n", encoding="utf-8")
        code = run_cli(
            ["import", "--input", str(blank), "--mapping", str(data_dir / "alien_mapping.json")]
        )
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {blank}: no records to import\n")

    def test_bad_mapping_file_exits_two(self, data_dir, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        mapping.write_text("[]", encoding="utf-8")
        code = run_cli(
            ["import", "--input", str(data_dir / "alien.jsonl"), "--mapping", str(mapping)]
        )
        assert code == 2

    def test_mapping_that_is_not_json_is_named(self, data_dir, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        mapping.write_text('{"a":', encoding="utf-8")
        code = run_cli(
            ["import", "--input", str(data_dir / "alien.jsonl"), "--mapping", str(mapping)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mapping}:")
        assert "mapping is not valid JSON" in err

    def test_non_string_date_format_exits_two(self, data_dir, tmp_path, capsys):
        mapping = json.loads((data_dir / "alien_mapping.json").read_text(encoding="utf-8"))
        mapping["date_format"] = 5
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        code = run_cli(
            ["import", "--input", str(data_dir / "alien.jsonl"), "--mapping", str(path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


REPO_ROOT = Path(__file__).resolve().parents[1]


def _readme_examples() -> list:
    """Each ``$ serpsim ...`` command in README's text blocks, with the lines it shows.

    A trailing backslash continues a command; its output runs until a blank
    line, the next command or the end of the block.
    """
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", readme, flags=re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = chunk.replace("\\\n", "").partition("\n")
            subcommand = command.split("|")[-1].split()[1]
            examples.append(
                pytest.param(command, shown.split("\n\n")[0].splitlines(), id=subcommand)
            )
    return examples


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    def test_every_example_is_found(self):
        assert [example.id for example in README_EXAMPLES] == [
            "compare", "matrix", "consistency", "drift", "sweep", "normalize-urls"
        ]

    @pytest.mark.parametrize("command,expected", README_EXAMPLES)
    def test_example_prints_what_readme_shows(self, command, expected, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        tokens = shlex.split(command)
        if "|" in tokens:
            # printf 'TEXT' | serpsim ...: the printf argument is the command's stdin
            pipe = tokens.index("|")
            assert tokens[:pipe - 1] == ["printf"]
            stdin = codecs.decode(tokens[pipe - 1], "unicode_escape")
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            tokens = tokens[pipe + 1:]
        assert tokens[0] == "serpsim"
        assert run_cli(tokens[1:]) == 0
        out = capsys.readouterr().out.splitlines()
        if expected[-1] == "...":
            expected = expected[:-1]
            out = out[: len(expected)]
        assert out == expected


def _sample_with(data_dir, tmp_path, name, edit=None):
    """The sample dataset written to ``tmp_path / name``, after ``edit(records)``."""
    records = [json.loads(line) for line in
               (data_dir / "sample.jsonl").read_text(encoding="utf-8").splitlines()]
    if edit is not None:
        edit(records)
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def _cut_first(engine, n):
    """An edit that cuts ``engine``'s first list to its first ``n`` results."""
    def edit(records):
        first = next(r for r in records if r["engine"] == engine)
        first["results"] = first["results"][:n]
    return edit


class TestOneDepthPerCommand:
    """A command compares every list at one depth: ``--top-n``, else the depth of the
    shortest list in any file it reads."""

    @staticmethod
    def run(argv, capsys):
        code = run_cli(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_drift_over_files_of_different_depth(self, data_dir, tmp_path, capsys):
        # a cobalt list of 9 sets the new file's depth, though drift reads only acme
        new = _sample_with(data_dir, tmp_path, "x.jsonl", _cut_first("cobalt", 9))
        argv = ["drift", "--old", str(data_dir / "sample.jsonl"), "--new", new,
                "--engine", "acme"]
        default = self.run(argv, capsys)
        assert default[0] == 0 and default[2] == ""
        assert default == self.run(argv + ["--top-n", "9"], capsys)
        assert self.run(argv + ["--top-n", "10"], capsys)[0] == 0

    def test_pinned_drift_scores_at_the_shared_depth(self, data_dir, tmp_path, capsys):
        new = _sample_with(data_dir, tmp_path, "x.jsonl", _cut_first("cobalt", 9))
        argv = ["drift", "--old", str(data_dir / "sample.jsonl"), "--new", new,
                "--engine", "acme", "--date-old", "2019-07-01", "--date-new", "2019-07-03"]
        default = self.run(argv, capsys)
        assert default[0] == 0
        assert default == self.run(argv + ["--top-n", "9"], capsys)
        assert default[1] != self.run(argv + ["--top-n", "10"], capsys)[1]

    def test_drift_short_list_under_top_n_names_its_cell(self, data_dir, tmp_path, capsys):
        new = _sample_with(data_dir, tmp_path, "x.jsonl", _cut_first("acme", 9))
        argv = ["drift", "--old", str(data_dir / "sample.jsonl"), "--new", new,
                "--engine", "acme"]
        assert self.run(argv + ["--top-n", "10"], capsys) == (2, "", (
            "error: acme, query 'climate change', 2019-07-01 vs 2019-07-01: "
            "lists must be the same length, got 10 and 9\n"
        ))
        default = self.run(argv, capsys)
        assert default[0] == 0
        assert default == self.run(argv + ["--top-n", "9"], capsys)

    @pytest.mark.parametrize("metric", ["combined", "jaro", "jarowinkler"])
    def test_compare_files_of_different_depth(self, data_dir, tmp_path, capsys, metric):
        records = [json.loads(line) for line in
                   (data_dir / "sample.jsonl").read_text(encoding="utf-8").splitlines()]
        first = records[0]
        other = next(r for r in records if r["engine"] != first["engine"]
                     and (r["query"], r["date"]) == (first["query"], first["date"]))
        other["results"] = other["results"][:9]
        paths = {}
        for name, chosen in (("a", [first]), ("b", [other]), ("both", [first, other])):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text("".join(json.dumps(r) + "\n" for r in chosen), "utf-8")
        two_files = self.run(
            ["compare", str(paths["a"]), str(paths["b"]), "--metric", metric], capsys
        )
        one_file = self.run(
            ["compare", "--dataset", str(paths["both"]), "--engine-a", first["engine"],
             "--engine-b", other["engine"], "--query", first["query"],
             "--date", first["date"], "--metric", metric], capsys
        )
        assert two_files[0] == 0
        assert two_files == one_file

    def test_one_load_per_file(self, data_dir, monkeypatch, capsys):
        loaded = []
        load = dataset_io.load_dataset
        monkeypatch.setattr(
            dataset_io, "load_dataset", lambda path, **kw: loaded.append(path) or load(path, **kw)
        )
        sample = str(data_dir / "sample.jsonl")
        pair = ["--engine-a", "acme", "--engine-b", "bravo"]
        for argv, files in (
            (["matrix", "--dataset", sample, *pair], 1),
            (["sweep", "--dataset", sample, *pair, "--factor", "title"], 1),
            (["compare", "--dataset", sample, *pair, "--query", "climate change",
              "--date", "2019-07-01"], 1),
            (["drift", "--old", sample, "--new", sample, "--engine", "acme"], 2),
        ):
            loaded.clear()
            assert run_cli(argv) == 0
            assert loaded == [sample] * files

    def test_one_load_per_file_of_different_depth(self, data_dir, tmp_path, monkeypatch):
        loaded = []
        load = dataset_io.load_dataset
        monkeypatch.setattr(
            dataset_io, "load_dataset", lambda path, **kw: loaded.append(path) or load(path, **kw)
        )
        sample = str(data_dir / "sample.jsonl")
        new = _sample_with(data_dir, tmp_path, "x.jsonl", _cut_first("cobalt", 9))
        for argv in (
            ["drift", "--old", sample, "--new", new, "--engine", "acme"],
            ["drift", "--old", new, "--new", sample, "--engine", "acme",
             "--date-old", "2019-07-01", "--date-new", "2019-07-03"],
        ):
            loaded.clear()
            assert run_cli(argv) == 0
            assert loaded == [argv[2], argv[4]]


class TestTsvBreakingNames:
    def test_drift_refuses_a_query_with_a_line_break(self, data_dir, tmp_path, capsys):
        def rename(records):
            for r in records:
                if r["query"] == "climate change":
                    r["query"] = "climate\nchange"
        path = _sample_with(data_dir, tmp_path, "nl.jsonl", rename)
        code = run_cli(["drift", "--old", path, "--new", path, "--engine", "acme"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: drift query 'climate\\nchange' holds a tab or line break\n"
        )

    def test_drift_refuses_an_engine_with_a_tab(self, data_dir, tmp_path, capsys):
        def rename(records):
            for r in records:
                r["engine"] = r["engine"].replace("acme", "ac\tme")
        path = _sample_with(data_dir, tmp_path, "tab.jsonl", rename)
        code = run_cli(["drift", "--old", path, "--new", path, "--engine", "ac\tme"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: drift engine 'ac\\tme' holds a tab or line break\n"
        )

    @pytest.mark.parametrize("name", ["mean", "# engine"])
    def test_drift_refuses_a_query_named_as_its_own_label(self, data_dir, tmp_path, capsys, name):
        def rename(records):
            for r in records:
                if r["query"] == "climate change":
                    r["query"] = name
        path = _sample_with(data_dir, tmp_path, "label.jsonl", rename)
        code = run_cli(["drift", "--old", path, "--new", path, "--engine", "acme",
                        "--date-old", "2019-07-01", "--date-new", "2019-07-03"])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: drift query {name!r} would read as one of drift's own labels\n"
        )

    def test_drift_keeps_a_hashtag_query(self, data_dir, tmp_path, capsys):
        def rename(records):
            for r in records:
                if r["query"] == "climate change":
                    r["query"] = "#climate"
        path = _sample_with(data_dir, tmp_path, "hashtag.jsonl", rename)
        sample = str(data_dir / "sample.jsonl")
        dates = ["--engine", "acme", "--date-old", "2019-07-01", "--date-new", "2019-07-03"]
        assert run_cli(["drift", "--old", sample, "--new", sample, *dates]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert run_cli(["drift", "--old", path, "--new", path, *dates]) == 0
        renamed = capsys.readouterr().out.splitlines()
        assert renamed == [plain[0], plain[1].replace("climate change", "#climate"),
                           *plain[2:]]

    @pytest.mark.parametrize("command", ["consistency", "summary"])
    def test_pair_line_refuses_an_engine_with_a_line_break(
        self, data_dir, tmp_path, capsys, command
    ):
        def rename(records):
            for r in records:
                r["engine"] = r["engine"].replace("bravo", "bra\rvo")
        path = _sample_with(data_dir, tmp_path, "cr.jsonl", rename)
        code = run_cli(
            [command, "--dataset", path, "--engine-a", "acme", "--engine-b", "bra\rvo"]
        )
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: matrix engine 'bra\\rvo' holds a tab or line break\n"
        )


@pytest.mark.parametrize("cell", ["1.5", "nan", "inf"])
def test_matrix_file_cell_outside_unit_range_names_its_line(tmp_path, capsys, cell):
    path = tmp_path / "m.tsv"
    path.write_text(f"# pair\tx\ty\ndate\tq1\n2019-07-01\t0.5000\n2019-07-02\t{cell}\n",
                    encoding="utf-8")
    assert run_cli(["summary", "--matrix", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}:4: cell value {float(cell)} outside [0, 1]\n"
    )


@pytest.mark.parametrize("command", ["consistency", "summary"])
def test_matrix_file_with_a_repeated_query_is_refused(tmp_path, capsys, command):
    path = tmp_path / "dup.tsv"
    path.write_text(
        "# pair\tx\ty\ndate\tq1\tq1\n2019-07-01\t0.5000\t0.6000\n"
        "2019-07-01\t0.7000\t0.8000\n", encoding="utf-8",
    )
    assert run_cli([command, "--matrix", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:2: repeated query 'q1'\n")
