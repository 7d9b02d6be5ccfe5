"""Command-line interface.

Subcommands:

    compare         score one pair of ranked lists
    matrix          day x query similarity grid for an engine pair
    consistency     per-day mean similarity (from a dataset or a matrix file)
    summary         mean/median/min/max (from a dataset or a matrix file)
    sweep           impact of one penalty weight on the mean score
    drift           one engine's self-similarity across two crawl periods
    normalize-urls  canonicalize a list of URLs
    import          convert a foreign flat JSONL file to the native format

Exit codes: 0 success, 1 usage error, 2 data or I/O error. All numeric
output is fixed to 4 decimals so runs are byte-for-byte reproducible.
Each command returns its whole report and ``run_cli`` alone writes it,
so a command that fails writes nothing to stdout or ``-o``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import statistics
import sys
from pathlib import Path

from . import analysis, dataset_io
from .combined import combined_similarity
from .errors import DatasetError, RedirectError, SerpSimError, UrlParseError
from .model import DEFAULT_BOOST_WEIGHTS, DEFAULT_CONFIG, MetricConfig, SimilarityMatrix
from .rank_metrics import (
    jaro_sim,
    jaro_winkler_sim,
    kendall_tau_sim,
    spearman_footrule_sim,
)
from .textsim import load_stopwords
from .urlnorm import RedirectCache, _data_lines, _follow_cache, canonicalize

#: The rank-only baselines ``--metric`` can select instead of ``combined``.
BASELINE_METRICS = {
    "footrule": spearman_footrule_sim,
    "kendall": kendall_tau_sim,
    "jaro": jaro_sim,
    "jarowinkler": jaro_winkler_sim,
}

METRIC_CHOICES = ("combined", *BASELINE_METRICS)


class UsageError(Exception):
    """Bad flag combination; maps to exit code 1 like a parse failure."""


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_weights(text: str) -> tuple[float, ...]:
    if text.count(",") != 2:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated weights, got {text!r}"
        )
    return _parse_floats(text)


def _parse_boost(text: str) -> tuple[float, ...]:
    if text.strip().lower() in ("", "none"):
        return ()
    return _parse_floats(text)


def _parse_date(text: str) -> dt.date:
    try:
        return dataset_io._iso_date(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _shared_options() -> tuple[argparse.ArgumentParser, ...]:
    """Parent parsers of the shared flags: penalty weights, content (boost and
    stopwords), metric, and dataset loading. A subcommand takes the ones it reads."""
    weights, content, metric, loading = (
        argparse.ArgumentParser(add_help=False) for _ in range(4)
    )
    default_weights = (DEFAULT_CONFIG.a, DEFAULT_CONFIG.b, DEFAULT_CONFIG.c)
    weights.add_argument_group("scoring").add_argument(
        "--weights", type=_parse_weights, default=default_weights, metavar="A,B,C",
        help="snippet, title and transposition penalty weights "
        f"(default {','.join(map(str, default_weights))})",
    )
    scoring = content.add_argument_group("scoring")
    scoring.add_argument(
        "--boost", type=_parse_boost, default=DEFAULT_BOOST_WEIGHTS, metavar="W1,..",
        help="positional agreement boost weights, or 'none' "
        f"(default {','.join(map(str, DEFAULT_BOOST_WEIGHTS))})",
    )
    scoring.add_argument(
        "--stopwords", metavar="PATH",
        help="stopword file (UTF-8, one word per line) replacing the bundled list",
    )
    metric.add_argument_group("scoring").add_argument(
        "--metric", choices=METRIC_CHOICES, default="combined",
        help="combined content+ranking score, or a rank-only baseline",
    )
    group = loading.add_argument_group("dataset loading")
    group.add_argument("--normalize", action="store_true", help="canonicalize URLs while loading")
    group.add_argument(
        "--redirects", metavar="PATH",
        help="redirect cache (source<TAB>target); implies --normalize",
    )
    group.add_argument(
        "--strict", action="store_true",
        help="reject lists that are shorter than the expected depth",
    )
    group.add_argument(
        "--top-n", type=int, metavar="N",
        help="compare the top N results (default: depth of the shortest list)",
    )
    return weights, content, metric, loading


def _config(args: argparse.Namespace) -> MetricConfig:
    a, b, c = args.weights
    return MetricConfig(a=a, b=b, c=c, boost_weights=args.boost)


def _stopwords(args: argparse.Namespace) -> frozenset[str] | None:
    return load_stopwords(args.stopwords) if args.stopwords else None


def _loader_options(args: argparse.Namespace) -> dict:
    """Keyword arguments shared by ``load_dataset`` and ``import_dataset``."""
    return {
        "normalize": args.normalize,
        "redirect_cache": RedirectCache.from_file(args.redirects) if args.redirects else None,
        "strict": args.strict,
        "expected_n": args.top_n,
    }


def _datasets(args: argparse.Namespace, *paths: str) -> list[analysis.SerpDataset]:
    """Each path's dataset, read once, all at one depth: ``--top-n``, else the shortest
    list in any of them."""
    options = _loader_options(args)
    datasets = [dataset_io.load_dataset(path, **options) for path in paths]
    return datasets if args.top_n is not None else analysis._at_one_depth(*datasets)


def _cmd_compare(args: argparse.Namespace) -> str:
    if args.files:
        if len(args.files) != 2:
            raise UsageError("compare needs exactly two record files")
        selectors = [
            "--" + dest.replace("_", "-")
            for dest in ("dataset", "engine_a", "engine_b", "query", "date", "date_b")
            if getattr(args, dest) is not None
        ]
        if selectors:
            raise UsageError(f"compare FILE FILE cannot be combined with {', '.join(selectors)}")
        datasets = _datasets(args, *args.files)
        for path, dataset in zip(args.files, datasets):
            if len(dataset) != 1:
                raise SerpSimError(f"{path}: expected exactly one record, found {len(dataset)}")
        list_a, list_b = (dataset.get(*next(iter(dataset))) for dataset in datasets)
    else:
        if not (args.dataset and args.engine_a and args.engine_b and args.query and args.date):
            raise UsageError(
                "compare needs either two record files or --dataset with "
                "--engine-a, --engine-b, --query and --date"
            )
        [dataset] = _datasets(args, args.dataset)
        date_b = args.date_b or args.date
        list_a = dataset.get(args.engine_a, args.query, args.date)
        list_b = dataset.get(args.engine_b, args.query, date_b)
        if list_a is None:
            raise SerpSimError(f"no record for {args.engine_a}/{args.query}/{args.date}")
        if list_b is None:
            raise SerpSimError(f"no record for {args.engine_b}/{args.query}/{date_b}")

    lines = [f"metric\t{args.metric}\n"]
    if args.metric == "combined":
        breakdown = combined_similarity(list_a, list_b, _config(args), _stopwords(args))
        lines += [
            f"score\t{_fmt(breakdown.score)}\n",
            f"base_score\t{_fmt(breakdown.base_score)}\n",
            f"boost\t{_fmt(breakdown.boost)}\n",
            f"common_count\t{breakdown.common_count}\n",
            f"snippet_penalty\t{_fmt(breakdown.snippet_penalty)}\n",
            f"title_penalty\t{_fmt(breakdown.title_penalty)}\n",
            f"transposition_penalty\t{_fmt(breakdown.transposition_penalty)}\n",
        ]
    else:
        lines.append(f"score\t{_fmt(BASELINE_METRICS[args.metric](list_a, list_b))}\n")
    return "".join(lines)


def _matrix_from_args(args: argparse.Namespace) -> SimilarityMatrix:
    [dataset] = _datasets(args, args.dataset)
    return analysis.similarity_matrix(
        dataset,
        args.engine_a,
        args.engine_b,
        _config(args),
        stopwords=_stopwords(args),
        metric_fn=BASELINE_METRICS.get(args.metric),
    )


def _cmd_matrix(args: argparse.Namespace) -> str:
    return dataset_io.format_matrix(_matrix_from_args(args))


def _matrix_or_file(args: argparse.Namespace) -> SimilarityMatrix:
    if args.matrix:
        # a matrix file is already scored, so no option but -o can apply to it
        conflicts = [
            action.option_strings[-1]
            for action in args.parser._actions
            if action.option_strings and action.dest not in ("matrix", "output")
            and getattr(args, action.dest, action.default) != action.default
        ]
        if conflicts:
            raise UsageError(f"--matrix cannot be combined with {', '.join(conflicts)}")
        return dataset_io.read_matrix(args.matrix)
    if not (args.dataset and args.engine_a and args.engine_b):
        raise UsageError(
            "needs either --matrix FILE or --dataset with --engine-a and --engine-b"
        )
    return _matrix_from_args(args)


def _cmd_consistency(args: argparse.Namespace) -> str:
    matrix = _matrix_or_file(args)
    lines = [dataset_io._tsv_line("matrix engine", "# pair", *matrix.engine_pair)]
    for day, value in analysis.consistency_series(matrix):
        cell = "NA" if value is None else _fmt(value)
        lines.append(f"{day.isoformat()}\t{cell}\n")
    return "".join(lines)


def _cmd_summary(args: argparse.Namespace) -> str:
    matrix = _matrix_or_file(args)
    stats = analysis.pair_summary(matrix)
    lines = [dataset_io._tsv_line("matrix engine", "# pair", *matrix.engine_pair)]
    for key in ("mean", "median", "min", "max"):
        lines.append(f"{key}\t{_fmt(stats[key])}\n")
    return "".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    [dataset] = _datasets(args, args.dataset)
    report = analysis.impact_sweep(
        dataset,
        args.engine_a,
        args.engine_b,
        args.factor,
        args.steps,
        boost_weights=args.boost,
        stopwords=_stopwords(args),
    )
    lines = [
        f"# factor\t{report.factor}\n",
        f"# base_mean\t{_fmt(report.base_mean)}\n",
    ]
    for step, pct in zip(report.weight_steps, report.decrease_pct):
        lines.append(f"{step:.2f}\t{pct:.2f}\n")
    return "".join(lines)


def _cmd_drift(args: argparse.Namespace) -> str:
    dataset_old, dataset_new = _datasets(args, args.old, args.new)
    scores = analysis.cross_period_drift(
        dataset_old,
        dataset_new,
        args.engine,
        _config(args),
        stopwords=_stopwords(args),
        date_old=args.date_old,
        date_new=args.date_new,
    )
    lines = [dataset_io._tsv_line("drift engine", "# engine", args.engine)]
    for query in sorted(scores):
        if query in ("mean", "# engine"):
            raise SerpSimError(f"drift query {query!r} would read as one of drift's own labels")
        lines.append(dataset_io._tsv_line("drift query", query, _fmt(scores[query])))
    lines.append(f"mean\t{_fmt(statistics.fmean(scores.values()))}\n")
    return "".join(lines)


def _cmd_normalize_urls(args: argparse.Namespace) -> str:
    if args.file == "-":
        path, text = "<stdin>", sys.stdin.read()
    else:
        path, text = args.file, Path(args.file).read_text(encoding="utf-8")
    cache = RedirectCache.from_file(args.redirects) if args.redirects else None
    lines = []
    for lineno, url in _data_lines(text):
        try:
            canonical = canonicalize(
                url.strip(), sort_query=args.sort_query, strip_www=args.strip_www
            )
            if cache is not None:
                # a canonical form under these options is one under the defaults too
                canonical = _follow_cache(canonical, cache)
        except (UrlParseError, RedirectError) as exc:
            raise DatasetError(str(exc), path, lineno) from exc
        lines.append(f"{canonical}\n")
    return "".join(lines)


def _cmd_import(args: argparse.Namespace) -> str:
    try:
        mapping = json.loads(Path(args.mapping).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"mapping is not valid JSON: {exc}", args.mapping) from exc
    if not isinstance(mapping, dict):
        raise DatasetError("mapping must be a JSON object", args.mapping)
    dataset = dataset_io.import_dataset(args.input, mapping, **_loader_options(args))
    return dataset_io.dumps_dataset(dataset)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serpsim",
        description="Content-and-ranking similarity analytics for ranked search results.",
    )
    weights, content, metric, loading = _shared_options()
    scoring = [weights, content, metric, loading]
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", parents=scoring, help="score one pair of ranked lists")
    compare.add_argument("files", nargs="*", metavar="FILE", help="two one-record files")
    compare.add_argument("--dataset", metavar="PATH")
    compare.add_argument("--engine-a", metavar="NAME")
    compare.add_argument("--engine-b", metavar="NAME")
    compare.add_argument("--query", metavar="TEXT")
    compare.add_argument("--date", type=_parse_date, metavar="YYYY-MM-DD")
    compare.add_argument(
        "--date-b", type=_parse_date, metavar="YYYY-MM-DD",
        help="date for the second engine (default: --date)",
    )
    compare.set_defaults(func=_cmd_compare)

    matrix = sub.add_parser("matrix", parents=scoring, help="day x query similarity grid")
    matrix.add_argument("--dataset", required=True, metavar="PATH")
    matrix.add_argument("--engine-a", required=True, metavar="NAME")
    matrix.add_argument("--engine-b", required=True, metavar="NAME")
    matrix.add_argument("-o", "--output", metavar="PATH")
    matrix.set_defaults(func=_cmd_matrix)

    for name, handler, text in (
        ("consistency", _cmd_consistency, "per-day mean similarity"),
        ("summary", _cmd_summary, "mean/median/min/max of a grid"),
    ):
        p = sub.add_parser(name, parents=scoring, help=text)
        p.add_argument("--matrix", metavar="PATH", help="precomputed matrix TSV, used alone")
        p.add_argument("--dataset", metavar="PATH")
        p.add_argument("--engine-a", metavar="NAME")
        p.add_argument("--engine-b", metavar="NAME")
        p.add_argument("-o", "--output", metavar="PATH")
        p.set_defaults(func=handler, parser=p)

    sweep = sub.add_parser(
        "sweep", parents=[content, loading], help="impact of one penalty weight"
    )
    sweep.add_argument("--dataset", required=True, metavar="PATH")
    sweep.add_argument("--engine-a", required=True, metavar="NAME")
    sweep.add_argument("--engine-b", required=True, metavar="NAME")
    sweep.add_argument(
        "--factor", required=True, choices=analysis.SWEEP_FACTORS,
    )
    sweep.add_argument(
        "--steps", type=_parse_floats, default=analysis.DEFAULT_SWEEP_STEPS,
        metavar="W1,..", help="weights to try (default 0.1..1.0)",
    )
    sweep.add_argument("-o", "--output", metavar="PATH")
    sweep.set_defaults(func=_cmd_sweep)

    drift = sub.add_parser(
        "drift", parents=[weights, content, loading], help="self-similarity across two periods"
    )
    drift.add_argument("--old", required=True, metavar="PATH", help="earlier dataset")
    drift.add_argument("--new", required=True, metavar="PATH", help="later dataset")
    drift.add_argument("--engine", required=True, metavar="NAME")
    drift.add_argument("--date-old", type=_parse_date, metavar="YYYY-MM-DD")
    drift.add_argument("--date-new", type=_parse_date, metavar="YYYY-MM-DD")
    drift.add_argument("-o", "--output", metavar="PATH")
    drift.set_defaults(func=_cmd_drift)

    norm = sub.add_parser("normalize-urls", help="canonicalize URLs, one per line")
    norm.add_argument("file", metavar="FILE", help="URL list, or - for stdin")
    norm.add_argument("--sort-query", action="store_true", help="sort query parameters")
    norm.add_argument("--strip-www", action="store_true", help="drop a leading www label")
    norm.add_argument("--redirects", metavar="PATH", help="redirect cache to apply")
    norm.set_defaults(func=_cmd_normalize_urls)

    importer = sub.add_parser("import", parents=[loading], help="convert foreign flat JSONL")
    importer.add_argument("--input", required=True, metavar="PATH")
    importer.add_argument(
        "--mapping", required=True, metavar="PATH",
        help="JSON object mapping native fields to source fields",
    )
    importer.add_argument("-o", "--output", metavar="PATH")
    importer.set_defaults(func=_cmd_import)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text, out = args.func(args), getattr(args, "output", None)
        if out:
            Path(out).write_text(text, encoding="utf-8", newline="\n")
        else:
            sys.stdout.write(text)
    except BrokenPipeError:
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SerpSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
