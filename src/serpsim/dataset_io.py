"""Reading and writing datasets and result matrices.

Native dataset format: UTF-8 JSON Lines, one ranked list per line:

    {"engine": "...", "query": "...", "date": "YYYY-MM-DD",
     "results": [{"rank": 1, "url": "...", "title": "...", "snippet": "..."}, ...],
     "category": "optional topic label"}

Writers emit a canonical form (records sorted by engine, query, date;
object keys sorted; compact separators; LF line endings) so equal
datasets serialize to equal bytes.

Matrix format: TSV with a leading "# pair" comment naming the engine
pair, a header row of queries, then one row per date with 4-decimal
cells; missing cells are "NA".
"""

from __future__ import annotations

import datetime as dt
import io
import json
import re
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .analysis import SerpDataset, _at_one_depth
from .errors import DatasetError, SerpSimError, ValidationError
from .model import RankedList, SearchResult, SimilarityMatrix, _unit_cell, validate_ranked_list
from .urlnorm import _LINE_END, RedirectCache, canonicalize, resolve_redirects

_MATRIX_PAIR_PREFIX = "# pair"


def _require(obj: Mapping[str, Any], key: str, kind: type, path: str, lineno: int) -> Any:
    if key not in obj:
        raise DatasetError(f"missing required field {key!r}", path, lineno)
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DatasetError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}",
            path,
            lineno,
        )
    return value


#: ``YYYY-MM-DD`` only: Python 3.11+ ``date.fromisoformat`` also accepts
#: ``20190701`` and ``2019-W27-1``, which 3.10 rejects.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_date(text: str) -> dt.date:
    """Parse a ``YYYY-MM-DD`` date the same way on every Python; ValueError otherwise."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def _parse_date(raw: str, path: str, lineno: int) -> dt.date:
    try:
        return _iso_date(raw)
    except ValueError as exc:
        raise DatasetError(f"bad date {raw!r}: {exc}", path, lineno) from exc


def _rows(path: Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Stream ``(line number, object)`` for each non-blank line. Only ``\\n``,
    ``\\r`` and ``\\r\\n`` end a line, so a raw U+2028 or U+0085 stays in its record."""
    with path.open(encoding="utf-8") as lines:
        for lineno, line in enumerate(lines, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as exc:
                raise DatasetError(f"invalid JSON: {exc}", str(path), lineno) from exc
            if not isinstance(obj, dict):
                raise DatasetError("each line must be a JSON object", str(path), lineno)
            yield lineno, obj


class _Load:
    """The settings and tables of one ``load_dataset`` or ``import_dataset`` call.
    ``groups``: list key -> (line of its first row, results in input order).
    ``categories``: query -> (its category, the line that first gave it).
    ``resolved``: raw URL -> final URL; a URL that raised is not stored, so each
    of its lines reports the error. ``strings``: each kept text -> its one copy.
    ``built``: (final URL, title, snippet, rank) -> the one result built for it."""

    def __init__(
        self, path: Path, normalize: bool, redirect_cache: RedirectCache | None,
        strict: bool, expected_n: int | None,
    ):
        if expected_n is not None and expected_n < 1:
            raise ValidationError(f"expected_n must be >= 1, got {expected_n}")
        self.path = str(path)
        self.redirect_cache = redirect_cache
        self.normalize = normalize or redirect_cache is not None
        self.strict = strict and expected_n is not None  # only a given depth is enforced
        self.depth = expected_n  # None: each list's own distinct length
        self.groups: dict[tuple[str, str, dt.date], tuple[int, list[SearchResult]]] = {}
        self.categories: dict[str, tuple[str, int]] = {}
        self.resolved: dict[str, str] = {}
        self.strings: dict[str, str] = {}
        self.built: dict[tuple[str, str, str, int], SearchResult] = {}

    def result(self, url: str, title: str, snippet: str, rank: int, lineno: int) -> SearchResult:
        """A checked row's result, its URL normalized if asked. The rank is an int, so
        a ``built`` key equals a stored one only if the row passes the result's checks."""
        strings, built = self.strings, self.built
        try:
            if self.normalize:
                final = self.resolved.get(url)
                if final is None:
                    if self.redirect_cache is not None:
                        final = resolve_redirects(url, self.redirect_cache, "offline")
                    else:
                        final = canonicalize(url)
                    final = self.resolved[url] = strings.setdefault(final, final)
                url = final
            else:
                url = strings.setdefault(url, url)
            title = strings.setdefault(title, title)
            snippet = strings.setdefault(snippet, snippet)
            key = (url, title, snippet, rank)
            result = built.get(key)
            if result is None:
                result = built[key] = SearchResult(url, title, snippet, rank)
            return result
        except SerpSimError as exc:
            raise DatasetError(str(exc), self.path, lineno) from exc

    def category(self, query: str, category: str, lineno: int) -> None:
        """Record ``query``'s category; DatasetError if an earlier line gave another."""
        known = self.categories.get(query)
        if known is None:
            self.categories[query] = (category, lineno)
        elif known[0] != category:
            problem = f"query {query!r} has category {category!r}, but line {known[1]} gave"
            raise DatasetError(f"{problem} {known[0]!r}", self.path, lineno)

    def dataset(self) -> SerpDataset:
        """Dedup, truncate to ``depth`` (None: each list's own length) and re-rank."""
        records: dict[tuple[str, str, dt.date], RankedList] = {}
        for (engine, query, date), (lineno, results) in self.groups.items():
            n = len(results) if self.depth is None else self.depth
            try:
                records[(engine, query, date)] = validate_ranked_list(
                    results, n, engine=engine, query=query, date=date, strict=self.strict
                )
            except ValidationError as exc:
                raise DatasetError(str(exc), self.path, lineno) from exc
        labels = {query: category for query, (category, _) in self.categories.items()}
        return SerpDataset(records, labels)


def load_dataset(
    path: str | Path,
    *,
    normalize: bool = False,
    redirect_cache: RedirectCache | None = None,
    strict: bool = False,
    expected_n: int | None = None,
) -> SerpDataset:
    """Load a native JSON Lines dataset.

    ``normalize`` canonicalizes every URL before lists are validated, so
    near-duplicate URLs collapse; a ``redirect_cache`` implies it and
    also resolves redirects. When ``expected_n`` is not given, every
    list is truncated to the depth of the shortest list so all lists
    compare at equal length. Errors name the file and line.
    """
    path = Path(path)
    load = _Load(path, normalize, redirect_cache, strict, expected_n)
    where, groups = load.path, load.groups
    for lineno, obj in _rows(path):
        engine = _require(obj, "engine", str, where, lineno)
        query = _require(obj, "query", str, where, lineno)
        date = _parse_date(_require(obj, "date", str, where, lineno), where, lineno)
        raw = obj.get("results")
        if not isinstance(raw, list) or not raw:
            raise DatasetError("field 'results' must be a non-empty array", where, lineno)
        results: list[SearchResult] = []
        for item in raw:
            if type(item) is not dict:
                raise DatasetError("each result must be a JSON object", where, lineno)
            url = item.get("url")  # _require only to name what is wrong
            if type(url) is not str:
                url = _require(item, "url", str, where, lineno)
            rank = item.get("rank")
            if type(rank) is not int:
                rank = _require(item, "rank", int, where, lineno)
            title = item.get("title", "")
            snippet = item.get("snippet", "")
            if type(title) is not str or type(snippet) is not str:
                raise DatasetError("title and snippet must be strings", where, lineno)
            results.append(load.result(url, title, snippet, rank, lineno))
        if (engine, query, date) in groups:
            raise DatasetError(
                f"duplicate record for engine={engine!r} query={query!r} date={date}",
                where,
                lineno,
            )
        groups[(engine, query, date)] = (lineno, results)
        category = obj.get("category")
        if category is not None:
            if not isinstance(category, str):
                raise DatasetError("field 'category' must be a string", where, lineno)
            load.category(query, category, lineno)

    if not groups:
        raise DatasetError("dataset contains no records", where)
    return load.dataset() if expected_n is not None else _at_one_depth(load.dataset())[0]


class _Encoded(dict):
    """Text -> its JSON string literal, encoded by the stdlib on first use."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = json.dumps(text, ensure_ascii=False)
        return literal


def _json_lines(dataset: SerpDataset) -> Iterator[str]:
    """Each record as one canonical JSON line, as ``json.dumps`` with sorted keys,
    compact separators and ``ensure_ascii=False`` writes it; each distinct text
    is encoded once per call."""
    enc = _Encoded()
    for engine, query, date in dataset:
        ranked = dataset.get(engine, query, date)
        category = dataset.categories.get(query)
        head = "{" if category is None else f'{{"category":{enc[category]},'
        results = ",".join([
            f'{{"rank":{r.rank:d},"snippet":{enc[r.snippet]},'
            f'"title":{enc[r.title]},"url":{enc[r.url]}}}'
            for r in ranked.results
        ])
        yield (
            f'{head}"date":{enc[date.isoformat()]},"engine":{enc[engine]},'
            f'"query":{enc[query]},"results":[{results}]}}\n'
        )


def dumps_dataset(dataset: SerpDataset) -> str:
    """Serialize a dataset to canonical JSON Lines text."""
    return "".join(_json_lines(dataset)) or "\n"  # joined once: the output can be tens of MB


def write_dataset(dataset: SerpDataset, path: str | Path) -> None:
    Path(path).write_text(dumps_dataset(dataset), encoding="utf-8", newline="\n")


def _tsv_line(kind: str, *fields: str) -> str:
    """``fields`` as one TSV line; ValidationError naming a ``kind`` field that holds a
    tab or line break, which would split it."""
    for name in fields:
        if "\t" in name or "\r" in name or "\n" in name:
            raise ValidationError(f"{kind} {name!r} holds a tab or line break")
    return "\t".join(fields) + "\n"


def format_matrix(matrix: SimilarityMatrix) -> str:
    """Render a matrix as deterministic TSV text; ValidationError for a name it can't hold."""
    buf = io.StringIO()
    buf.write(_tsv_line("matrix engine", _MATRIX_PAIR_PREFIX, *matrix.engine_pair))
    buf.write(_tsv_line("matrix query", "date", *matrix.queries))
    for day, row in zip(matrix.days, matrix.values):
        cells = ["NA" if v is None else f"{v:.4f}" for v in row]
        buf.write(day.isoformat() + "\t" + "\t".join(cells) + "\n")
    return buf.getvalue()


def write_matrix(matrix: SimilarityMatrix, path: str | Path) -> None:
    Path(path).write_text(format_matrix(matrix), encoding="utf-8", newline="\n")


def parse_matrix(text: str, source: str = "<string>") -> SimilarityMatrix:
    """Parse :func:`format_matrix` text; only ``\\n``, ``\\r`` and ``\\r\\n`` end a line."""
    lines = _LINE_END.split(text)
    if not lines[-1]:
        del lines[-1]
    if not lines or not lines[0].startswith(_MATRIX_PAIR_PREFIX + "\t"):
        raise DatasetError(f"missing '{_MATRIX_PAIR_PREFIX}' header line", source, 1)
    pair_fields = lines[0].split("\t")
    if len(pair_fields) != 3:
        raise DatasetError("pair line must name exactly two engines", source, 1)
    engine_pair = (pair_fields[1], pair_fields[2])
    if len(lines) < 2:
        raise DatasetError("missing column header line", source, 2)
    header = lines[1].split("\t")
    if header[0] != "date":
        raise DatasetError("column header must start with 'date'", source, 2)
    queries = tuple(header[1:])
    if len(set(queries)) != len(queries):
        repeated = next(q for k, q in enumerate(queries) if q in queries[:k])
        raise DatasetError(f"repeated query {repeated!r}", source, 2)

    days: dict[dt.date, int] = {}  # each date -> its line
    values: list[tuple[float | None, ...]] = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(queries) + 1:
            raise DatasetError(
                f"expected {len(queries) + 1} columns, got {len(fields)}", source, lineno
            )
        day = _parse_date(fields[0], source, lineno)
        if day in days:
            raise DatasetError(f"repeated date {day}, first on line {days[day]}", source, lineno)
        days[day] = lineno
        row: list[float | None] = []
        for cell in fields[1:]:
            try:
                row.append(None if cell == "NA" else _unit_cell(float(cell)))
            except ValueError as exc:
                raise DatasetError(f"bad cell value {cell!r}", source, lineno) from exc
            except ValidationError as exc:
                raise DatasetError(str(exc), source, lineno) from exc
        values.append(tuple(row))
    return SimilarityMatrix(
        engine_pair=engine_pair, days=tuple(days), queries=queries, values=tuple(values)
    )


def read_matrix(path: str | Path) -> SimilarityMatrix:
    path = Path(path)
    return parse_matrix(path.read_text(encoding="utf-8"), str(path))


#: The fields an import mapping names; it may also give a "date_format".
_REQUIRED_FIELDS = ("engine", "query", "date", "rank", "url")
_MAPPED_FIELDS = _REQUIRED_FIELDS + ("title", "snippet", "category")


def _reader(
    spec: Any, field: str, path: str, text: bool = False
) -> Callable[[Mapping[str, Any], int], Any]:
    """A function of ``(row, lineno)`` that reads one field from a row, built once
    from its mapping spec, which ``import_dataset`` has checked: a source key, or
    {"const": value}. A ``text`` field that is not a str goes through ``_text``."""
    if isinstance(spec, dict):
        value = spec["const"]
        if text and type(value) is not str:
            return lambda row, lineno: _text(value, field, path, lineno)
        return lambda row, lineno: value

    def read(row: Mapping[str, Any], lineno: int) -> Any:
        try:
            value = row[spec]
        except KeyError:
            problem = f"source field {spec!r} (for {field!r}) not found"
            raise DatasetError(problem, path, lineno) from None
        return value if not text or type(value) is str else _text(value, field, path, lineno)

    return read


def _text(value: Any, field: str, path: str, lineno: int) -> str:
    """A mapped text field that is not a str: a number is written as text,
    null, an object or an array is refused."""
    if value is None or isinstance(value, (dict, list)):
        problem = f"must be a string or a number, got {type(value).__name__}"
        raise DatasetError(f"field {field!r} {problem}", path, lineno)
    return str(value)


def import_dataset(
    path: str | Path,
    mapping: Mapping[str, Any],
    *,
    normalize: bool = False,
    redirect_cache: RedirectCache | None = None,
    strict: bool = False,
    expected_n: int | None = None,
) -> SerpDataset:
    """Adapt a foreign flat JSON Lines file (one result per line).

    ``mapping`` names, for each of our fields, the source field to read
    (or a {"const": value} literal): required "engine", "query", "date",
    "rank", "url"; optional "title", "snippet", "category", and a
    "date_format" strptime pattern for non-ISO dates (each distinct date
    text is parsed once per call). Lists are grouped
    by (engine, query, date) and ranked by the mapped rank values; a
    rank must be a whole number, a URL a string, and the engine, query,
    title, snippet and category strings or numbers. URL normalization
    and redirect handling match :func:`load_dataset`, but the default
    depth is each list's own length. Errors name the file and line.
    """
    for key in mapping:
        if key not in _MAPPED_FIELDS and key != "date_format":
            known = ", ".join(_MAPPED_FIELDS + ("date_format",))
            raise ValidationError(f"import mapping has unknown field {key!r} (known: {known})")
    for required in _REQUIRED_FIELDS:
        if required not in mapping:
            raise ValidationError(f"import mapping lacks required field {required!r}")
    for field in _MAPPED_FIELDS:
        spec = mapping.get(field, "")  # an absent optional field has nothing to check
        if not isinstance(spec, str) and not (isinstance(spec, dict) and set(spec) == {"const"}):
            raise ValidationError(
                f"import mapping field {field!r} must be a source key or "
                f"{{\"const\": value}}, got {spec!r}"
            )
    date_format = mapping.get("date_format")
    if date_format is not None and not isinstance(date_format, str):
        raise ValidationError(
            f"import mapping field 'date_format' must be a string, "
            f"got {type(date_format).__name__}"
        )

    path = Path(path)
    load = _Load(path, normalize, redirect_cache, strict, expected_n)
    where, groups = load.path, load.groups
    read_date, read_rank, read_url = (
        _reader(mapping[field], field, where) for field in ("date", "rank", "url")
    )
    read_engine, read_query, read_title, read_snippet = (
        _reader(mapping.get(field, {"const": ""}), field, where, text=True)
        for field in ("engine", "query", "title", "snippet")
    )
    category_spec = mapping.get("category")
    read_category = (
        None if category_spec is None else _reader(category_spec, "category", where, text=True)
    )

    dates: dict[str, dt.date] = {}  # each date text parsed so far; a bad one is not stored
    for lineno, obj in _rows(path):
        engine = read_engine(obj, lineno)
        query = read_query(obj, lineno)
        raw_date = read_date(obj, lineno)
        date_text = str(raw_date)
        date = dates.get(date_text)
        if date is None:
            if date_format:
                try:
                    date = dt.datetime.strptime(date_text, date_format).date()
                except ValueError as exc:
                    raise DatasetError(f"bad date {raw_date!r}: {exc}", where, lineno) from exc
            else:
                date = _parse_date(date_text, where, lineno)
            dates[date_text] = date
        rank = read_rank(obj, lineno)
        if type(rank) is not int:
            if isinstance(rank, bool) or isinstance(rank, float) and not rank.is_integer():
                raise DatasetError(f"bad rank {rank!r}", where, lineno)
            try:
                rank = int(rank)
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"bad rank {rank!r}", where, lineno) from exc
        url = read_url(obj, lineno)
        if not isinstance(url, str):
            raise DatasetError(f"field 'url' must be str, got {type(url).__name__}", where, lineno)
        title = read_title(obj, lineno)
        snippet = read_snippet(obj, lineno)
        if read_category is not None:
            load.category(query, read_category(obj, lineno), lineno)
        result = load.result(url, title, snippet, rank, lineno)
        key = (engine, query, date)
        group = groups.get(key)
        if group is None:
            group = groups[key] = (lineno, [])
        group[1].append(result)

    if not groups:
        raise DatasetError("no records to import", where)
    return load.dataset()
