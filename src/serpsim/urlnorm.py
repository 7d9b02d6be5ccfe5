"""URL canonicalization and redirect resolution.

Two references to the same document should compare equal as plain
strings. Canonicalization applies conservative, content-preserving
rewrites; redirect resolution follows a recorded source->target cache
and, given a fetch, the 3xx chains of URLs the cache lacks, so that
variant URLs map to one final target.
"""

from __future__ import annotations

import codecs
import io
import ipaddress
import os
import re
import stat
import string
import sys
import unicodedata
import urllib.parse
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import DatasetError, RedirectError, SerpSimError, UrlParseError, ValidationError

DEFAULT_PORTS = {"http": 80, "https": 443, "ftp": 21, "ws": 80, "wss": 443}

# RFC 3986 unreserved characters: safe to percent-decode everywhere.
_UNRESERVED = set(string.ascii_letters + string.digits + "-._~")
_ESCAPE = re.compile("%([0-9A-Fa-f]{2})")

# RFC 3986 Appendix B, with the scheme rule urlsplit applies (an ASCII
# letter, then letters, digits, "+", "-" or "."): scheme, authority, path
# and query; the fragment is whatever follows and is dropped.
_SPLIT = re.compile(r"(?:([A-Za-z][A-Za-z0-9+.-]*):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?")
# A URL none of _split's checks can touch, in one match: printable ASCII with
# no whitespace, a scheme, an ASCII host with no userinfo or brackets, an
# optional digit port and a path that is empty or rooted. Groups: scheme,
# host, port, path and query.
_PLAIN = re.compile(
    r"([A-Za-z][A-Za-z0-9+.-]*)://([!\"$-.0-9;->A-Z\\^-~]+)(?::([0-9]+))?"
    r"(/[!\"$->@-~]*)?(?:\?([!\"$-~]*))?(?:#[!-~]*)?"
)
# what urlsplit strips from the front (WHATWG C0 control or space) and removes anywhere
_C0_CONTROL_OR_SPACE = "".join(map(chr, range(0x21)))
_IPV_FUTURE = re.compile(r"v[0-9A-Fa-f]+\..+")
_SPACE = re.compile(r"\s")  # the same code points as str.isspace()
_USES_NETLOC = frozenset(urllib.parse.uses_netloc)
# written by _mark_bad_bytes in front of each bad UTF-8 sequence: neither valid UTF-8
# nor surrogateescape (U+DC80-U+DCFF) decodes to it
_BAD = "\udc00"

#: (status, location) returned by a fetch callable; location is None unless redirected.
Fetch = Callable[[str], tuple[int, str | None]]


def _mark_bad_bytes(exc: UnicodeDecodeError) -> tuple[str, int]:
    """The decode error handler of :func:`_lines`: ``_BAD``, then the bad bytes as
    ``surrogateescape`` keeps them (U+DC80-U+DCFF)."""
    return _BAD + exc.object[exc.start : exc.end].decode("ascii", "surrogateescape"), exc.end


codecs.register_error("serpsim.mark", _mark_bad_bytes)


def _lines(stream: BinaryIO, source: str) -> Iterator[str]:
    """The lines of UTF-8 ``stream``, any byte-order mark dropped. Only ``\\n``, ``\\r``
    and ``\\r\\n`` end a line, and each line keeps its end. A line with a bad byte is a
    DatasetError at ``source:line``, raised only after every line before it is yielded,
    so a reader that checks each line reports the first bad line. Every input file,
    standard input and the bundled stopwords are decoded here, and ``stream`` is left
    open."""
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", errors="serpsim.mark", newline="")
    try:
        for lineno, line in enumerate(text, start=1):
            if _BAD in line:  # decoded again without the marks, for the decoder's reason
                try:
                    line.replace(_BAD, "").encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:  # always: marked bytes are not UTF-8
                    raise DatasetError(f"invalid UTF-8: {exc.reason}", source, lineno) from exc
            yield line
    finally:
        text.detach()  # collecting an attached wrapper would close stream


def _text_lines(path: str | Path) -> Iterator[str]:
    """The lines of the UTF-8 file at ``path``, read by :func:`_lines`."""
    with open(path, "rb") as stream:
        yield from _lines(stream, str(path))


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each of ``lines`` (those of :func:`_lines`) that is
    neither blank nor a ``#`` comment, its line end dropped."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line.rstrip("\r\n")


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; every writer writes here. A target that is the
    file standard output or standard error writes to (``/dev/stdout``) is written through
    that stream, so a shell's ``>> log`` keeps its earlier lines. The encoded text replaces
    any other regular file (through a symlink too) from a complete temporary file, so a
    failure leaves its old bytes; any other file, such as a device or FIFO, is written in place."""
    data = text.encode("utf-8")
    try:  # any error but a missing target is the one an in-place write would meet
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    for std in (sys.stdout, sys.stderr):
        try:
            same = info is not None and os.path.samestat(info, os.fstat(std.fileno()))
        except (AttributeError, OSError, ValueError):  # no descriptor, as under capture
            same = False
        if same:
            std.flush()
            std.buffer.write(data)
            std.buffer.flush()
            return
    mode = None if info is None else info.st_mode
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as stream:
            stream.write(data)
        return
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:  # before the cleanup below: a name already taken is not ours to remove
        stream = open(temp, "xb")
    except OSError as exc:  # named by the target, as an in-place write would be
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with stream:
            stream.write(data)
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        temp.unlink()
        raise


def _normalize_escape(match: re.Match) -> str:
    decoded = chr(int(match[1], 16))
    return decoded if decoded in _UNRESERVED else "%" + match[1].upper()


def _normalize_percent(component: str) -> str:
    """Decode unreserved %XX escapes and uppercase the hex of the rest, until
    stable: a decoded character can complete a new escape ("%%6141" -> "%A41")."""
    while "%" in component:
        normalized = _ESCAPE.sub(_normalize_escape, component)
        if normalized == component:
            break
        component = normalized
    return component


def _remove_dot_segments(path: str) -> str:
    """Resolve '.' and '..' segments in an absolute path."""
    # A dot segment of a rooted path follows a '/', so without "/." there is none.
    if not path.startswith("/") or "/." not in path:
        return path
    stack: list[str] = []
    for segment in path.split("/")[1:]:
        if segment == ".":
            continue
        if segment == "..":
            if stack:
                stack.pop()
            continue
        stack.append(segment)
    return "/" + "/".join(stack)


def _check_netloc(netloc: str, url: str) -> None:
    """The netloc checks urlsplit makes: balanced brackets around an IPv6 or
    IPvFuture host, and no delimiter hidden in a character NFKC expands."""
    if ("[" in netloc) != ("]" in netloc):
        raise UrlParseError(url, "unbalanced brackets in host")
    if "[" in netloc:
        host = netloc.partition("[")[2].partition("]")[0]
        if host.startswith("v"):
            if not _IPV_FUTURE.fullmatch(host):
                raise UrlParseError(url, f"invalid IPvFuture host {host!r}")
        else:
            try:
                ipaddress.IPv6Address(host)
            except ValueError as exc:
                raise UrlParseError(url, f"bracketed host is not IPv6: {exc}") from exc
    if not netloc.isascii():
        bare = netloc.replace("@", "").replace(":", "").replace("#", "").replace("?", "")
        expanded = unicodedata.normalize("NFKC", bare)
        if expanded != bare and any(c in expanded for c in "/?#@:"):
            raise UrlParseError(url, f"netloc {netloc!r} holds a delimiter under NFKC")


def _split(url: str) -> tuple[str, str, str, str]:
    """Split a URL into (scheme, netloc, path, query) as urlsplit does, with
    its checks: leading C0 controls and spaces go, so do tabs and newlines."""
    text = url.strip().lstrip(_C0_CONTROL_OR_SPACE)
    text = text.replace("\t", "").replace("\r", "").replace("\n", "")
    scheme, netloc, path, query = _SPLIT.match(text).groups()
    if netloc:
        _check_netloc(netloc, url)
    return scheme or "", netloc or "", path, query or ""


def _split_netloc(netloc: str, url: str) -> tuple[str, str, str]:
    """Split netloc into (userinfo, host, port-string); validates the port."""
    userinfo, sep, hostport = netloc.rpartition("@")
    if hostport.startswith("["):
        close = hostport.find("]")
        if close == -1:
            raise UrlParseError(url, "unterminated IPv6 host")
        host = hostport[: close + 1]
        rest = hostport[close + 1 :]
    else:
        host, _, rest = hostport.partition(":")
        rest = ":" + rest if rest or hostport.endswith(":") else ""
    port = ""
    if rest:
        if not rest.startswith(":"):
            raise UrlParseError(url, f"malformed host/port {hostport!r}")
        port = rest[1:]
        # ASCII only: isdigit() also accepts other Unicode digits, such as '²'
        if port and not (port.isascii() and port.isdigit()):
            raise UrlParseError(url, f"invalid port {port!r}")
    return userinfo, host, port


def canonicalize(url: str, *, sort_query: bool = False, strip_www: bool = False) -> str:
    """Return the canonical form of an absolute URL.

    - scheme and host lowercased
    - default port removed
    - fragment removed
    - %XX escapes: unreserved characters decoded, others uppercased
    - dot-segments in the path resolved
    - trailing slash on non-root paths removed; empty path becomes "/"
    - query-parameter order preserved (``sort_query=True`` to sort)
    - the result is its own canonical form

    ``strip_www`` additionally drops every leading "www." host label; it
    is off by default because it is not universally content-preserving.
    """
    canonical = _canonicalize_once(url, sort_query, strip_www)
    # whitespace the rewrites left at the end (before a dropped fragment or
    # a removed slash) is only stripped by another pass
    while canonical != canonical.rstrip():
        canonical = _canonicalize_once(canonical, sort_query, strip_www)
    return canonical


def _canonicalize_once(url: str, sort_query: bool, strip_www: bool) -> str:
    plain = _PLAIN.fullmatch(url) if isinstance(url, str) else None
    if plain:
        scheme, host, port, path, query = plain.groups("")
        userinfo = ""
    else:
        if not isinstance(url, str) or not url.strip():
            raise UrlParseError(str(url), "empty input")
        scheme, netloc, path, query = _split(url)
        if not scheme:
            raise UrlParseError(url, "missing scheme (not an absolute URL)")
        # host None: the URL has no authority
        userinfo, host, port = _split_netloc(netloc, url) if netloc else ("", None, "")
    scheme = scheme.lower()

    netloc = ""
    if host is not None:
        host = host.lower()
        if _SPACE.search(host):
            raise UrlParseError(url, f"whitespace in host {host!r}")
        while strip_www and host.startswith("www."):
            host = host[4:]
        if not host:
            raise UrlParseError(url, "empty host")
        new_netloc = host
        if port:
            # the port's decimal value, without int() and its 4300-digit limit
            port = port.lstrip("0") or "0"
            if port != str(DEFAULT_PORTS.get(scheme)):
                new_netloc += f":{port}"
        if userinfo:
            new_netloc = _normalize_percent(userinfo) + "@" + new_netloc
        netloc = new_netloc
    elif scheme in ("http", "https"):
        raise UrlParseError(url, "http(s) URL without a host")

    # "//" (and a rooted path) for a scheme that takes a host, even an empty one
    takes_authority = bool(netloc) or scheme in _USES_NETLOC
    path = _normalize_percent(path)
    if takes_authority and path and not path.startswith("/"):
        path = "/" + path
    path = _remove_dot_segments(path)
    if netloc and not path:
        path = "/"
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/") or "/"

    query = _normalize_percent(query)
    if sort_query and query:
        query = "&".join(sorted(query.split("&")))

    # a path starting "//" needs an authority, or it would read back as a host
    authority = f"//{netloc}" if takes_authority or path.startswith("//") else ""
    return f"{scheme}:{authority}{path}" + (f"?{query}" if query else "")


class RedirectCache:
    """Mapping from source URL to final redirect target.

    Both keys and values are stored in canonical form; a later entry for
    the same source replaces an earlier one.
    """

    def __init__(self, entries: dict[str, str] | None = None):
        self._entries: dict[str, str] = {}
        if entries:
            for source, target in entries.items():
                self.put(source, target)

    def get(self, url: str) -> str | None:
        return self._entries.get(url)

    def put(self, source: str, target: str) -> None:
        self._entries[canonicalize(source)] = canonicalize(target)

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "RedirectCache":
        """Load a cache from a UTF-8 file of "source<TAB>target" lines."""
        cache = cls()
        for lineno, line in _data_lines(_text_lines(path)):
            fields = line.split("\t")
            try:
                if len(fields) != 2:
                    raise ValidationError(f"expected 'source<TAB>target', got {line!r}")
                cache.put(fields[0].strip(), fields[1].strip())
            except SerpSimError as exc:
                raise DatasetError(str(exc), str(path), lineno) from exc
        return cache

    def save(self, path: str | Path) -> None:
        lines = [f"{src}\t{dst}\n" for src, dst in sorted(self._entries.items())]
        _write_text(path, "".join(lines))


def default_fetch(url: str, timeout: float = 10.0) -> tuple[int, str | None]:
    """HEAD the URL (GET on 405) and report (status, Location header).

    The HTTP stack is imported here, on the first fetch, so that offline
    commands never load it."""
    import http.client
    import urllib.error
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args, **kwargs):  # noqa: D102 - stdlib override
            return None

    opener = urllib.request.build_opener(NoRedirect)
    try:
        for method in ("HEAD", "GET"):
            request = urllib.request.Request(url, method=method)
            try:
                with opener.open(request, timeout=timeout) as response:
                    status, location = response.status, response.headers.get("Location")
            except urllib.error.HTTPError as exc:
                status, location = exc.code, exc.headers.get("Location") if exc.headers else None
            if status != 405:
                break
        return status, location
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise RedirectError(f"network failure fetching {url}: {exc}") from exc


def _follow_cache(
    url: str, cache: RedirectCache, max_hops: int = 10, fetch: Fetch | None = None
) -> str:
    """Walk the redirect chain from an already canonical URL, at most ``max_hops`` hops.
    Each hop is the cache's entry, or, when it has none and ``fetch`` is given, the
    fetched 3xx's ``Location``. A cached entry that maps a URL to itself ends the
    chain; a fetched one is a loop. With ``fetch``, every URL of the resolved chain is
    recorded in the cache against the chain's end."""
    chain = [url]
    while True:
        current = chain[-1]
        target = cache.get(current)
        if target is None and fetch is not None:
            status, location = fetch(current)
            if 300 <= status < 400 and location:
                target = canonicalize(urllib.parse.urljoin(current, location))
        elif target == current:
            target = None
        if target is None:
            if fetch is not None:
                for source in chain:
                    cache.put(source, current)
            return current
        if target in chain:
            loop = "redirect loop" if fetch is not None else "redirect loop in cache"
            raise RedirectError(loop, tuple(chain + [target]))
        chain.append(target)
        if len(chain) > max_hops + 1:
            raise RedirectError(f"hop limit {max_hops} exceeded", tuple(chain))


def resolve_redirects(
    url: str, cache: RedirectCache, *, max_hops: int = 10, fetch: Fetch | None = None
) -> str:
    """Canonicalize a URL and resolve it to its final redirect target by
    :func:`_follow_cache`: from ``cache`` alone, or online when ``fetch`` is given
    (``default_fetch`` for real HTTP), never silently swallowing a network failure."""
    return _follow_cache(canonicalize(url), cache, max_hops, fetch)
