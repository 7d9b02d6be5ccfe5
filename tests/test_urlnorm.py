import codecs
import errno
import http.server
import io
import ipaddress
import os
import re
import stat
import tempfile
import threading
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from serpsim import (
    DatasetError,
    RedirectCache,
    RedirectError,
    UrlParseError,
    canonicalize,
    resolve_redirects,
)
from serpsim import urlnorm
from serpsim.urlnorm import (
    DEFAULT_PORTS,
    _lines,
    _normalize_percent,
    _remove_dot_segments,
    _split_netloc,
    _text_lines,
    _write_text,
    default_fetch,
)


def _urls(authorities: list[str]) -> st.SearchStrategy[str]:
    """Messy URLs: a scheme, one of ``authorities`` and a random path, query and fragment."""
    return st.builds(
        "{}:{}{}".format,
        st.sampled_from(["http", "HTTPS", "ftp", "file", "mailto", "x"]),
        st.sampled_from(authorities),
        st.text(alphabet="aZ09-._~%/?#:@!$&'()*+,;=[] \t\xa0\x1cé", max_size=24),
    )


# -- reference: canonicalize as it was when it split with urllib.parse.urlsplit --


def _reference_canonicalize(url, *, sort_query=False, strip_www=False):
    canonical = _reference_canonicalize_once(url, sort_query, strip_www)
    while canonical != canonical.rstrip():
        canonical = _reference_canonicalize_once(canonical, sort_query, strip_www)
    return canonical


def _reference_canonicalize_once(url, sort_query, strip_www):
    if not isinstance(url, str) or not url.strip():
        raise UrlParseError(str(url), "empty input")
    try:
        parts = urllib.parse.urlsplit(url.strip())
    except ValueError as exc:
        raise UrlParseError(url, str(exc)) from exc

    scheme = parts.scheme.lower()
    if not scheme:
        raise UrlParseError(url, "missing scheme (not an absolute URL)")

    netloc = parts.netloc
    if netloc:
        userinfo, host, port = _split_netloc(netloc, url)
        host = host.lower()
        if any(ch.isspace() for ch in host):
            raise UrlParseError(url, f"whitespace in host {host!r}")
        while strip_www and host.startswith("www."):
            host = host[4:]
        if not host:
            raise UrlParseError(url, "empty host")
        new_netloc = host
        if port:
            port = port.lstrip("0") or "0"
            if port != str(DEFAULT_PORTS.get(scheme)):
                new_netloc += f":{port}"
        if userinfo:
            new_netloc = _normalize_percent(userinfo) + "@" + new_netloc
        netloc = new_netloc
    elif scheme in ("http", "https"):
        raise UrlParseError(url, "http(s) URL without a host")

    takes_authority = bool(netloc) or scheme in urllib.parse.uses_netloc
    path = _normalize_percent(parts.path)
    if takes_authority and path and not path.startswith("/"):
        path = "/" + path
    path = _reference_remove_dot_segments(path)
    if netloc and not path:
        path = "/"
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/") or "/"

    query = _normalize_percent(parts.query)
    if sort_query and query:
        query = "&".join(sorted(query.split("&")))

    authority = f"//{netloc}" if takes_authority or path.startswith("//") else ""
    return f"{scheme}:{authority}{path}" + (f"?{query}" if query else "")


def _reference_remove_dot_segments(path):
    """Dot-segment removal that splits and rejoins every rooted path, with no shortcut."""
    if not path.startswith("/"):
        return path
    stack = []
    for segment in path.split("/")[1:]:
        if segment == ".":
            continue
        if segment == "..":
            if stack:
                stack.pop()
            continue
        stack.append(segment)
    return "/" + "/".join(stack)


def _urlsplit_rejects(url):
    try:
        urllib.parse.urlsplit(url)
    except ValueError:
        return True
    return False


# The urlsplit of Python 3.11.7-3.13.0 checks a bracketed host and wants a
# scheme to start with a letter; that of 3.10.13 does neither.
URLSPLIT_CHECKS_BRACKETED_HOST = _urlsplit_rejects("http://[zz]/")
URLSPLIT_WANTS_LETTER_FIRST = urllib.parse.urlsplit("1a:b").scheme == ""


def _bracketed_non_ip_host(url):
    """The bracketed host of ``url``, if it is neither IPv6 nor IPvFuture."""
    netloc = urllib.parse.urlsplit(url.strip()).netloc
    if "[" not in netloc:
        return None
    host = netloc.partition("[")[2].partition("]")[0]
    if host.startswith("v"):
        return None if re.fullmatch(r"v[0-9A-Fa-f]+\..+", host) else host
    try:
        ipaddress.IPv6Address(host)
    except ValueError:
        return host
    return None


def _allowed_difference(url, expected, actual):
    """Name the known reason ``canonicalize`` may reject a URL the reference
    accepts on this interpreter, citing the part of ``url`` it concerns; else None."""
    if expected[0] != "ok" or actual[0] != "error":
        return None
    if not URLSPLIT_CHECKS_BRACKETED_HOST:
        host = _bracketed_non_ip_host(url)
        if host is not None:
            return f"bracketed non-IP host {host!r}, which this urlsplit does not check"
    if not URLSPLIT_WANTS_LETTER_FIRST:
        scheme = urllib.parse.urlsplit(url.strip()).scheme
        if scheme and not scheme[0].isalpha():
            return f"scheme {scheme!r} starts with a non-letter, which this urlsplit allows"
    return None


def _outcome(function, url, **options):
    try:
        return ("ok", function(url, **options))
    except UrlParseError:
        return ("error",)


@st.composite
def _differential_urls(draw):
    """Messy URLs built from parts: C0 controls and spaces in front, then a
    scheme with or without "//", userinfo, host (bracketed or not) and port,
    dot segments and escapes, a query and a fragment, with tabs, newlines,
    other controls and delimiters inserted anywhere."""
    url = draw(st.sampled_from(
        ["http:", "HTTPS:", "ftp:", "file:", "x:", "a+b.c-d:", "1a:", "+x:", ""]
    ))
    if draw(st.integers(0, 3)):
        url += "//" + draw(st.sampled_from(["", "", "u@", "U:p%41@", "a@b@", "[x@", "]@", "%7e@"]))
        url += draw(st.sampled_from([
            "Ex.COM", "www.A", "", "[::1]", "[2001:DB8::1]", "[zz]", "[v1.x]", "[v1]",
            "[1.2.3.4]", "[fe80::1%25eth0]", "[::1", "a]", "x[::1]", "a\u2100b", "\u00e9.com",
            "a b", "a\xa0b", "a\u3000b", "a\x1cb",
        ]))
        url += draw(st.sampled_from(["", "", ":", ":80", ":0443", ":8080", ":x", ":\u00b2"]))
    segments = draw(st.lists(st.sampled_from([
        ".", "..", "a", "B", "%41", "%%41", "%%6141", "%2e", "%2E%2e", "%7e", "%zz", "%",
        "%4", "", " ", "a b", "\u00e9",
    ]), max_size=5))
    url += draw(st.sampled_from(["/", ""])) + "/".join(segments)
    url += draw(st.sampled_from(["", "?", "?b=2&a=%41", "?q=%%6141&", "?a b", "?x#y"]))
    url += draw(st.sampled_from(["", "#", "#f", "#a?b/c", "# "]))
    inserted = draw(st.lists(st.sampled_from("\t\r\n"), max_size=2))
    inserted += draw(st.lists(st.sampled_from("\x00\x01\x1f \x0b\xa0:/?#[]@%"), max_size=2))
    for char in inserted:
        at = draw(st.integers(0, len(url)))
        url = url[:at] + char + url[at:]
    return draw(st.text(alphabet="\x00\x01\x08\x1f \t", max_size=3)) + url


class TestSplitMatchesUrlsplit:
    """``canonicalize`` splits URLs itself; it must agree with the reference."""

    @settings(max_examples=1000, deadline=None)
    @given(url=_differential_urls(), sort_query=st.booleans(), strip_www=st.booleans())
    @example(url="http://[zz]/a", sort_query=False, strip_www=False)
    @example(url="1a://b/c", sort_query=False, strip_www=False)
    # near misses of the one-match split of plain URLs
    @example(url="http://a.com:80x", sort_query=False, strip_www=False)
    @example(url="http://a.com:/x", sort_query=False, strip_www=False)
    @example(url="http://a.com:", sort_query=False, strip_www=False)
    @example(url="http://u@a.com/x", sort_query=False, strip_www=False)
    @example(url="http://a.com/x@y", sort_query=False, strip_www=False)
    @example(url="http://[::1]:80/x", sort_query=False, strip_www=False)
    @example(url="http://a.com/[x]", sort_query=False, strip_www=False)
    @example(url="http://a.com/x\ty", sort_query=False, strip_www=False)
    @example(url="http://a.com/x y", sort_query=False, strip_www=False)
    @example(url="http://a.com/x ", sort_query=False, strip_www=False)
    @example(url="http://\u00e9.com/x", sort_query=False, strip_www=False)
    @example(url="http://a.com/\u00e9", sort_query=False, strip_www=False)
    @example(url="http://a.com/%2e/x", sort_query=False, strip_www=False)
    @example(url="http://a.com/a/%2E%2e/b/", sort_query=False, strip_www=False)
    @example(url="http://WWW.a.com:0080/x?b=1&a=2#f", sort_query=True, strip_www=True)
    @example(url="http://www./x", sort_query=False, strip_www=True)
    @example(url="http:a.com/x", sort_query=False, strip_www=False)
    def test_matches_urlsplit_reference(self, url, sort_query, strip_www):
        options = {"sort_query": sort_query, "strip_www": strip_www}
        expected = _outcome(_reference_canonicalize, url, **options)
        actual = _outcome(canonicalize, url, **options)
        if actual != expected:
            allowance = _allowed_difference(url, expected, actual)
            assert allowance is not None, f"{url!r}: reference {expected}, got {actual}"
            note(f"allowed: {allowance}")


class TestRemoveDotSegments:
    @settings(max_examples=1000, deadline=None)
    @given(
        path=st.one_of(
            st.builds(
                "{}{}{}".format,
                st.sampled_from(["/", "", "//"]),
                st.lists(
                    st.sampled_from([".", "..", "", "a", ".x", "..x", "x.", ".x/", "%2e"]),
                    max_size=6,
                ).map("/".join),
                st.sampled_from(["", "/", "/.", "/..", "."]),
            ),
            st.text(alphabet="/.a", max_size=12),
        )
    )
    @example(path="/a/b/.")
    @example(path="a/./b")
    def test_matches_split_join_reference(self, path):
        assert _remove_dot_segments(path) == _reference_remove_dot_segments(path)


class TestCanonicalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("HTTP://Example.COM:80/a/./b/#frag", "http://example.com/a/b"),
            ("https://example.com/a/%7euser", "https://example.com/a/~user"),
            ("https://example.com", "https://example.com/"),
            ("https://example.com:443/x", "https://example.com/x"),
            ("https://example.com:8443/x", "https://example.com:8443/x"),
            ("http://example.com/a/b/../c", "http://example.com/a/c"),
            ("http://example.com/a//b", "http://example.com/a//b"),
            ("http://example.com/%41%2Fb", "http://example.com/A%2Fb"),
            ("http://example.com/%2fx", "http://example.com/%2Fx"),
            ("http://example.com/a%", "http://example.com/a%"),
            ("http://example.com/a?b=2&a=1#x", "http://example.com/a?b=2&a=1"),
            ("http://user:pw@example.com/x", "http://user:pw@example.com/x"),
            ("http://[2001:DB8::1]:80/x", "http://[2001:db8::1]/x"),
            ("ftp://Example.com:21/pub/", "ftp://example.com/pub"),
            ("  http://example.com/x  ", "http://example.com/x"),
            ("http://example.com/%%41", "http://example.com/%A"),
            ("http://example.com/%4", "http://example.com/%4"),
            ("http://example.com/%zz", "http://example.com/%zz"),
            ("\x01http://a/b", "http://a/b"),
        ],
    )
    def test_rewrites(self, raw, expected):
        assert canonicalize(raw) == expected

    def test_idempotent_on_examples(self):
        raw = "HTTP://User@Example.COM:8080/a/../b/%7e?q=%41#f"
        once = canonicalize(raw)
        assert canonicalize(once) == once

    @pytest.mark.parametrize(
        "raw,expected",
        [
            # a decoded character completes a new escape with the '%' before it
            ("http://example.com/%%6141", "http://example.com/%A41"),
            # whitespace left at the end once the fragment or a slash is gone
            ("http://example.com/a #f", "http://example.com/a"),
            ("http://example.com/a /", "http://example.com/a"),
            # an empty authority stays written, so the path never reads as a host
            ("ftp:////a", "ftp:////a"),
            ("x:/.//a", "x:////a"),
            ("ftp:.", "ftp:///"),
        ],
    )
    def test_result_is_already_canonical(self, raw, expected):
        assert canonicalize(raw) == expected
        assert canonicalize(expected) == expected

    @settings(max_examples=1000, deadline=None)
    @given(url=_urls(["", "//", "//Ex.COM", "//u%41@[::1]:80", "//www.a:08080"]))
    def test_idempotent(self, url):
        try:
            once = canonicalize(url)
        except UrlParseError:
            return
        assert canonicalize(once) == once

    @settings(max_examples=1000, deadline=None)
    @given(url=_urls(["", "//", "//Ex.COM", "//www.a:08080", "//WWW.www.a", "//www.Www.", "//www"]))
    def test_idempotent_with_options(self, url):
        options = {"sort_query": True, "strip_www": True}
        try:
            once = canonicalize(url, **options)
        except UrlParseError:
            return
        assert canonicalize(once, **options) == once

    def test_sort_query_flag(self):
        url = "http://example.com/a?b=2&a=1"
        assert canonicalize(url) == "http://example.com/a?b=2&a=1"
        assert canonicalize(url, sort_query=True) == "http://example.com/a?a=1&b=2"

    def test_strip_www_flag(self):
        url = "http://www.example.com/x"
        assert canonicalize(url) == "http://www.example.com/x"
        assert canonicalize(url, strip_www=True) == "http://example.com/x"
        assert canonicalize("http://WWW.www.example.com/x", strip_www=True) == "http://example.com/x"

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "example.com/no-scheme", "http:///nohost", "http://exa mple.com/x",
         "http://example.com:notaport/x", "http://[zz]/a", "http://[::1/a", "http://a\u2100b/x"],
    )
    def test_rejects_unusable(self, bad):
        with pytest.raises(UrlParseError):
            canonicalize(bad)

    @pytest.mark.parametrize(
        "port",
        ["\u00b2", "\u0661\u0662", "8\uff10"],
        ids=["superscript", "arabic-indic", "fullwidth"],
    )
    def test_non_ascii_port_digits_rejected(self, port):
        with pytest.raises(UrlParseError, match="invalid port"):
            canonicalize(f"http://example.com:{port}/x")

    def test_port_longer_than_int_digit_limit(self):
        port = "9" * 5000
        assert canonicalize(f"http://example.com:000{port}/x") == f"http://example.com:{port}/x"

    def test_error_carries_url(self):
        with pytest.raises(UrlParseError) as exc_info:
            canonicalize("no-scheme-here")
        assert "no-scheme-here" in str(exc_info.value)


class TestRedirectCache:
    def test_put_get_canonicalizes(self):
        cache = RedirectCache()
        cache.put("HTTP://Example.com:80/old", "https://example.com/new/")
        assert cache.get("http://example.com/old") == "https://example.com/new"
        assert len(cache) == 1

    def test_round_trip(self, tmp_path):
        cache = RedirectCache()
        cache.put("http://a.example.com/x", "http://b.example.com/y")
        cache.put("http://c.example.com/", "http://d.example.com/")
        path = tmp_path / "redirects.tsv"
        cache.save(path)
        loaded = RedirectCache.from_file(path)
        assert loaded.get("http://a.example.com/x") == "http://b.example.com/y"
        assert len(loaded) == 2

    @pytest.mark.parametrize("char", ["\u2028", "\x85", "\x0b", "\x1c"])
    def test_round_trip_keeps_unicode_line_breaks_in_urls(self, tmp_path, char):
        source, target = f"http://a.com/x{char}y", f"http://b.com/{char}"
        cache = RedirectCache()
        cache.put(source, target)
        path = tmp_path / "redirects.tsv"
        cache.save(path)
        loaded = RedirectCache.from_file(path)
        assert len(loaded) == 1
        assert loaded.get(canonicalize(source)) == canonicalize(target)

    def test_lines_end_at_cr_and_crlf(self, tmp_path):
        path = tmp_path / "redirects.tsv"
        path.write_bytes(b"http://a.com/\thttp://b.com/\r\nhttp://c.com/\thttp://d.com/\rbroken\n")
        with pytest.raises(DatasetError, match=r"redirects\.tsv:3: .*'broken'"):
            RedirectCache.from_file(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("http://a.example.com/\thttp://b.example.com/\nbroken line\n")
        with pytest.raises(DatasetError, match=r"bad\.tsv:2"):
            RedirectCache.from_file(path)

    def test_unparseable_source_names_its_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# comment\nnot a url\thttp://b.example.com/\n")
        with pytest.raises(DatasetError) as info:
            RedirectCache.from_file(path)
        assert str(info.value) == (
            f"{path}:2: cannot canonicalize 'not a url': missing scheme (not an absolute URL)"
        )

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("# comment\n\nhttp://a.example.com/\thttp://b.example.com/\n")
        assert len(RedirectCache.from_file(path)) == 1


# a character a line may hold: any but a line end or a lone surrogate, often one that
# str.splitlines() would end a line at
_LINE_CHAR = st.one_of(
    st.sampled_from("\u2028\x85\t#a"),
    st.characters(exclude_categories=["Cs"], exclude_characters="\r\n"),
)
_INVALID = [b"\xff", b"\xc3(", b"\xed\xa0\x80"]  # a lone byte, a bad continuation, a surrogate
_TRUNCATED = "€".encode()[:2]  # a multibyte sequence the end of the file cuts short


@st.composite
def _files_with_one_bad_sequence(draw):
    """``(clean bytes, the same with one invalid sequence, its line)``. No line is empty,
    so a ``\\r`` end is never followed by a ``\\n`` that would make it ``\\r\\n``."""
    lines = draw(st.lists(st.text(_LINE_CHAR, min_size=1, max_size=6), min_size=1, max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    mark = draw(st.sampled_from([b"", codecs.BOM_UTF8]))
    truncated = draw(st.booleans())
    if truncated:
        ends[-1] = ""  # the bad sequence is the last thing in the file
    k = len(lines) if truncated else draw(st.integers(1, len(lines)))
    line_start = sum(len(line + end) for line, end in zip(lines[: k - 1], ends))
    at = len(lines[k - 1]) if truncated else draw(st.integers(0, len(lines[k - 1])))
    text = "".join(line + end for line, end in zip(lines, ends))
    head, tail = text[: line_start + at].encode(), text[line_start + at :].encode()
    bad = _TRUNCATED if truncated else draw(st.sampled_from(_INVALID))
    return mark + head + tail, mark + head + bad + tail, k


class _Pipe(io.RawIOBase):
    """``data`` read as from a pipe: it cannot seek, and each read returns at most
    ``size`` bytes, so a read can end inside a line end or a multibyte sequence."""

    def __init__(self, data: bytes, size: int):
        self._data, self._size = io.BytesIO(data), size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self._data.read(min(len(buffer), self._size))
        buffer[: len(chunk)] = chunk
        return len(chunk)


_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)")  # a complete line, with its end


class TestReadText:
    @settings(max_examples=1000, deadline=None)
    @given(_files_with_one_bad_sequence(), st.integers(1, 4))
    def test_bad_sequence_names_its_line(self, files, size):
        clean, bad, k = files
        text = clean.decode("utf-8-sig")
        with pytest.raises(UnicodeDecodeError) as whole:
            bad.decode("utf-8-sig")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_bytes(clean)
            assert "".join(_text_lines(path)) == text
            assert "".join(_lines(_Pipe(clean, size), "<pipe>")) == text
            path.write_bytes(bad)
            reads = {str(path): lambda: _text_lines(path),
                     "<pipe>": lambda: _lines(_Pipe(bad, size), "<pipe>")}
            for source, read in reads.items():
                streamed = []
                with pytest.raises(DatasetError) as info:
                    streamed.extend(read())
                assert (info.value.path, info.value.line) == (source, k)
                assert str(info.value) == f"{source}:{k}: invalid UTF-8: {whole.value.reason}"
                # every line before the bad one was streamed first
                assert streamed == _LINE.findall(text)[: k - 1]


class _FailingWriter:
    """A file that writes part of its first ``write`` and then fails, as a full disk does."""

    def __init__(self, stream):
        self.stream = stream

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stream.close()

    def write(self, data):
        self.stream.write(data[:3])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestWriteText:
    def test_failed_write_leaves_the_old_bytes_and_no_stray_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.tsv"
        target.write_bytes(b"old bytes\n")
        opened = []

        def failing_open(*args, **kwargs):
            opened.append(args)
            return _FailingWriter(open(*args, **kwargs))

        monkeypatch.setattr(urlnorm, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            _write_text(target, "new text\n")
        assert opened  # the write did fail inside the writer
        assert target.read_bytes() == b"old bytes\n"
        assert [path.name for path in tmp_path.iterdir()] == ["out.tsv"]

    def test_symlinked_target_stays_a_link(self, tmp_path):
        real, link = tmp_path / "real.tsv", tmp_path / "link.tsv"
        real.write_bytes(b"old bytes\n")
        link.symlink_to(real)
        _write_text(link, "new text\n")
        assert link.is_symlink()
        assert real.read_bytes() == b"new text\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.tsv", "real.tsv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        _write_text(fifo, "caf\u00e9\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert read == ["caf\u00e9\n".encode("utf-8")]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [path.name for path in tmp_path.iterdir()] == ["pipe"]

    def test_target_keeps_its_permission_bits(self, tmp_path):
        target = tmp_path / "out.tsv"
        target.write_bytes(b"old bytes\n")
        target.chmod(0o640)
        _write_text(target, "new text\n")
        assert target.read_bytes() == b"new text\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


class TestResolveOffline:
    def test_unknown_url_passes_through(self):
        assert (
            resolve_redirects("http://x.example.com/a", RedirectCache())
            == "http://x.example.com/a"
        )

    def test_follows_chain_transitively(self):
        cache = RedirectCache(
            {
                "http://x.example.com/a": "http://x.example.com/b",
                "http://x.example.com/b": "http://x.example.com/c",
            }
        )
        assert resolve_redirects("http://x.example.com/a", cache) == "http://x.example.com/c"

    def test_self_mapping_terminates(self):
        cache = RedirectCache({"http://x.example.com/a": "http://x.example.com/a"})
        assert resolve_redirects("http://x.example.com/a", cache) == "http://x.example.com/a"

    def test_loop_detected(self):
        cache = RedirectCache(
            {
                "http://x.example.com/a": "http://x.example.com/b",
                "http://x.example.com/b": "http://x.example.com/a",
            }
        )
        with pytest.raises(RedirectError, match="loop"):
            resolve_redirects("http://x.example.com/a", cache)

    def test_hop_limit(self):
        cache = RedirectCache(
            {
                f"http://x.example.com/{i}": f"http://x.example.com/{i + 1}"
                for i in range(20)
            }
        )
        with pytest.raises(RedirectError, match="hop limit"):
            resolve_redirects("http://x.example.com/0", cache)

    def test_chain_of_max_hops_resolves_and_one_more_hop_exceeds(self):
        assert resolve_redirects("http://x.example.com/0", _chain(10)) == "http://x.example.com/10"
        with pytest.raises(RedirectError, match=r"^hop limit 10 exceeded \(chain: ") as info:
            resolve_redirects("http://x.example.com/0", _chain(11))
        assert info.value.chain == tuple(f"http://x.example.com/{i}" for i in range(12))

    def test_zero_hops_returns_a_url_without_an_entry(self):
        url = "http://x.example.com/0"
        assert resolve_redirects(url, RedirectCache(), max_hops=0) == url
        with pytest.raises(RedirectError, match="hop limit 0 exceeded"):
            resolve_redirects(url, _chain(1), max_hops=0)


class TestResolveOnline:
    def test_follows_and_caches(self):
        hops = {
            "http://x.example.com/a": (301, "/b"),
            "http://x.example.com/b": (302, "http://y.example.com/c"),
            "http://y.example.com/c": (200, None),
        }
        calls = []

        def fetch(url):
            calls.append(url)
            return hops[url]

        cache = RedirectCache()
        final = resolve_redirects("http://x.example.com/a", cache, fetch=fetch)
        assert final == "http://y.example.com/c"
        assert calls == list(hops)
        # every hop now resolves offline without extra fetches
        assert resolve_redirects("http://x.example.com/b", cache) == "http://y.example.com/c"

    def test_loop_detected(self):
        hops = {
            "http://x.example.com/a": (301, "/b"),
            "http://x.example.com/b": (301, "/a"),
        }
        with pytest.raises(RedirectError, match="loop"):
            resolve_redirects(
                "http://x.example.com/a", RedirectCache(), fetch=lambda u: hops[u]
            )

    def test_hop_limit(self):
        def fetch(url):
            last = int(url.rsplit("/", 1)[1])
            return 301, f"/{last + 1}"

        with pytest.raises(RedirectError, match="hop limit"):
            resolve_redirects(
                "http://x.example.com/0", RedirectCache(), max_hops=5, fetch=fetch
            )


    def test_reads_the_cache_before_it_fetches(self):
        hops = {"http://x.example.com/a": (301, "/b"), "http://x.example.com/c": (200, None)}
        calls = []

        def fetch(url):
            calls.append(url)
            return hops[url]

        cache = RedirectCache({"http://x.example.com/b": "http://x.example.com/c"})
        for _ in range(2):  # the second walk finds every hop in the cache
            final = resolve_redirects("http://x.example.com/a", cache, fetch=fetch)
            assert final == "http://x.example.com/c"
            assert calls == ["http://x.example.com/a", "http://x.example.com/c"]

    @pytest.mark.parametrize("start,chain", [("/b", "b -> b"), ("/a", "a -> b -> b")])
    def test_fetched_self_redirect_is_a_loop(self, start, chain):
        def fetch(url):
            return 301, "/b"

        url = urllib.parse.urljoin("http://x.example.com/", start)
        chain = " -> ".join(f"http://x.example.com/{step}" for step in chain.split(" -> "))
        with pytest.raises(RedirectError) as info:
            resolve_redirects(url, RedirectCache(), fetch=fetch)
        assert str(info.value) == f"redirect loop (chain: {chain})"


def _chain(hops: int) -> RedirectCache:
    """A cache holding one chain of ``hops`` hops, from ``/0`` to ``/hops``."""
    return RedirectCache(
        {f"http://x.example.com/{i}": f"http://x.example.com/{i + 1}" for i in range(hops)}
    )


_WALK_URLS = [f"http://x.example.com/{i}" for i in range(8)]


def _serve(entries: dict[str, str], calls: list[str]):
    """A fetch answering from ``entries``: 301 for an entry to another URL, else 200."""
    def fetch(url):
        calls.append(url)
        target = entries.get(url, url)
        return (200, None) if target == url else (301, target)
    return fetch


def _walked(walk):
    """The URL ``walk()`` returns, or the kind and chain of its RedirectError."""
    try:
        return walk()
    except RedirectError as exc:
        kind = str(exc).partition(" (chain: ")[0]
        return ("loop" if kind.startswith("redirect loop") else kind, exc.chain)


class TestOneWalk:
    @settings(max_examples=1000, deadline=None)
    @given(
        entries=st.dictionaries(st.sampled_from(_WALK_URLS), st.sampled_from(_WALK_URLS),
                                max_size=8),
        start=st.sampled_from(_WALK_URLS),
        max_hops=st.integers(0, 12),
    )
    def test_cache_and_fetch_walk_the_same_chain(self, entries, start, max_hops):
        offline = _walked(
            lambda: resolve_redirects(start, RedirectCache(entries), max_hops=max_hops)
        )
        cache, calls = RedirectCache(), []
        fetch = _serve(entries, calls)
        online = _walked(
            lambda: resolve_redirects(start, cache, max_hops=max_hops, fetch=fetch)
        )
        assert online == offline
        if isinstance(online, str):
            calls.clear()
            assert resolve_redirects(start, cache, max_hops=max_hops, fetch=fetch) == online
            assert calls == []


class _Handler(http.server.BaseHTTPRequestHandler):
    """Answers each (method, path) from ``server.routes``: a (status, Location)
    pair, or raw bytes written as they are."""

    def do_HEAD(self):
        self.server.seen.append((self.command, self.path))
        reply = self.server.routes[self.command, self.path]
        if isinstance(reply, bytes):
            self.wfile.write(reply)
            return
        status, location = reply
        self.send_response(status)
        if location:
            self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_HEAD

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    """A loopback HTTP server on a free port; fill its ``routes`` before fetching."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.routes, server.seen = {}, []
    server.base = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestDefaultFetch:
    def test_redirect_reported_not_followed(self, server):
        server.routes = {("HEAD", "/a"): (301, "/b")}
        assert default_fetch(server.base + "/a") == (301, "/b")
        assert server.seen == [("HEAD", "/a")]

    def test_head_405_retried_once_with_get(self, server):
        server.routes = {("HEAD", "/a"): (405, None), ("GET", "/a"): (302, "/z")}
        assert default_fetch(server.base + "/a") == (302, "/z")
        assert server.seen == [("HEAD", "/a"), ("GET", "/a")]

    def test_resolve_online_follows_chain_and_fills_cache(self, server):
        server.routes = {
            ("HEAD", "/a"): (301, "/b"),
            ("HEAD", "/b"): (302, server.base + "/c"),
            ("HEAD", "/c"): (200, None),
        }
        cache = RedirectCache()
        final = resolve_redirects(server.base + "/a", cache, fetch=default_fetch)
        assert final == server.base + "/c"
        assert [path for _, path in server.seen] == ["/a", "/b", "/c"]
        assert resolve_redirects(server.base + "/a", cache) == final
        assert resolve_redirects(server.base + "/b", cache) == final

    def test_bad_status_line_is_redirect_error(self, server):
        server.routes = {("HEAD", "/a"): b"HELLO WORLD\r\n\r\n"}
        with pytest.raises(RedirectError, match="network failure fetching"):
            default_fetch(server.base + "/a")

    @pytest.mark.parametrize("url", ["http://127.0.0.1:1/", "nosuchscheme://x.example.com/"])
    def test_failure_is_redirect_error(self, url):
        with pytest.raises(RedirectError, match="network failure fetching"):
            default_fetch(url)
