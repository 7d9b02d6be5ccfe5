import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serpsim import (
    DatasetError,
    RedirectCache,
    RedirectError,
    UrlParseError,
    canonicalize,
    resolve_redirects,
)


def _urls(authorities: list[str]) -> st.SearchStrategy[str]:
    """Messy URLs: a scheme, one of ``authorities`` and a random path, query and fragment."""
    return st.builds(
        "{}:{}{}".format,
        st.sampled_from(["http", "HTTPS", "ftp", "file", "mailto", "x"]),
        st.sampled_from(authorities),
        st.text(alphabet="aZ09-._~%/?#:@!$&'()*+,;=[] \t\xa0\x1cé", max_size=24),
    )


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
         "http://example.com:notaport/x"],
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

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("http://a.example.com/\thttp://b.example.com/\nbroken line\n")
        with pytest.raises(DatasetError, match=r"bad\.tsv:2"):
            RedirectCache.from_file(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("# comment\n\nhttp://a.example.com/\thttp://b.example.com/\n")
        assert len(RedirectCache.from_file(path)) == 1


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
        final = resolve_redirects("http://x.example.com/a", cache, "online", fetch=fetch)
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
                "http://x.example.com/a", RedirectCache(), "online", fetch=lambda u: hops[u]
            )

    def test_hop_limit(self):
        def fetch(url):
            last = int(url.rsplit("/", 1)[1])
            return 301, f"/{last + 1}"

        with pytest.raises(RedirectError, match="hop limit"):
            resolve_redirects(
                "http://x.example.com/0", RedirectCache(), "online", max_hops=5, fetch=fetch
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            resolve_redirects("http://x.example.com/a", RedirectCache(), "sideways")
