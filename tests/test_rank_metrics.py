from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serpsim import (
    RankAlignment,
    ValidationError,
    penalty_components,
    displacement_bound,
    jaro_sim,
    jaro_similarity,
    jaro_winkler_sim,
    jaro_winkler_similarity,
    kendall_tau_sim,
    max_total_displacement,
    spearman_footrule_sim,
    transposition_penalty,
)
from tests.conftest import make_list
from tests.test_acceptance import TestCriterion4DisplacementBoundOracle as _Criterion4


def align(keys_a: str, keys_b: str) -> RankAlignment:
    return RankAlignment.from_lists(
        make_list(keys_a, engine="e1"), make_list(keys_b, engine="e2")
    )


class TestDisplacementBound:
    def test_n6_sequence(self):
        assert [displacement_bound(i, 6) for i in range(1, 7)] == [5, 5, 3, 3, 1, 1]

    def test_n5_sequence(self):
        assert [displacement_bound(i, 5) for i in range(1, 6)] == [4, 4, 2, 2, 0]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            displacement_bound(0, 6)
        with pytest.raises(ValidationError):
            displacement_bound(7, 6)


class TestMaxTotalDisplacement:
    @pytest.mark.parametrize(
        "m,n,expected",
        [(0, 6, 0), (1, 6, 5), (2, 6, 10), (6, 6, 18), (1, 1, 0), (2, 2, 2), (10, 10, 50)],
    )
    def test_values(self, m, n, expected):
        assert max_total_displacement(m, n) == expected

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            max_total_displacement(3, 2)


class TestAlignment:
    def test_positions_collected(self):
        a = align("abcdef", "defabc")
        assert a.m == 6 and a.n == 6
        assert a.total_displacement() == 18
        assert [(x.url[8], x.rank, y.rank) for x, y in a.shared] == [
            ("a", 1, 4), ("b", 2, 5), ("c", 3, 6), ("d", 4, 1), ("e", 5, 2), ("f", 6, 3)
        ]

    def test_shared_pairs_each_url_with_both_results_in_url_order(self):
        list_a = make_list("cabd", engine="e1", flavor="plain")
        list_b = make_list("dxcy", engine="e2", flavor="alt")
        a = RankAlignment.from_lists(list_a, list_b)
        assert a.shared == (
            (list_a.results[0], list_b.results[2]), (list_a.results[3], list_b.results[0])
        )
        assert a.m == 2 and a.n == 4

    def test_no_overlap(self):
        a = align("abc", "xyz")
        assert a.m == 0 and a.shared == ()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            align("abc", "ab")


class TestTranspositionPenalty:
    def test_same_positions_zero(self):
        assert transposition_penalty(align("abcdef", "abcghi")) == 0.0

    def test_maximal_disarray_is_one(self):
        assert transposition_penalty(align("abcdef", "defabc")) == 1.0

    def test_adjacent_swap(self):
        assert transposition_penalty(align("abcdef", "abcdfe")) == pytest.approx(2 / 18)

    def test_empty_overlap_zero(self):
        assert transposition_penalty(align("abc", "xyz")) == 0.0


class TestSpearmanFootrule:
    @pytest.mark.parametrize(
        "keys_b,expected",
        [
            ("aghijk", 1.0),
            ("abcghi", 1.0),
            ("ghidef", 1.0),
            ("defabc", 0.0),
            ("abcdfe", 8 / 9),
            ("abcfed", 7 / 9),
        ],
    )
    def test_against_reference_row(self, keys_b, expected):
        a = make_list("abcdef", engine="e1")
        b = make_list(keys_b, engine="e2")
        assert spearman_footrule_sim(a, b) == pytest.approx(expected)

    def test_no_overlap_scores_one(self):
        assert spearman_footrule_sim(make_list("abc"), make_list("xyz")) == 1.0

    def test_identity(self):
        assert spearman_footrule_sim(make_list("abcdef"), make_list("abcdef")) == 1.0


class TestKendallTau:
    def test_identical_order(self):
        assert kendall_tau_sim(make_list("abcdef"), make_list("abcghi")) == 1.0

    def test_reversed_order(self):
        assert kendall_tau_sim(make_list("abc"), make_list("cba")) == 0.0

    def test_single_common_url(self):
        assert kendall_tau_sim(make_list("abc"), make_list("axy")) == 1.0

    def test_rotation(self):
        # pairs crossing the rotation boundary are discordant: 9 of 15
        assert kendall_tau_sim(make_list("abcdef"), make_list("defabc")) == pytest.approx(
            1 - 9 / 15
        )

    def test_one_adjacent_swap(self):
        assert kendall_tau_sim(make_list("abcdef"), make_list("abcdfe")) == pytest.approx(
            14 / 15
        )


class TestJaro:
    @pytest.mark.parametrize(
        "keys_b,expected",
        [
            ("aghijk", 4 / 9),
            ("abcghi", 2 / 3),
            ("ghidef", 2 / 3),
            ("defabc", 0.0),
            ("abcdfe", 17 / 18),
            ("abcfed", 17 / 18),
        ],
    )
    def test_against_reference_row(self, keys_b, expected):
        a = make_list("abcdef", engine="e1")
        b = make_list(keys_b, engine="e2")
        assert jaro_sim(a, b) == pytest.approx(expected)

    def test_classic_string_pairs(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.944444, abs=1e-6)
        assert jaro_similarity("dixon", "dicksonx") == pytest.approx(0.766667, abs=1e-6)

    def test_identical(self):
        assert jaro_similarity("abc", "abc") == 1.0

    def test_empty_sides(self):
        assert jaro_similarity("", "") == 1.0
        assert jaro_similarity("abc", "") == 0.0


class TestJaroWinkler:
    @pytest.mark.parametrize(
        "keys_b,expected",
        [
            ("aghijk", 0.5),
            ("abcghi", 23 / 30),
            ("ghidef", 2 / 3),
            ("defabc", 0.0),
            ("abcdfe", 17 / 18 + 0.3 / 18),
            ("abcfed", 17 / 18 + 0.3 / 18),
        ],
    )
    def test_against_reference_row(self, keys_b, expected):
        a = make_list("abcdef", engine="e1")
        b = make_list(keys_b, engine="e2")
        assert jaro_winkler_sim(a, b) == pytest.approx(expected)

    def test_classic_string_pair(self):
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
            0.961111, abs=1e-6
        )

    def test_prefix_capped_at_three(self):
        # 5 leading symbols agree but only 3 may earn the bonus
        base = jaro_similarity("abcdex", "abcdey")
        boosted = jaro_winkler_similarity("abcdex", "abcdey")
        assert boosted == pytest.approx(base + 3 * 0.1 * (1 - base))

    def test_never_below_jaro_and_never_above_one(self):
        a = make_list("abcdef", engine="e1")
        b = make_list("abcdfe", engine="e2")
        assert jaro_sim(a, b) <= jaro_winkler_sim(a, b) <= 1.0


class TestAgainstBruteForce:
    @settings(max_examples=1000, deadline=None)
    @given(
        n=st.integers(1, 6),
        # each list's URLs, drawn from a pool of 9 keys so that any overlap occurs
        order_a=st.permutations("abcdefghi"),
        order_b=st.permutations("abcdefghi"),
    )
    def test_rank_metrics_and_one_alignment_per_cell(self, n, order_a, order_b):
        list_a = make_list("".join(order_a[:n]), engine="e1")
        list_b = make_list("".join(order_b[:n]), engine="e2", flavor="alt")
        urls_a, urls_b = list(list_a.urls()), list(list_b.urls())
        shared = [url for url in urls_a if url in urls_b]
        m = len(shared)

        discordant = sum(
            (urls_a.index(u) - urls_a.index(v)) * (urls_b.index(u) - urls_b.index(v)) < 0
            for u, v in combinations(shared, 2)
        )
        assert kendall_tau_sim(list_a, list_b) == (
            1.0 if m < 2 else 1.0 - discordant / (m * (m - 1) / 2)
        )

        bound = _Criterion4.brute_force(m, n)
        moved = sum(abs(urls_a.index(url) - urls_b.index(url)) for url in shared)
        alignment = RankAlignment.from_lists(list_a, list_b)
        assert transposition_penalty(alignment) == (moved / bound if bound else 0.0)

        original = vars(RankAlignment)["from_lists"]
        built = []

        def counting(cls, *lists):
            built.append(lists)
            return original.__func__(cls, *lists)

        RankAlignment.from_lists = classmethod(counting)
        try:
            penalty_components(list_a, list_b)
        finally:
            RankAlignment.from_lists = original
        assert built == [(list_a, list_b)]
