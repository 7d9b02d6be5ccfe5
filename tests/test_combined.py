import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serpsim import (
    DEFAULT_CONFIG,
    MetricConfig,
    PenaltyComponents,
    SimilarityBreakdown,
    ValidationError,
    combined_similarity,
    penalty_components,
    score_from_components,
)
from serpsim.combined import _base_boost
from tests.conftest import make_list

UNIT = MetricConfig(a=1.0, b=1.0, c=1.0, boost_weights=(0.15, 0.10, 0.07, 0.03, 0.01))


class TestPenaltyComponents:
    def test_measures_one_shared_url_with_distinct_content(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("aghijk", engine="e2", flavor="alt")
        comp = penalty_components(a, b)
        assert comp.n == 6
        assert comp.common_count == 1
        assert comp.snippet_penalty == pytest.approx(1.0)
        assert comp.title_penalty == pytest.approx(1.0)
        assert comp.transposition_penalty == 0.0
        assert comp.agreements == (1,)

    def test_agreements_are_positional(self):
        a = make_list("abcdef", engine="e1")
        b = make_list("ghidef", engine="e2")
        assert penalty_components(a, b).agreements == (4, 5, 6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PenaltyComponents(
                n=3, common_count=4, snippet_penalty=0, title_penalty=0,
                transposition_penalty=0, agreements=(),
            )
        with pytest.raises(ValidationError):
            PenaltyComponents(
                n=3, common_count=1, snippet_penalty=2.0, title_penalty=0,
                transposition_penalty=0, agreements=(),
            )
        with pytest.raises(ValidationError):
            PenaltyComponents(
                n=3, common_count=1, snippet_penalty=0, title_penalty=0,
                transposition_penalty=1.5, agreements=(),
            )


class TestScore:
    def test_single_shared_url_distinct_content(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("aghijk", engine="e2", flavor="alt")
        breakdown = combined_similarity(a, b, UNIT)
        assert breakdown.base_score == pytest.approx(2 / 19)
        assert breakdown.boost == pytest.approx(0.15 * 17 / 19)
        assert breakdown.score == pytest.approx(0.23947, abs=1e-4)

    def test_default_config_half_overlap(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("abcghi", engine="e2", flavor="alt")
        breakdown = combined_similarity(a, b)
        # m=3, both penalties 3, no displacement: base (10-2.4-3)/19
        assert breakdown.base_score == pytest.approx(4.6 / 19)
        assert breakdown.boost == pytest.approx(0.32 * (1 - 4.6 / 19))
        assert breakdown.score == pytest.approx(0.48463, abs=1e-4)

    def test_identity_is_exactly_one(self):
        a = make_list("abcdef", engine="e1")
        b = make_list("abcdef", engine="e2")
        assert combined_similarity(a, b).score == 1.0

    def test_disjoint_is_exactly_zero(self):
        a = make_list("abcdef", engine="e1")
        b = make_list("ghijkl", engine="e2")
        breakdown = combined_similarity(a, b)
        assert breakdown.score == 0.0
        assert breakdown.base_score == 0.0
        assert breakdown.boost == 0.0

    def test_symmetric_exactly(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("cbadef", engine="e2", flavor="alt")
        assert combined_similarity(a, b).score == combined_similarity(b, a).score

    def test_boost_ignores_positions_past_depth(self):
        a = make_list("abcdef", engine="e1")
        b = make_list("ghidef", engine="e2")
        breakdown = combined_similarity(a, b, UNIT)
        # agreements at 4, 5 and 6; only 4 and 5 are within the boost depth
        assert breakdown.boost == pytest.approx((0.03 + 0.01) * (1 - breakdown.base_score))

    def test_earlier_agreement_earns_more(self):
        a = make_list("abcdef", engine="e1")
        top = make_list("axyzwv", engine="e2")
        second = make_list("xbyzwv", engine="e2")
        s_top = combined_similarity(a, top, UNIT)
        s_second = combined_similarity(a, second, UNIT)
        assert s_top.base_score == pytest.approx(s_second.base_score)
        assert s_top.boost > s_second.boost

    def test_no_boost_weights_means_no_boost(self):
        cfg = MetricConfig(a=1.0, b=1.0, c=1.0)
        a = make_list("abcdef", engine="e1")
        b = make_list("abcghi", engine="e2")
        breakdown = combined_similarity(a, b, cfg)
        assert breakdown.boost == 0.0
        assert breakdown.score == breakdown.base_score

    def test_components_round_trip(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("fedcba", engine="e2", flavor="alt")
        from_components = score_from_components(penalty_components(a, b), UNIT)
        direct = combined_similarity(a, b, UNIT)
        assert from_components.score == direct.score
        assert from_components.base_score == direct.base_score

    def test_base_score_helper(self):
        a = make_list("abcdef", engine="e1")
        b = make_list("aghijk", engine="e2")
        base = score_from_components(penalty_components(a, b), UNIT).base_score
        assert base == combined_similarity(a, b, UNIT).base_score

    def test_as_dict_round_trips_fields(self):
        a = make_list("abc", engine="e1")
        b = make_list("abc", engine="e2")
        d = combined_similarity(a, b).as_dict()
        assert d["score"] == 1.0 and d["common_count"] == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            combined_similarity(make_list("abc"), make_list("ab"))

    def test_query_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="quer"):
            combined_similarity(
                make_list("abc", query="alpha beta"), make_list("abc", query="gamma delta")
            )


class TestPositionBoost:
    def test_matches_breakdown(self):
        a = make_list("abcdef", engine="e1", flavor="plain")
        b = make_list("abcghi", engine="e2", flavor="alt")
        breakdown = combined_similarity(a, b, UNIT)
        agreements = [
            i for i, (url_a, url_b) in enumerate(zip(a.urls(), b.urls()), start=1)
            if url_a == url_b
        ]
        eligible = sum(UNIT.boost_weights[i - 1] for i in agreements if i <= UNIT.r)
        assert breakdown.boost == eligible * (1 - breakdown.base_score)

    def test_zero_when_base_is_one(self):
        breakdown = combined_similarity(
            make_list("abc", engine="e1"), make_list("abc", engine="e2"), UNIT
        )
        assert breakdown.base_score == 1.0
        assert breakdown.boost == 0.0

    def test_base_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SimilarityBreakdown(
                common_count=3, snippet_penalty=0.0, title_penalty=0.0,
                transposition_penalty=0.0, base_score=1.5, boost=0.0, score=1.5,
            )


@st.composite
def penalty_sets(draw) -> PenaltyComponents:
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, n))
    return PenaltyComponents(
        n=n,
        common_count=m,
        snippet_penalty=draw(st.floats(0, m)),
        title_penalty=draw(st.floats(0, m)),
        transposition_penalty=draw(st.floats(0, 1)),
        agreements=tuple(sorted(draw(st.sets(st.integers(1, n), max_size=m)))),
    )


# strictly descending, positive and summing to at most 1; () means no boost
_boost_weights = st.lists(st.integers(1, 100), unique=True, max_size=6).map(
    lambda ints: tuple(i / 600 for i in sorted(ints, reverse=True))
)


def _reference_base_boost(components: PenaltyComponents, cfg: MetricConfig) -> tuple:
    """The module docstring's base and boost, written out once more."""
    m, n = components.common_count, components.n
    if m == 0:
        return 0.0, 0.0
    deductions = (cfg.a * components.snippet_penalty + cfg.b * components.title_penalty
                  + cfg.c * components.transposition_penalty)
    base = min(1.0, max(0.0, (3 * m + 1 - deductions) / (3 * n + 1)))
    weights = enumerate(cfg.boost_weights, start=1)
    return base, sum(w for i, w in weights if i in components.agreements) * (1.0 - base)


class TestBaseBoostKernel:
    @settings(max_examples=1000, deadline=None)
    @given(
        components=penalty_sets(),
        cfg=st.builds(MetricConfig, st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
                      _boost_weights),
    )
    @example(PenaltyComponents(3, 0, 0.0, 0.0, 0.0, ()), UNIT)
    @example(PenaltyComponents(3, 3, 0.5, 1.0, 0.25, (1, 3)), MetricConfig(1.0, 0.5, 0.3))
    def test_matches_the_formula_and_sums_to_the_breakdown_score(self, components, cfg):
        base, boost = _base_boost(components, cfg)
        assert (base, boost) == _reference_base_boost(components, cfg)
        breakdown = score_from_components(components, cfg)
        assert (base, boost) == (breakdown.base_score, breakdown.boost)
        assert base + boost == breakdown.score
