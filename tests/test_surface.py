import random
from fractions import Fraction

import pytest

from conftest import random_params, random_smooth_surface
from dp1.poly import UniPoly
from dp1.surface import (
    DegenerateSurfaceError,
    SmoothnessVerdict,
    Surface,
    SurfaceParams,
    WPoint,
    modp_singular_scan,
    singular_fiber_report,
    smoothness_check,
    smoothness_cross_check,
    _chart_singular_witnesses,
)


def test_params_require_cubic_f():
    with pytest.raises(ValueError):
        SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 0)


def test_build_worked_forms(worked_surface):
    # A ≡ 0 and B(t) = t⁶ + 2t³ + 3
    assert worked_surface.A_t.is_zero()
    assert worked_surface.B_t == UniPoly((3, 0, 0, 2, 0, 0, 1))


def test_build_second_surface(worked_surface_2):
    assert worked_surface_2.B_t == UniPoly((2, 0, 0, 0, 0, 0, 1))


def test_dw_family_shape():
    # f = t³, a₄ = 0 gives B = c z⁶ + d z³w³ + e w⁶ in the chart
    S = Surface(SurfaceParams(0, 0, 5, -1, 7, 0, 0, 0, 1))
    assert S.B_t == UniPoly((7, 0, 0, -1, 0, 0, 5))


def test_membership_base_point_always(worked_surface, worked_surface_2):
    O = WPoint(1, 1, 0, 0)
    assert worked_surface.membership(O)
    assert worked_surface_2.membership(O)


def test_membership_worked_examples(worked_surface, worked_seed):
    assert worked_surface.membership(worked_seed)
    assert not worked_surface.membership(WPoint(1, 1, 1, 1))


def test_membership_rescaling_invariance(worked_surface, worked_seed):
    P = worked_seed
    for lam in (2, 3, -5):
        scaled = WPoint(P.x * lam ** 2, P.y * lam ** 3, P.z * lam, P.w * lam)
        x, y, z, w = scaled.x, scaled.y, scaled.z, scaled.w
        assert Fraction(y) ** 2 == Fraction(x) ** 3 + worked_surface.A_form(
            Fraction(z), Fraction(w)
        ) * x + worked_surface.B_form(Fraction(z), Fraction(w))
        assert WPoint.canonicalize(x, y, z, w) == P


def test_wpoint_parse_and_canonical():
    assert WPoint.parse("[4:8:2:2]") == WPoint(1, 1, 1, 1)
    assert WPoint.parse("[1:-1:0:0]") == WPoint(1, 1, 0, 0)
    with pytest.raises(ValueError):
        WPoint.canonicalize(0, 0, 0, 0)


def test_wpoint_affine_roundtrip():
    P = WPoint.from_affine(Fraction(7, 4), Fraction(-53, 16), Fraction(-79, 32))
    assert P.t() == Fraction(7, 4)
    assert P.affine_xy() == (Fraction(-53, 16), Fraction(-79, 32))


def test_smoothness_worked(worked_surface, worked_surface_2):
    assert smoothness_check(worked_surface).smooth
    assert smoothness_check(worked_surface_2).smooth


def test_smoothness_singular_fixture(singular_fixture):
    verdict = smoothness_check(singular_fixture)
    assert verdict.kind == "singular"
    assert verdict.witnesses


def test_modp_scan_worked(worked_surface, singular_fixture):
    assert modp_singular_scan(worked_surface, 7) == "smooth"
    assert modp_singular_scan(singular_fixture, 7) == "singular"


def test_modp_scan_rejects_bad_characteristic(worked_surface):
    with pytest.raises(ValueError):
        modp_singular_scan(worked_surface, 2)
    with pytest.raises(ValueError):
        modp_singular_scan(worked_surface, 9)


def uncached_verdict(S: Surface) -> SmoothnessVerdict:
    """The two-chart decision, made afresh from the chart polynomials."""
    witnesses = tuple(
        (chart, wpoly)
        for chart, A, B in (("t", S.A_t, S.B_t), ("s", S.A_s, S.B_s))
        for wpoly in _chart_singular_witnesses(A, B)
    )
    return SmoothnessVerdict("singular" if witnesses else "smooth", witnesses)


def test_memoized_verdict_matches_uncached_decision(singular_fixture):
    rng = random.Random(53)
    surfaces = [singular_fixture] + [Surface(random_params(rng, height=3)) for _ in range(40)]
    kinds = set()
    for S in surfaces:
        expected = uncached_verdict(S)
        first = smoothness_check(S)
        assert first == expected
        assert smoothness_check(S) is first
        # the memo is per instance: a new Surface decides afresh
        assert smoothness_check(Surface(S.params)) == expected
        kinds.add(expected.kind)
    assert kinds == {"smooth", "singular"}


def test_degenerate_surface_raises_on_every_call():
    S = Surface(SurfaceParams(0, 0, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(DegenerateSurfaceError):
        uncached_verdict(S)
    for _ in range(3):
        with pytest.raises(DegenerateSurfaceError, match="vanishes identically"):
            smoothness_check(S)


def test_cross_check_on_worked(worked_surface, singular_fixture):
    out = smoothness_cross_check(worked_surface, (7, 11, 13))
    assert out["symbolic"] == "smooth"
    out = smoothness_cross_check(singular_fixture, (7, 11, 13))
    assert out["symbolic"] == "singular"


def test_cross_check_random_tuples():
    rng = random.Random(23)
    for _ in range(10):
        S = Surface(random_params(rng, height=3))
        try:
            smoothness_cross_check(S, (7, 11))
        except DegenerateSurfaceError:
            pass


def test_fiber_at_worked(worked_surface, worked_surface_2):
    E = worked_surface.fiber_at(Fraction(-1))
    assert (E.A, E.B) == (0, 2)
    assert worked_surface.fiber_at(Fraction(0)).B == 3
    Ea = worked_surface_2.fiber_at(Fraction(1))
    Eb = worked_surface_2.fiber_at(Fraction(-1))
    assert (Ea.A, Ea.B) == (Eb.A, Eb.B) == (0, 3)


def test_fiber_matches_composed_polynomials():
    rng = random.Random(31)
    for _ in range(10):
        S = Surface(random_params(rng, height=4))
        for tnum in (-2, 0, 1, 3):
            t = Fraction(tnum, 2)
            E = S.fiber_at(t)
            u = S.f(t)
            assert E.A == S.params.a * u + S.params.b
            assert E.B == S.params.c * u * u + S.params.d * u + S.params.e


def test_discriminant_form_z12_coefficient():
    rng = random.Random(41)
    for _ in range(15):
        p = random_params(rng, height=4)
        assert Surface(p).discriminant_t()[12] == -432 * p.c ** 2 * p.f3 ** 4


def test_singular_fiber_report_worked(worked_surface, worked_surface_2):
    rep = singular_fiber_report(worked_surface)
    assert rep.total_multiplicity == 12
    assert rep.multiplicity_at_infinity == 0
    # Δ = −432(t⁶+2t³+3)², one squarefree factor of degree 6, multiplicity 2
    assert [(f.degree, f.multiplicity) for f in rep.factors] == [(6, 2)]
    rep2 = singular_fiber_report(worked_surface_2)
    assert rep2.total_multiplicity == 12
    assert [(f.degree, f.multiplicity) for f in rep2.factors] == [(6, 2)]


def test_singular_fiber_budget_random():
    rng = random.Random(43)
    for _ in range(10):
        S = random_smooth_surface(rng, height=3)
        assert singular_fiber_report(S).total_multiplicity == 12
