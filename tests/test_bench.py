"""Benchmark integrands, the three rule variants, and slope fitting."""
import math

import numpy as np
import pytest

from latquad.bench import (
    ConvergenceRecord,
    TestFunction as Integrand,
    converge_study,
    fit_slope,
    integrate,
    records_to_csv,
)
from latquad.cbc import cbc_construct
from latquad.points import (
    LatticeRule,
    lattice_points,
    symmetrize,
    symmetrized_node_count,
    tent_transform,
)


class _Product:
    """Product integrand prod_j phi_j(x_j), one callable per coordinate."""

    def __init__(self, *phis):
        self.phis = phis

    def factors(self, x):
        return np.stack([phi(x[:, j]) for j, phi in enumerate(self.phis)], axis=1)


def test_eval_g_endpoints():
    g1 = Integrand("g", 1, 0.1)
    assert g1([0.0]) == pytest.approx(20.0 / 21.0, rel=1e-15)
    assert g1([1.0]) == pytest.approx(1.0 + 0.1 * 11.0 / 21.0, rel=1e-15)
    # batch shape: trailing axis is the coordinate axis
    g2 = Integrand("g", 2, 0.5)
    out = g2(np.zeros((7, 2)))
    assert out.shape == (7,)
    with pytest.raises(ValueError):
        g2(np.zeros((7, 3)))


def test_eval_h_values():
    c = (31.0 - 16.0 * math.cos(1.0)) / 8.0
    h1 = Integrand("h", 1, 0.1)
    assert h1([0.0]) == pytest.approx(1.0 + 0.1 * c, rel=1e-14)
    assert float(h1([0.0])) == pytest.approx(1.2794395388263722, rel=1e-13)
    got = Integrand("h", 2, 0.5)([0.0, 0.0])
    assert got == pytest.approx((1.0 + 0.5 * c) * (1.0 + 0.25 * c), rel=1e-14)


def test_test_function_validation():
    f = Integrand("g", 3, 0.9)
    assert f.exact_integral == 1.0
    assert f(np.full((2, 3), 0.5)).shape == (2,)
    with pytest.raises(ValueError):
        Integrand("q", 2, 0.5)
    with pytest.raises(ValueError):
        Integrand("g", 0, 0.5)
    with pytest.raises(ValueError):
        Integrand("g", 2, 0.0)


def test_constants_are_exact_for_every_variant():
    rule = LatticeRule(7, (1, 3))
    one = _Product(np.ones_like, np.ones_like)
    for variant in ("plain", "tent", "sym"):
        est = integrate(rule, variant, one)
        assert est == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        integrate(rule, "folded", one)


def test_symmetrized_rule_integrates_odd_parts_exactly():
    for N, g in [(3, (1,)), (4, (3,)), (7, (2,))]:
        rule = LatticeRule(N, g)
        est = integrate(rule, "sym", _Product(lambda x: x))
        assert est == pytest.approx(0.5, abs=1e-14)
        est = integrate(rule, "sym", _Product(lambda x: np.cos(np.pi * x)))
        assert est == pytest.approx(0.0, abs=1e-14)


def test_tent_equals_plain_on_even_cosines_at_odd_moduli():
    # cos(2 pi k x) pulled through the fold lands on the same node values;
    # even N can place mass on the fold crease, so only odd N is asserted
    for N, g in [(5, (1, 2)), (7, (1, 3)), (9, (1, 2))]:
        rule = LatticeRule(N, g)
        f = _Product(lambda x: np.cos(2.0 * np.pi * x), lambda x: np.cos(4.0 * np.pi * x))
        a = integrate(rule, "plain", f)
        b = integrate(rule, "tent", f)
        assert abs(a - b) <= 1e-13


@pytest.mark.parametrize("family", ["g", "h"])
def test_factorised_estimates_match_the_node_sets(family):
    # sym against the full 2^s N reflection multiset; plain and tent against
    # the node sets, bit for bit, since the arithmetic there is unchanged
    for N in (7, 12, 64, 97, 255):
        for s in range(1, 9):
            rule = LatticeRule(N, tuple(pow(3, j, N) for j in range(s)))
            f = Integrand(family, s, 0.9 if family == "g" else 0.5)
            P = symmetrize(rule, dedupe=False).points
            want = math.fsum(f(P).tolist()) / len(P)
            assert abs(integrate(rule, "sym", f) - want) <= 1e-14 * abs(want)
            for variant, ps in (("plain", lattice_points(rule)),
                                ("tent", tent_transform(lattice_points(rule)))):
                assert integrate(rule, variant, f) == math.fsum(f(ps.points).tolist()) / N


def test_quadrature_reaches_the_exact_integral():
    f = Integrand("g", 2, 0.9)
    rule = LatticeRule(257, (1, 111))
    assert abs(integrate(rule, "sym", f) - 1.0) <= 1e-4


def test_fit_slope_on_exact_power_laws():
    recs1 = [ConvergenceRecord("plain", 2**m, 2**m, 1.0, 0.5 * 2.0**-m) for m in range(4, 10)]
    assert fit_slope(recs1) == pytest.approx(-1.0, abs=1e-9)
    recs3 = [ConvergenceRecord("tent", 2**m, 2**m, 1.0, 3.0 * 2.0 ** (-3 * m)) for m in range(4, 10)]
    assert fit_slope(recs3) == pytest.approx(-3.0, abs=1e-9)


def test_fit_slope_needs_enough_points_above_the_floor():
    recs = [
        ConvergenceRecord("plain", 2**m, 2**m, 1.0, err)
        for m, err in [(4, 1e-2), (5, 1e-3), (6, 1e-14), (7, 1e-15)]
    ]
    with pytest.raises(ValueError):
        fit_slope(recs)


def test_converge_study_records_and_csv():
    f = Integrand("g", 2, 0.9)
    Ns = [2**m for m in range(6, 10)]
    recs = converge_study(f, "tent", Ns, cbc_alpha=1)
    assert [r.N for r in recs] == Ns
    assert all(r.nodes == r.N for r in recs)
    assert all(r.abs_error == abs(r.estimate - 1.0) for r in recs)
    text = records_to_csv(recs)
    lines = text.strip().splitlines()
    assert lines[0] == "variant,N,nodes,estimate,abs_error"
    assert len(lines) == 1 + len(Ns)
    assert lines[1].startswith("tent,64,64,")
    assert text.endswith("\n")


def test_converge_study_validation():
    f = Integrand("g", 2, 0.9)
    with pytest.raises(ValueError):
        converge_study(f, "tent", [64, 32])
    with pytest.raises(ValueError):
        converge_study(f, "spiral", [32, 64])
    with pytest.raises(ValueError, match="nonempty"):
        converge_study(f, "tent", [])
    # no dimension or node-count cap on symmetrized studies: nothing is materialised
    f11 = Integrand("g", 11, 0.9)
    gammas = tuple(0.9**j for j in range(1, 12))
    for rec in converge_study(f11, "sym", [32, 64]):
        P = symmetrize(cbc_construct(rec.N, 11, 1, gammas).rule, dedupe=False).points
        want = math.fsum(f11(P).tolist()) / len(P)
        assert abs(rec.estimate - want) <= 1e-14 * abs(want)
    (rec,) = converge_study(Integrand("g", 10, 0.9), "sym", [1 << 16])
    assert rec.nodes == symmetrized_node_count(1 << 16, 10)


@pytest.mark.parametrize("cbc_alpha", [1.5, 2.9])
def test_converge_study_passes_cbc_alpha_through(cbc_alpha):
    # rounding the smoothness down to an int would quietly build the rules of
    # int(cbc_alpha); at these N and weights CBC picks other vectors there
    f = Integrand("g", 4, 0.9)
    gammas = tuple(1.0 / j**2 for j in range(1, 5))
    Ns = [64, 128, 256]
    recs = converge_study(f, "tent", Ns, cbc_alpha=cbc_alpha, cbc_gammas=gammas)
    assert [r.estimate for r in recs] == [
        integrate(cbc_construct(N, 4, cbc_alpha, gammas).rule, "tent", f) for N in Ns]
    assert recs != converge_study(f, "tent", Ns, cbc_alpha=int(cbc_alpha), cbc_gammas=gammas)
    assert converge_study(f, "tent", [32, 64], cbc_alpha=2.0) == converge_study(
        f, "tent", [32, 64], cbc_alpha=2)


def test_symmetrized_node_counts_in_records():
    f = Integrand("g", 3, 0.9)
    recs = converge_study(f, "sym", [8, 16])
    assert [r.nodes for r in recs] == [4 * 8 + 1, 4 * 16 + 1]


def test_tent_beats_plain_on_the_smooth_even_integrand():
    f = Integrand("g", 4, 0.9)
    Ns = [2**m for m in range(6, 12)]
    plain = converge_study(f, "plain", Ns, cbc_alpha=1)
    tent = converge_study(f, "tent", Ns, cbc_alpha=1)
    for p, t in zip(plain, tent):
        if p.N >= 2**8:
            assert t.abs_error < p.abs_error


def test_tent_is_second_order_on_the_rougher_integrand():
    # smooth but not reflection-symmetric: per-coordinate trapezoid behavior
    f = Integrand("h", 3, 0.5)
    recs = converge_study(f, "tent", [2**m for m in range(6, 13)], cbc_alpha=1)
    slope = fit_slope(recs)
    assert -2.3 <= slope <= -1.5
