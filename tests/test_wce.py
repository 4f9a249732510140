"""Worst-case error routes: closed forms, kernel double sums, cross-checks.

The tent, symmetrized-cosine and symmetrized-korcos wrappers evaluate the
exact fold-average sum and are checked against the double sum in every
dimension, and against a direct pair sum over the base lattice.  The periodic
Korobov closed form equals those errors only in one dimension or for rules
whose dual lattice is closed under per-coordinate sign flips; elsewhere the
double sum is checked against a direct spectral-projection oracle, which sits
strictly below the closed form.
"""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latquad import wce
from latquad.cbc import cbc_construct
from latquad.kernels import (
    _TABLE_CAP,
    SpaceSpec,
    TruncationBudgetError,
    TruncationPolicy,
    _cos_partial_sum,
    _omega_table,
    _product_tail,
    _series_rounding,
    kernel_factor,
    series_tail_bound,
    zeta,
)
from latquad.points import (
    LatticeRule,
    WeightedPointSet,
    _denominator,
    dual_lattice,
    lattice_points,
    node_set,
    symmetrize,
    tent_transform,
)
from latquad.wce import (
    _FOLD_WORK_CAP,
    _ROW_BLOCK,
    WceMethod,
    _bound_constants,
    _table_modulus,
    cbc_bound_constant,
    wce_cosine_sym,
    wce_cosine_tent,
    wce_double_sum,
    wce_korcos_sym,
    wce_korobov_lattice,
)

from oracles import table_factor

PI = math.pi
POL = TruncationPolicy(tol=3e-5, max_terms=2_000_000)


def test_double_sum_single_node():
    one = lambda pts: np.asarray(pts), np.array([1.0])
    spec = SpaceSpec("sobolev", 1, (1.0,))
    at0 = WeightedPointSet(np.array([[0.0]]), np.array([1.0]))
    athalf = WeightedPointSet(np.array([[0.5]]), np.array([1.0]))
    assert wce_double_sum(spec, at0).e2 == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert wce_double_sum(spec, athalf).e2 == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_korobov_closed_form_values():
    assert wce_korobov_lattice(LatticeRule(2, (1,)), 1, (1.0,)).e2 == pytest.approx(
        PI**2 / 12.0, rel=1e-13
    )
    assert wce_korobov_lattice(LatticeRule(4, (1,)), 1, (1.0,)).e2 == pytest.approx(
        PI**2 / 48.0, rel=1e-13
    )
    # non-coprime component: dual picks up every multiple of 2
    assert wce_korobov_lattice(LatticeRule(4, (2,)), 1, (1.0,)).e2 == pytest.approx(
        PI**2 / 12.0, rel=1e-13
    )
    res = wce_korobov_lattice(LatticeRule(8, (1, 5)), 2, (1.0, 0.5))
    assert res.method is WceMethod.CLOSED_FORM_SINGLE_SUM
    assert res.tail_bound == 0.0


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("N,g", [(4, (1,)), (5, (2,)), (6, (1, 5)), (7, (1, 3))])
def test_closed_form_matches_double_sum_on_plain_nodes(alpha, N, g):
    rule = LatticeRule(N, g)
    spec = SpaceSpec("korobov", alpha, (1.0,) * len(g))
    ds = wce_double_sum(spec, lattice_points(rule), POL)
    closed = wce_korobov_lattice(rule, alpha, (1.0,) * len(g)).e2
    assert abs(ds.e2 - closed) <= 1e-10 + ds.tail_bound


def test_tent_route_agrees_in_one_dimension():
    # any g, coprime or not: the 1-d dual is symmetric under sign flips
    for N in range(2, 13):
        for g1 in range(1, N):
            rule = LatticeRule(N, (g1,))
            ds = wce_double_sum(
                SpaceSpec("cosine", 1, (1.0,)), tent_transform(lattice_points(rule)), POL
            )
            closed = wce_cosine_tent(rule, 1, (1.0,))
            assert closed.method is WceMethod.FOLD_AVERAGE_DOUBLE_SUM
            assert abs(ds.e2 - closed.e2) <= 1e-8 + ds.tail_bound, (N, g1)


def _sign_projection_sum(N, g, H, alpha=1.0, gamma=1.0):
    """Sum of r(h) q(h)^2 over the |h| <= H box in 2-d.

    q(h) averages the dual-lattice indicator over per-coordinate sign flips.
    This is the spectral value both of the cosine space on tent-folded nodes
    and of the korobov space on symmetrized nodes; the box truncation error
    is bounded separately by the caller.
    """
    g1, g2 = g
    h2 = np.arange(-H, H + 1, dtype=np.int64)
    a2 = np.abs(h2).astype(np.float64)
    r2 = np.where(h2 == 0, 1.0, gamma * np.where(a2 == 0, 1.0, a2) ** (-2.0 * alpha))
    total = 0.0
    for h1 in range(-H, H + 1):
        r1 = 1.0 if h1 == 0 else gamma * float(abs(h1)) ** (-2.0 * alpha)
        q = 0.5 * (
            ((h1 * g1 + h2 * g2) % N == 0).astype(np.float64)
            + ((h1 * g1 - h2 * g2) % N == 0).astype(np.float64)
        )
        term = r1 * (r2 * q * q)
        if h1 == 0:
            term[H] = 0.0
        total += float(term.sum())
    return total


@pytest.mark.parametrize("N,g", [(4, (1, 1)), (5, (1, 2)), (7, (1, 3))])
def test_tent_route_matches_sign_projection_in_two_dimensions(N, g):
    rule = LatticeRule(N, g)
    ds = wce_double_sum(
        SpaceSpec("cosine", 1, (1.0, 1.0)), tent_transform(lattice_points(rule)), POL
    )
    H = 4000
    proj = _sign_projection_sum(N, g, H)
    box_tail = 2.0 * (1.0 + PI**2 / 3.0) * 2.0 / H
    assert abs(ds.e2 - proj) <= 1e-8 + ds.tail_bound + box_tail
    tent = wce_cosine_tent(rule, 1, (1.0, 1.0))
    assert tent.tail_bound == 0.0
    assert abs(tent.e2 - proj) <= 1e-8 + ds.tail_bound + box_tail
    # the periodic closed form sits strictly above: these duals are not
    # closed under sign flips, so the projection drops below the full r-sum
    closed = wce_korobov_lattice(rule, 1, (1.0, 1.0)).e2
    assert closed - ds.e2 > 0.5


def test_tent_route_agrees_when_duals_are_sign_closed():
    # N = 2: h . g even is invariant under any sign pattern, in any dimension
    for g in [(1,), (1, 1), (1, 1, 1)]:
        rule = LatticeRule(2, g)
        ds = wce_double_sum(
            SpaceSpec("cosine", 1, (1.0,) * len(g)), tent_transform(lattice_points(rule)), POL
        )
        closed = wce_cosine_tent(rule, 1, (1.0,) * len(g)).e2
        assert abs(ds.e2 - closed) <= 1e-8 + ds.tail_bound
        periodic = wce_korobov_lattice(rule, 1, (1.0,) * len(g)).e2
        assert abs(ds.e2 - periodic) <= 1e-8 + ds.tail_bound


@pytest.mark.parametrize("alpha", [1, 2])
def test_symmetrized_korcos_route_is_the_mean_of_the_half_spaces(alpha):
    # e2 is linear in the kernel, and symmetrization leaves the korobov half
    # at the plain-lattice value while the cosine half rescales to gamma/4^a
    for N in range(2, 11):
        rule = LatticeRule(N, (1,))
        ds = wce_double_sum(SpaceSpec("korcos", alpha, (1.0,)), symmetrize(rule), POL)
        half = 0.5 * (
            wce_korobov_lattice(rule, alpha, (1.0,)).e2 + wce_cosine_sym(rule, alpha, (1.0,)).e2
        )
        assert abs(ds.e2 - half) <= 1e-8 + ds.tail_bound, (alpha, N)


def test_symmetrized_korcos_exact_value_two_nodes():
    # hand value 5 pi^2 / 96 for N=2, g=(1): mean of pi^2/12 and pi^2/48
    rule = LatticeRule(2, (1,))
    ds = wce_double_sum(SpaceSpec("korcos", 1, (1.0,)), symmetrize(rule), POL)
    assert ds.tail_bound == 0.0
    assert ds.e2 == pytest.approx(5.0 * PI**2 / 96.0, rel=1e-13)
    res = wce_korcos_sym(rule, 1, (1.0,))
    assert res.e2 == pytest.approx(5.0 * PI**2 / 96.0, rel=1e-13)
    assert res.method is WceMethod.FOLD_AVERAGE_DOUBLE_SUM
    assert res.tail_bound == 0.0


def _gamma_n(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff of binary64."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def _box_halfwidth(alpha, gammas, tol):
    """H with 2 gamma H^(1 - 2 alpha) / (2 alpha - 1) <= tol / (3 s) per coordinate."""
    per_dim = tol / (3.0 * len(gammas))
    return max(1, math.ceil(max(
        (2.0 * g / (per_dim * (2.0 * alpha - 1.0))) ** (1.0 / (2.0 * alpha - 1.0)) for g in gammas
    )))


def _box_tail(alpha, gammas, H):
    """Dropped weight outside the box: sum_j tail_j prod_{i != j} (1 + 2 gamma_i zeta(2 alpha))."""
    z2a = zeta(2.0 * alpha)
    tails = [2.0 * g * H ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0) for g in gammas]
    full = [1.0 + 2.0 * g * z2a for g in gammas]
    return sum(t * math.prod(f for i, f in enumerate(full) if i != j) for j, t in enumerate(tails))


@pytest.mark.parametrize("alpha", [1.5, 2.5, 3.5])
def test_dual_lattice_route_is_the_weight_product_sum(alpha):
    """The aliased single sum against math.fsum over the enumerated dual box.

    The exact e^2 is the sum of the positive weight products
    prod_{j: h_j != 0} gamma_j |h_j|^(-2 alpha) over the nonzero dual
    vectors, so the box sum S_H lies below it by at most the dropped weight
    _box_tail.  The oracle rounds s - 1 products and one fsum: it is within
    gamma_s S_H <= gamma_s / (1 - gamma_s) oracle of S_H.  The route is
    within its tail of the single sum over the exact table; rounding the
    s factors 1 + gamma_j Omega (two operations each), their product, the
    mean and the "- 1" moves it by at most gamma_{3s+2} prod_j (1 + 2
    gamma_j zeta(2 alpha)), since |Omega| <= 2 zeta(2 alpha).  So the route
    exceeds the oracle by at most the box tail plus these, and falls below
    it by at most its tail plus the rounding terms.
    """
    pol = TruncationPolicy(tol=1e-2 if alpha < 2 else 1e-6)
    for rule, gammas, policy in (
        (LatticeRule(31, (1, 12)), (1.0, 0.5), pol),
        (LatticeRule(17, (1, 5, 7)), (0.8, 0.4, 0.2), pol),
        # g is not a unit mod 12, nor mod 20
        (LatticeRule(12, (2, 3)), (0.3, 0.9), pol),
        (LatticeRule(20, (4, 5, 10)), (0.9, 0.6, 0.3), pol),
        (LatticeRule(9, (3,)), (0.7,), pol),
        # a coarse tol keeps the enumerated four-dimensional box small
        (LatticeRule(13, (1, 5, 8, 12)), (1.0, 0.6, 0.4, 0.3), TruncationPolicy(tol=0.5)),
    ):
        s = rule.s
        H = _box_halfwidth(alpha, gammas, policy.tol)
        res = wce_korobov_lattice(rule, alpha, gammas, policy)
        assert res.method is WceMethod.ALIASED_SINGLE_SUM
        assert 0.0 < res.tail_bound < 1e-10
        hs = np.abs(dual_lattice(rule, H))
        assert len(hs) > 0
        prod = np.ones(len(hs))
        for j, g in enumerate(gammas):
            table = np.array([1.0] + [g * float(k) ** (-2.0 * alpha) for k in range(1, H + 1)])
            prod *= table[hs[:, j]]
        oracle = math.fsum(prod.tolist())
        full = math.prod(1.0 + 2.0 * g * zeta(2.0 * alpha) for g in gammas)
        rounding = _gamma_n(3 * s + 2) * full + _gamma_n(s) / (1.0 - _gamma_n(s)) * oracle
        assert res.e2 - oracle <= _box_tail(alpha, gammas, H) + res.tail_bound + rounding, (rule, alpha)
        assert oracle - res.e2 <= res.tail_bound + rounding, (rule, alpha)


def test_dual_lattice_route_reaches_four_dimensions():
    # the enumerated dual box at this tolerance would hold (2H + 1)^4 = 221^4
    # candidates; the single sum visits the 1021 nodes
    rule = LatticeRule(1021, (1, 76, 388, 120))
    gammas = (1.0, 0.5, 0.25, 0.125)
    policy = TruncationPolicy(tol=1e-3)
    res = wce_korobov_lattice(rule, 1.5, gammas, policy)
    assert res.method is WceMethod.ALIASED_SINGLE_SUM
    ds = wce_double_sum(SpaceSpec("korobov", 1.5, gammas), lattice_points(rule), policy)
    assert abs(res.e2 - ds.e2) <= res.tail_bound + ds.tail_bound
    assert res.e2 > 0.0


def test_dual_lattice_route_caps_fail_before_any_work():
    # the policy is not used: a tolerance no truncated series could meet costs nothing
    rule = LatticeRule(4, (1,))
    assert wce_korobov_lattice(rule, 1.5, (1.0,), TruncationPolicy(tol=1e-14, max_terms=1)) == (
        wce_korobov_lattice(rule, 1.5, (1.0,)))
    # one cap on N, checked before the table is built: N = 2^30 would need
    # 8 GiB per table array, and is refused at once
    with pytest.raises(ValueError, match="capped"):
        wce_korobov_lattice(LatticeRule(1 << 30, (1, 3)), 1.5, (1.0, 1.0))
    above = LatticeRule(_TABLE_CAP + 1, (1,))
    for alpha in (1, 1.5):
        for fn in (wce_korobov_lattice, wce_cosine_tent, wce_korcos_sym, wce_cosine_sym):
            with pytest.raises(ValueError, match="capped"):
                fn(above, alpha, (1.0,))


@pytest.mark.parametrize("alpha", [0.5000001, 0.75, 1.5, 2.5])
@pytest.mark.parametrize("N", [2, 7, 64, 1021, 4096])
def test_korobov_error_in_one_dimension_is_the_zeta_value(alpha, N):
    """At s = 1 the dual lattice is N Z, so e^2 = 2 gamma N^(-2 alpha) zeta(2 alpha).

    The route is within its tail of the single sum over the exact table.
    Rounding 1 + gamma Omega, the mean and the "- 1" adds at most
    3u (1 + gamma max|Omega| + e^2), and the oracle is within a few u of
    its value; 8u (1 + 2 gamma zeta(2 alpha) + e^2) covers both, since
    |Omega| <= 2 zeta(2 alpha).
    """
    gamma = 0.7
    z = zeta(2.0 * alpha)
    want = 2.0 * gamma * z * float(N) ** (-2.0 * alpha)
    res = wce_korobov_lattice(LatticeRule(N, (1,)), alpha, (gamma,))
    assert res.method is WceMethod.ALIASED_SINGLE_SUM
    rounding = 8.0 * 2.0**-53 * (1.0 + 2.0 * gamma * z + want)
    assert abs(res.e2 - want) <= res.tail_bound + rounding, (res.e2, want, res.tail_bound)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.5])
def test_smoothness_must_be_finite_and_above_one_half(alpha):
    rule = LatticeRule(5, (1, 2))
    calls = [
        lambda: SpaceSpec("korobov", alpha, (1.0,)),
        lambda: kernel_factor("cosine", alpha, 1.0, 0.2, 0.3),
        lambda: wce_korobov_lattice(rule, alpha, (1.0, 1.0)),
        lambda: wce_cosine_tent(rule, alpha, (1.0, 1.0)),
        lambda: wce_korcos_sym(rule, alpha, (1.0, 1.0)),
        lambda: wce_cosine_sym(rule, alpha, (1.0, 1.0)),
        lambda: cbc_bound_constant(alpha, (1.0,)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="alpha must be finite"):
            call()


@pytest.mark.parametrize("alpha", [1.5, 2.5])
@pytest.mark.parametrize("N,g", [(5, (2,)), (5, (1, 2)), (6, (1, 5)), (3, (2, 2, 2))])
def test_fold_average_routes_match_double_sum_for_fractional_alpha(alpha, N, g):
    rule = LatticeRule(N, g)
    gammas = (1.0, 0.5, 0.25)[: len(g)]
    for family, nodes, fn in (
        ("cosine", tent_transform(lattice_points(rule)), wce_cosine_tent),
        ("korcos", symmetrize(rule), wce_korcos_sym),
        ("cosine", symmetrize(rule), wce_cosine_sym),
    ):
        ds = wce_double_sum(SpaceSpec(family, alpha, gammas), nodes, POL)
        res = fn(rule, alpha, gammas, POL)
        assert res.method is WceMethod.FOLD_AVERAGE_DOUBLE_SUM
        assert res.tail_bound > 0.0
        assert abs(ds.e2 - res.e2) <= ds.tail_bound + res.tail_bound, (family, alpha, N, g)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_fold_average_routes_are_exact_and_repeatable(alpha):
    rule = LatticeRule(1031, (1, 304, 555, 42))
    gammas = (1.0, 0.5, 0.25, 0.125)
    for fn in (wce_cosine_tent, wce_korcos_sym, wce_cosine_sym):
        a, b = fn(rule, alpha, gammas), fn(rule, alpha, gammas)
        assert a.method is WceMethod.FOLD_AVERAGE_DOUBLE_SUM
        assert a.tail_bound == 0.0
        assert a.e2 == b.e2
        assert 0.0 < a.e2 <= wce_korobov_lattice(rule, alpha, gammas).e2


# the gamma scale each wrapper applies before the fold average
_FOLD_SCALES = {
    wce_cosine_tent: lambda alpha: 1.0,
    wce_korcos_sym: lambda alpha: 0.5 * (1.0 + 4.0 ** -alpha),
    wce_cosine_sym: lambda alpha: 4.0 ** -alpha,
}


def _fold_average_by_pairs(rule, alpha, gammas):
    """Direct fold-average pair sum: (e2, M / N^2, tail bound).

    e2 = N^-2 sum_{n,n'} prod_j (A_j[n - n'] + A_j[n + n']) - 1 with
    A_j[m] = (1 + gamma_j Omega[m g_j mod N]) / 2 from the shared omega
    table, M the same pair sum over |A_j[n - n']| + |A_j[n + n']|, and the
    tail bound propagated from the per-pair factor maxima, with factor
    bound gamma_j times the table's, as the double sum does.
    """
    N = rule.N
    m = np.arange(N)
    lo, hi = (m[:, None] - m) % N, (m[:, None] + m) % N
    om, bound = _omega_table(alpha, N)
    terms, mags, maxv, bnds = np.ones((N, N)), np.ones((N, N)), [], []
    for g_j, gamma in zip(rule.g, gammas):
        bnd = gamma * bound
        A = 0.5 * (1.0 + gamma * om[m * g_j % N])
        terms = terms * (A[lo] + A[hi])
        mags = mags * (np.abs(A[lo]) + np.abs(A[hi]))
        maxv.append(float(np.abs(A[lo] + A[hi]).max()))
        bnds.append(bnd)
    e2 = math.fsum(terms.ravel().tolist()) / (N * N) - 1.0
    return e2, float(mags.sum()) / (N * N), _product_tail(bnds, maxv)


def _gamma_k(k):
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


@pytest.mark.parametrize("alpha", [1, 1.5, 2, 3])
@pytest.mark.parametrize("N,g", [
    (2, (1,)), (7, (3,)), (8, (1, 3)), (9, (3, 6)), (12, (2, 3)), (15, (1, 4, 11)),
    (16, (1, 6, 10, 14)), (21, (1, 4, 9, 14, 20)), (24, (1, 5, 6, 9, 16)),
])
def test_fold_average_routes_match_the_direct_pair_sum(alpha, N, g):
    """Factorised subset sums against the direct pair sum, with a derived tolerance.

    Both routes approximate T = sum_{n,n'} prod_j (A_j[n - n'] + A_j[n + n'])
    from the same stored A_j; let M be that sum over the magnitudes
    |A_j[n - n']| + |A_j[n + n']|, u = 2^-53 and gamma_k = k u / (1 - k u).
    The direct sum rounds s additions and s - 1 multiplications per pair
    term, then math.fsum once: |T_direct - T| <= gamma_2s M.  The
    factorised route rounds at most s - 1 multiplications per leaf term,
    once in each leaf fsum, once per product P_S P_{S^c} and once in the
    last fsum (the even-N factor 2 is exact), and sum_S |P|_S |P|_{S^c} = M:
    |T_fold - T| <= gamma_{2s+2} M.  Dividing by N^2 (exact in float) and
    subtracting 1 round twice more, and |e2| <= M / N^2 + 1, so the two e2
    differ by at most gamma_{4s+8} (M / N^2 + 1).  M is itself computed in
    floating point; its relative error gamma_2s is far inside the slack.
    The tail bound uses the same per-factor bounds and, per factor, the
    same maximum, so it matches bit for bit.
    """
    s = len(g)
    rule = LatticeRule(N, g)
    gammas = (1.0, 0.5, 2.0, 0.25, 0.125)[:s]
    for fn, scale in _FOLD_SCALES.items():
        c = scale(float(alpha))
        e2, mag, tail = _fold_average_by_pairs(rule, alpha, [gm * c for gm in gammas])
        res = fn(rule, alpha, gammas, POL)
        assert res.method is WceMethod.FOLD_AVERAGE_DOUBLE_SUM
        assert res.tail_bound == tail, (fn.__name__, N, g)
        assert abs(res.e2 - e2) <= _gamma_k(4 * s + 8) * (mag + 1.0), (fn.__name__, N, g)


@pytest.mark.parametrize("N", [8191, 8192])
@pytest.mark.parametrize("g1", [1, 3])
def test_cosine_tent_is_the_korobov_error_in_one_dimension_above_4096_nodes(N, g1):
    """In one dimension the fold average is the Korobov single sum.

    Both reduce the table F[m g_1 mod N] (all positive here, as gamma = 1/2
    keeps 1 + gamma omega > 0): the Korobov route as fsum(F) / N, the fold
    average as fsum-ed leaf sums (two for even N) times N, added by fsum and
    divided by N^2.  With every term positive that is at most four
    roundings against two, relative to e2 + 1, plus one in each "- 1", so
    they differ by at most gamma_6 (e2 + 1) + 2 u |e2| <= gamma_8 (e2 + 1).
    """
    rule = LatticeRule(N, (g1,))
    tent = wce_cosine_tent(rule, 1, (0.5,))
    kor = wce_korobov_lattice(rule, 1, (0.5,))
    assert tent.tail_bound == 0.0
    assert abs(tent.e2 - kor.e2) <= _gamma_k(8) * (kor.e2 + 1.0)


@pytest.mark.parametrize("fn", [wce_cosine_tent, wce_korcos_sym, wce_cosine_sym])
def test_fold_average_routes_refuse_rules_above_the_work_cap(fn, monkeypatch):
    # 2^s N = 2^8 (2^16 + 1) is just above the cap and is refused before
    # the omega table is built; 2^8 2^16 is at the cap and runs
    assert _FOLD_WORK_CAP == 1 << 24
    g = (1, 3, 5, 7, 9, 11, 13, 15)
    with monkeypatch.context() as mp:
        mp.setattr(wce, "_omega_table", lambda *a, **k: pytest.fail("work before the cap"))
        with pytest.raises(ValueError, match="capped"):
            fn(LatticeRule((1 << 16) + 1, g), 1, (1.0,) * 8)
    at_cap = fn(LatticeRule(1 << 16, g), 1, (0.5,) * 8)
    assert at_cap.method is WceMethod.FOLD_AVERAGE_DOUBLE_SUM
    assert at_cap.e2 > 0.0


def test_symmetrization_leaves_korobov_error_unchanged_in_one_dimension():
    for N in range(2, 11):
        for g1 in range(1, N):
            rule = LatticeRule(N, (g1,))
            ds = wce_double_sum(SpaceSpec("korobov", 1, (1.0,)), symmetrize(rule), POL)
            closed = wce_korobov_lattice(rule, 1, (1.0,)).e2
            assert abs(ds.e2 - closed) <= 1e-8 + ds.tail_bound, (N, g1)


@pytest.mark.parametrize("N,g", [(3, (1, 2)), (4, (1, 3)), (8, (1, 5))])
def test_symmetrized_korobov_error_is_the_sign_projection(N, g):
    # partial reflections turn coordinate differences into sums, so the rule's
    # transform at h is q(h), not the plain dual indicator; the value drops
    # below the plain-lattice error whenever a sign class is deficient
    rule = LatticeRule(N, g)
    ds = wce_double_sum(SpaceSpec("korobov", 1, (1.0, 1.0)), symmetrize(rule), POL)
    H = 4000
    proj = _sign_projection_sum(N, g, H)
    box_tail = 2.0 * (1.0 + PI**2 / 3.0) * 2.0 / H
    assert abs(ds.e2 - proj) <= 1e-8 + ds.tail_bound + box_tail
    assert wce_korobov_lattice(rule, 1, (1.0, 1.0)).e2 - ds.e2 > 0.4


def test_cosine_sym_is_the_symmetrized_double_sum():
    # the Korobov value with weights gamma 4^-alpha equals it in s = 1 and
    # bounds it from above in s >= 2
    rng = np.random.default_rng(3)
    for _ in range(8):
        N = int(rng.integers(2, 40))
        s = int(rng.integers(1, 4))
        g = tuple(int(v) for v in rng.integers(1, N, size=s))
        gammas = tuple(float(v) for v in rng.uniform(0.2, 2.0, size=s))
        rule = LatticeRule(N, g)
        for alpha in (1, 2, 3):
            a = wce_cosine_sym(rule, alpha, gammas)
            assert a.method is WceMethod.FOLD_AVERAGE_DOUBLE_SUM
            assert a.tail_bound == 0.0
            ds = wce_double_sum(SpaceSpec("cosine", alpha, gammas), symmetrize(rule), POL)
            assert abs(a.e2 - ds.e2) <= 1e-8 + ds.tail_bound, (N, g, alpha)
            b = wce_korobov_lattice(
                rule, alpha, tuple(gv * 4.0**-alpha for gv in gammas)
            ).e2
            if s == 1:
                assert a.e2 == pytest.approx(b, rel=1e-12, abs=1e-15)
            else:
                assert a.e2 <= b + 1e-12 * b + 1e-15, (N, g, alpha)
    assert wce_cosine_sym(LatticeRule(2, (1,)), 1, (1.0,)).e2 == pytest.approx(
        PI**2 / 48.0, rel=1e-13
    )
    assert wce_cosine_sym(LatticeRule(4, (1,)), 1, (1.0,)).e2 == pytest.approx(
        PI**2 / 192.0, rel=1e-13
    )
    # N=5, g=(1,2): the symmetrized rule is strictly better than the bound
    five = LatticeRule(5, (1, 2))
    gap = wce_korobov_lattice(five, 1, (0.25, 0.25)).e2 - wce_cosine_sym(five, 1, (1.0, 1.0)).e2
    assert gap > 0.05


def test_cosine_sym_matches_double_sum_in_one_dimension():
    for alpha in (1, 2):
        for N in range(2, 9):
            rule = LatticeRule(N, (1,))
            ds = wce_double_sum(SpaceSpec("cosine", alpha, (1.0,)), symmetrize(rule), POL)
            closed = wce_cosine_sym(rule, alpha, (1.0,)).e2
            assert abs(ds.e2 - closed) <= 1e-8 + ds.tail_bound, (alpha, N)


def test_cosine_sym_matches_double_sum_for_sign_closed_duals():
    rule = LatticeRule(2, (1, 1))
    ds = wce_double_sum(SpaceSpec("cosine", 1, (1.0, 1.0)), symmetrize(rule), POL)
    closed = wce_cosine_sym(rule, 1, (1.0, 1.0)).e2
    # hand value: 5 pi^4 / 1152 + pi^2 / 24
    assert closed == pytest.approx(5.0 * PI**4 / 1152.0 + PI**2 / 24.0, rel=1e-12)
    assert abs(ds.e2 - closed) <= 1e-8 + ds.tail_bound


def test_cosine_sym_never_exceeds_tent():
    rng = np.random.default_rng(11)
    for _ in range(10):
        N = int(rng.integers(2, 17))
        s = int(rng.integers(1, 4))
        g = tuple(int(v) for v in rng.integers(1, N, size=s))
        gammas = (1.0,) * s
        a = wce_cosine_sym(LatticeRule(N, g), 1, gammas).e2
        b = wce_cosine_tent(LatticeRule(N, g), 1, gammas).e2
        assert a <= b + 1e-14


def test_wce_nonnegative():
    for res in (
        wce_korobov_lattice(LatticeRule(9, (1, 7)), 1, (0.3, 0.1)),
        wce_double_sum(SpaceSpec("korcos", 1, (1.0,)), symmetrize(LatticeRule(3, (1,))), POL),
        wce_double_sum(
            SpaceSpec("cosine", 2, (0.5, 0.5)),
            tent_transform(lattice_points(LatticeRule(6, (1, 5)))),
            POL,
        ),
    ):
        assert res.e2 >= -1e-10


def test_double_sum_is_thread_count_invariant():
    # 64 nodes fill one row block; the 701 tent nodes take four, in folded
    # order, so the per-block row tables and the thread pool both run
    for ps in (symmetrize(LatticeRule(31, (1, 18))),
               tent_transform(lattice_points(LatticeRule(701, (1, 194, 142))))):
        spec = SpaceSpec("cosine", 1, (1.0, 0.7, 0.5, 0.3)[: ps.s])
        a = wce_double_sum(spec, ps, POL, threads=1)
        b = wce_double_sum(spec, ps, POL, threads=4)
        assert a.e2 == b.e2, len(ps)
        assert a.tail_bound == b.tail_bound, len(ps)
        assert wce_double_sum(spec, ps, POL, threads=None) == a
        for bad in (0, -3):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                wce_double_sum(spec, ps, POL, threads=bad)


def _direct_products(spec, ps, policy):
    """Every kernel factor evaluated at every node pair, multiplied in
    coordinate order: (the M x M products, maxv, bnds).  At alpha outside
    1..3, a korobov, cosine or korcos set whose coordinates give an N with
    2 N within the table's cap, ``_table_modulus``, reads every pair's
    factor from Omega_2N at the numerators rint(x N), as the double sum's
    table route does; any other set evaluates kernel_factor."""
    X = ps.points
    M, s = X.shape
    closed = spec.family == "sobolev" or spec.alpha in (1, 2, 3)
    N = None if closed else _table_modulus(X.T)
    table = N is not None
    if table:
        om, b = _omega_table(spec.alpha, 2 * N)
        half = np.append(om, om[0]) / 2
        P = np.rint(X * N).astype(np.intp)
    prod, maxv, bnds = 1.0, np.empty(s), np.empty(s)
    for j in range(s):
        if table:
            vals, bnds[j] = table_factor(
                spec.family, spec.gammas[j], half, b, P[:, j][:, None], P[None, :, j])
        else:
            vals, bnds[j] = kernel_factor(
                spec.family, spec.alpha, spec.gammas[j], X[:, j][:, None], X[None, :, j], policy,
            )
        maxv[j] = float(np.abs(vals).max())
        prod = prod * vals
    return prod, maxv, bnds


def _off_lattice(ps):
    """The nodes moved to x + 2^-10 sin(2 pi x), weights kept.  The map is
    increasing, and fixes 0, 1/2 and 1, so equal values stay equal and
    their ranks, which fold tiles and slabs, stay; but the coordinates give
    no denominator, so the double sum evaluates kernel_factor on them, the
    series at non-integer alpha."""
    X = ps.points
    moved = WeightedPointSet(X + 2.0**-10 * np.sin(2 * np.pi * X), ps.weights)
    assert _denominator(moved.points) is None
    return moved


def _direct_double_sum(spec, ps, policy):
    """The full product reduced as wce_double_sum reduces it, one einsum per
    row and one fsum over the weighted rows: (e2, tail_bound)."""
    prod, maxv, bnds = _direct_products(spec, ps, policy)
    w = ps.weights
    rows = w * np.einsum("ij,j->i", prod, w)
    return math.fsum(rows) - 1.0, _product_tail(bnds, maxv)


def _oracle_point_sets():
    rng = np.random.default_rng(2024)
    grid = np.array([[a / 6.0, b / 6.0, c / 3.0] for a in range(7) for b in range(7)
                     for c in range(4)])
    grid_w = 1.0 + np.arange(len(grid)) % 3
    rand_w = rng.uniform(0.5, 1.5, size=120)
    sym = symmetrize(LatticeRule(251, (1, 76, 114)))
    perm = np.random.default_rng(5).permutation(len(sym))
    return [
        lattice_points(LatticeRule(61, (1, 17, 23))),
        tent_transform(lattice_points(LatticeRule(64, (1, 27, 15)))),
        symmetrize(LatticeRule(31, (1, 18, 7))),
        # 1008 nodes in folded order, where each tile gathers its distinct
        # table rows into a slab; shuffled, the same bits
        sym,
        WeightedPointSet(sym.points[perm], sym.weights[perm]),
        # reflection orbits of 32 rows, two to a tile of 64
        symmetrize(LatticeRule(31, (1, 12, 5, 3, 9))),
        # odd N: rows n and N - n coincide in 72 pairs, in folded order, but
        # a tile of 46 rows has too few repeats for a slab; 4 blocks
        tent_transform(lattice_points(LatticeRule(701, (1, 194, 142)))),
        # 608 nodes, row tiles of _TILE // 608 = 53 rows: the last is partial
        symmetrize(LatticeRule(151, (1, 58, 40))),
        # repeated grid values, uneven weights
        WeightedPointSet(grid, grid_w / math.fsum(grid_w)),
        # every coordinate value distinct
        WeightedPointSet(rng.random((120, 3)), rand_w / math.fsum(rand_w)),
    ]


@pytest.mark.parametrize(
    "family,alpha",
    [("sobolev", a) for a in (1, 2, 3)]
    + [(f, a) for f in ("korobov", "cosine", "korcos") for a in (1, 1.5, 2, 3)],
)
def test_double_sum_tables_match_the_direct_evaluation(family, alpha):
    # copies moved off p / N: the series at alpha = 1.5 on every set
    for ps in map(_off_lattice, _oracle_point_sets()):
        spec = SpaceSpec(family, alpha, (1.0, 0.7, 0.4, 0.3, 0.2)[:ps.s])
        got = wce_double_sum(spec, ps, POL)
        e2, tail = _direct_double_sum(spec, ps, POL)
        assert got.e2 == e2, len(ps)
        assert got.tail_bound == tail, len(ps)


@pytest.mark.parametrize("family,alpha", [(f, a) for f in ("korobov", "cosine", "korcos")
                                          for a in (0.75, 1.5, 2.5)])
def test_double_sum_table_route_matches_the_direct_evaluation(family, alpha):
    # the sets whose coordinates give a denominator, the rule-derived ones
    # and the grid: every table from Omega_2N
    for ps in _oracle_point_sets():
        if _denominator(ps.points) is None:
            continue
        spec = SpaceSpec(family, alpha, (1.0, 0.7, 0.4, 0.3, 0.2)[:ps.s])
        got = wce_double_sum(spec, ps, TruncationPolicy(tol=1e-300, max_terms=1))
        e2, tail = _direct_double_sum(spec, ps, POL)
        assert got.e2 == e2, len(ps)
        assert got.tail_bound == tail, len(ps)
        assert 0.0 < tail < 1e-9, len(ps)


def _shared_parts_sets():
    """A rule's sym set, whose coordinates hold the same values p / N, and
    a float set in which coordinates 0 and 1 take the same 40 values and
    coordinate 2 the same but one, 120 nodes each with uneven weights."""
    rng = np.random.default_rng(30)
    u = rng.random(40)
    v = u.copy()
    v[17] = 0.5 * (u[17] + u[18])
    X = np.stack([np.tile(c, 3)[rng.permutation(120)] for c in (u, u, v)], axis=1)
    w = rng.uniform(0.5, 1.5, size=120)
    return [symmetrize(LatticeRule(31, (1, 12, 5))), WeightedPointSet(X, w / math.fsum(w))]


@pytest.mark.parametrize(
    "family,alpha",
    [(f, a) for f in ("sobolev", "korobov", "cosine", "korcos") for a in (1, 2, 3)]
    + [(f, 1.5) for f in ("korobov", "cosine", "korcos")],
)
def test_double_sum_shared_parts_match_per_coordinate_factors(family, alpha):
    # coordinates with bit-equal values share one gamma-free evaluation per
    # block, and each must still get its own kernel_factor (or Omega_2N)
    # table with its own gamma_j; a float coordinate one value apart from
    # the others, with as many values, must not share
    spec = SpaceSpec(family, alpha, (1.0, 0.6, 0.3))
    for ps in _shared_parts_sets():
        got = wce_double_sum(spec, ps, POL)
        e2, tail = _direct_double_sum(spec, ps, POL)
        assert got.e2 == e2, len(ps)
        assert got.tail_bound == tail, len(ps)


def test_double_sum_bits_do_not_depend_on_block_tile_or_threads(monkeypatch):
    # (100, 2^12) splits rows into blocks that a BLAS matvec reduced with
    # other bits; (7, 97) and (4096, 1) reduce one row per tile.  The 521
    # plain lattice nodes, distinct in every coordinate, take blocks below
    # _ROW_BLOCK rows, which keep their s tables within a _ROW_BLOCK-by-M
    # block.  korcos at alpha = 1.5 has a nonzero tail bound: it reads
    # Omega_2N on the rule-derived sets and sums series, under a coarse
    # policy to keep them cheap, on the grid and random sets, which the
    # small blocks split too; cosine at alpha = 2 is a closed form.
    pol = TruncationPolicy(tol=1e-2)
    rule = cbc_construct(127, 4, 2, (1.0, 1 / 4, 1 / 9, 1 / 16)).rule
    distinct = lattice_points(LatticeRule(521, (1, 191, 260)))
    sets = _oracle_point_sets() + [symmetrize(rule), distinct]
    cases = [(SpaceSpec(family, alpha, (1.0, 0.7, 0.4, 0.3, 0.2)[:ps.s]), ps)
             for family, alpha in (("korcos", 1.5), ("cosine", 2)) for ps in sets]
    refs = [wce_double_sum(spec, ps, pol) for spec, ps in cases]
    for block, tile in ((100, 1 << 12), (7, 97), (4096, 1)):
        monkeypatch.setattr(wce, "_ROW_BLOCK", block)
        monkeypatch.setattr(wce, "_TILE", tile)
        for threads in (None, 1, 2, 3):
            for (spec, ps), ref in zip(cases, refs):
                got = wce_double_sum(spec, ps, pol, threads=threads)
                key = (spec.family, block, tile, threads, len(ps))
                assert got.e2 == ref.e2, key
                assert got.tail_bound == ref.tail_bound, key


@pytest.mark.parametrize("family,alpha", [("korobov", 2), ("korcos", 1.5), ("sobolev", 1)])
def test_double_sum_reduction_error_is_within_its_derived_bound(family, alpha):
    """1 + e2 against S = sum_{i,k} w_i P_ik w_k, summed exactly over the
    same float products P_ik.

    With u = 2^-53, gamma_M = M u / (1 - M u), a_i = sum_k |P_ik| w_k and
    A = sum_i w_i a_i:
    - einsum's row sum r^_i of r_i = sum_k P_ik w_k: whatever order or fused
      multiply-adds it takes, each term meets at most one multiplication and
      M - 1 additions, so |r^_i - r_i| <= gamma_M a_i, and |r^_i| <=
      (1 + gamma_M) a_i;
    - q_i = fl(w_i r^_i) adds one rounding, u w_i |r^_i|; with the above,
      |sum_i q_i - S| <= E A, E = gamma_M + u (1 + gamma_M);
    - math.fsum rounds sum_i q_i correctly: at most u |sum_i q_i| <=
      u (|S| + E A);
    - e2 = fl(F - 1) for the sum F: at most u |F - 1| <= u |e2| / (1 - u).
    So |e2 + 1 - S| <= E A + u (|S| + E A) + u |e2| / (1 - u).
    """
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 1.5, size=80)
    sets = [
        _off_lattice(lattice_points(LatticeRule(61, (1, 17, 23)))),
        _off_lattice(tent_transform(lattice_points(LatticeRule(64, (1, 27, 15))))),
        WeightedPointSet(rng.random((80, 3)), w / math.fsum(w)),
    ]
    for ps in sets:
        _check_reduction_bound(SpaceSpec(family, alpha, (1.0, 0.7, 0.4)), ps)


@pytest.mark.parametrize("family", ["korobov", "cosine", "korcos"])
def test_table_route_reduction_error_is_within_its_derived_bound(family):
    # the same bound on the table route: rule-derived sets at alpha = 1.5
    for ps in (lattice_points(LatticeRule(61, (1, 17, 23))),
               tent_transform(lattice_points(LatticeRule(64, (1, 27, 15))))):
        _check_reduction_bound(SpaceSpec(family, 1.5, (1.0, 0.7, 0.4)), ps)


def _check_reduction_bound(spec, ps):
    """The bound of test_double_sum_reduction_error_is_within_its_derived_bound."""
    u = Fraction(1, 1 << 53)
    e2 = wce_double_sum(spec, ps, POL).e2
    prod, _, _ = _direct_products(spec, ps, POL)
    M = len(ps)
    wf = [Fraction(x) for x in ps.weights]
    S = A = Fraction(0)
    for i in range(M):
        terms = [Fraction(p) * wk for p, wk in zip(prod[i].tolist(), wf)]
        S += wf[i] * sum(terms)
        A += wf[i] * sum(abs(t) for t in terms)
    gamma_M = M * u / (1 - M * u)
    E = gamma_M + u * (1 + gamma_M)
    bound = E * A + u * (abs(S) + E * A) + u * abs(Fraction(e2)) / (1 - u)
    assert abs(Fraction(e2) + 1 - S) <= bound, (M, float(bound))


def _traced_peak(fn):
    """Traced peak of fn() in bytes above what was traced when it started."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _double_sum_block_peak(spec, X, rows, policy):
    """Traced bytes one double-sum block of ``rows`` rows may hold: its s
    tables, built one after another and then all kept, plus three tiles.
    Whichever rows the block holds, table j is at most min(rows, U_j) by
    U_j, U_j the set's distinct values in coordinate j."""
    M, s = X.shape
    tables, build = 0, 0
    for j in range(s):
        cu = np.unique(X[:, j])
        ru = cu[:rows]
        peak = _traced_peak(lambda: kernel_factor(
            spec.family, spec.alpha, spec.gammas[j], ru[:, None], cu[None, :], policy))
        build = max(build, tables + peak)
        tables += ru.size * cu.size * 8
    return max(build, tables + 3 * wce._TILE * 8)


@pytest.mark.parametrize("nodes,threads", [("symmetrized", 1), ("distinct", 1),
                                           ("symmetrized", 2), ("distinct", 2)])
def test_double_sum_peak_memory_is_the_block_tables_and_three_tiles(nodes, threads):
    """Traced peak of one double sum over 2040 nodes, s = 3.

    A block builds its s kernel tables one after another, each over the
    block's distinct values times the set's, and keeps them all; it takes
    each table's largest magnitude with no table-sized temporary.  Then, a
    tile at a time, it gathers the tables into a product tile and a work
    tile, each of at most _TILE values, through one scratch tile: a
    row-indexed table slice, or a tile's d distinct table rows and their
    d-by-M slab, which fit it when 2 d is at most the tile's rows.
    So one block holds at most
      max over j of (tables 0 .. j-1 + traced peak of building table j),
      or all s tables + 3 * _TILE * 8 bytes, whichever is larger,
    and the peak is at most ``threads`` such blocks (the largest), since each
    worker runs one block at a time, + 1 MiB slack: np.unique values and
    inverses of the set and of a block, 4 s M words; the folded row order
    and its keys, (s + 1) M words; per folded coordinate, a block's tile
    pairs and their sort, at most 8 M words, of which 2 M are kept; the row
    sums, 4 M words; 0.5 MiB together, and small arrays.  A set whose own
    tables, sum_j U_j^2 values, fit in a _ROW_BLOCK-by-M array is one block;
    otherwise a block takes the whole tiles of _TILE // M = 16 rows that fit
    in _ROW_BLOCK * M // sum_j U_j rows.  The symmetrized set (N = 509) has
    510 distinct values per coordinate and is one block; the random set has
    2040, so its blocks take 160 rows and its tables together hold no more
    than a _ROW_BLOCK-by-M block.  A block-by-M product buffer, or all of a
    512-row block's tables over 2040 distinct values, does not fit.
    """
    if nodes == "symmetrized":
        ps = symmetrize(LatticeRule(509, (1, 191, 85)))
    else:
        x = np.random.default_rng(3).random((2040, 3))
        ps = WeightedPointSet(x, np.full(2040, 1 / 2040))
    X = ps.points
    M, s = X.shape
    assert M == 2040 and wce._TILE < M * _ROW_BLOCK
    U = [np.unique(X[:, j]).size for j in range(s)]
    t = wce._TILE // M
    if sum(u * u for u in U) <= _ROW_BLOCK * M:
        rb = M
    else:
        rb = _ROW_BLOCK * M // sum(U) // t * t
    assert rb == (M if nodes == "symmetrized" else 160)
    spec = SpaceSpec("korobov", 1, (1.0, 0.5, 0.25))
    block = _double_sum_block_peak(spec, X, rb, POL)
    bound = threads * block + (1 << 20)
    peak = _traced_peak(lambda: wce_double_sum(spec, ps, POL, threads=threads))
    assert peak <= bound, (peak / 2**20, bound / 2**20)


_TAIL_ROUTES = {
    "korobov": lambda a: wce_korobov_lattice(LatticeRule(31, (1, 12)), a, (1.0, 0.5)),
    "cosine-tent": lambda a: wce_cosine_tent(LatticeRule(31, (1, 12)), a, (1.0, 0.5)),
    "korcos-sym": lambda a: wce_korcos_sym(LatticeRule(31, (1, 12)), a, (1.0, 0.5)),
    "cosine-sym": lambda a: wce_cosine_sym(LatticeRule(31, (1, 12)), a, (1.0, 0.5)),
    "double-sum-cosine": lambda a: wce_double_sum(
        SpaceSpec("cosine", a, (1.0, 0.5)), symmetrize(LatticeRule(31, (1, 12)))),
    "double-sum-korcos": lambda a: wce_double_sum(
        SpaceSpec("korcos", a, (1.0, 0.5)), tent_transform(lattice_points(LatticeRule(31, (1, 12))))),
}


@pytest.mark.parametrize("alpha", [1, 1.5])
@pytest.mark.parametrize("route", sorted(_TAIL_ROUTES))
def test_tail_bound_is_a_python_float(route, alpha):
    r = _TAIL_ROUTES[route](alpha)
    assert type(r.tail_bound) is float
    assert type(r.e2) is float
    assert (r.tail_bound == 0.0) == (alpha == 1)


# each rule route and the double sum over the node set it describes
_NODE_ROUTES = (
    ("korobov", lattice_points, wce_korobov_lattice),
    ("cosine", lambda rule: tent_transform(lattice_points(rule)), wce_cosine_tent),
    ("korcos", symmetrize, wce_korcos_sym),
    ("cosine", symmetrize, wce_cosine_sym),
)


@pytest.mark.parametrize("alpha", [0.75, 1.5, 2.5])
@pytest.mark.parametrize("N,g", [(31, (1, 12, 7)), (32, (1, 13, 5))])
def test_table_route_double_sum_matches_the_rule_routes(alpha, N, g):
    """On a rule's plain, tent and sym sets at non-integer alpha the double
    sum reads Omega_2N, and the rule routes read Omega_N; each is within its
    bound of the exact e2, so they agree within the sum of the bounds, about
    1e-11 here.  An index or weight off by a factor of 2 in any family moves
    e2 far outside that sum."""
    rule = LatticeRule(N, g)
    gammas = (1.0, 0.5, 0.25)
    for family, nodes, route in _NODE_ROUTES:
        ds = wce_double_sum(SpaceSpec(family, alpha, gammas), nodes(rule))
        ref = route(rule, alpha, gammas)
        assert ds.method is WceMethod.KERNEL_DOUBLE_SUM
        assert 0.0 < ds.tail_bound < 1e-10
        assert abs(ds.e2 - ref.e2) <= ds.tail_bound + ref.tail_bound, (family, route.__name__)


@pytest.mark.parametrize("alpha", [0.75, 1.5, 2.5])
@pytest.mark.parametrize("N", [5, 8, 61])
def test_omega_2n_is_the_cosine_series_at_r_over_n(alpha, N):
    """c(r / N) = Omega_2N[r mod 2N] / 2 for r = 0..2N, the identity of the
    double sum's table route, against the series at theta = fl(r / N).  The
    table half is off by at most b / 2; the series by its tail and its
    rounding (``_series_rounding``); and theta <= 2 is within 2^-52 of
    r / N, which moves c by at most 2^-52 pi sum_k k^(1 - 2 alpha)."""
    K = 200_000
    om, b = _omega_table(alpha, 2 * N)
    r = np.arange(2 * N + 1)
    series = _cos_partial_sum(r / N, alpha, K)
    k = np.arange(1, K + 1, dtype=np.float64)
    moved = 2.0**-52 * PI * math.fsum(k ** (1.0 - 2.0 * alpha))
    bound = b / 2 + series_tail_bound(alpha, 1.0, K) + _series_rounding(alpha, K) + moved
    assert float(np.abs(series - om[r % (2 * N)] / 2).max()) <= bound


# (rule, variant, the denominator its coordinates give): non-unit components,
# whose coordinates give different N_j, and tent sets at even N, whose
# numerators are all even
_INFERRED = [
    (LatticeRule(30, (6, 10, 15)), "plain", 30),
    (LatticeRule(30, (6, 10, 15)), "tent", 15),
    (LatticeRule(30, (6, 10, 15)), "sym", 30),
    (LatticeRule(12, (2, 3)), "plain", 12),
    (LatticeRule(12, (2, 3)), "tent", 6),
    (LatticeRule(12, (2, 3)), "sym", 12),
    (LatticeRule(64, (1, 27, 15)), "tent", 32),
    (LatticeRule(32, (1, 13, 5)), "tent", 16),
]


@pytest.mark.parametrize("family", ["korobov", "cosine", "korcos"])
@pytest.mark.parametrize("rule,variant,N", _INFERRED)
def test_inferred_denominators_read_omega_2n(rule, variant, N, family):
    # the double sum reads N from the floats alone, and Omega_2N from it:
    # the bits of the direct table_factor evaluation at that N, shuffled
    # rows or not
    ps = node_set(rule, variant)
    assert _denominator(ps.points) == N
    assert np.array_equal(np.rint(ps.points * N) / N, ps.points)
    spec = SpaceSpec(family, 1.5, (1.0, 0.7, 0.4)[:rule.s])
    got = wce_double_sum(spec, ps, TruncationPolicy(tol=1e-300, max_terms=1))
    e2, tail = _direct_double_sum(spec, ps, POL)
    assert (got.e2, got.tail_bound) == (e2, tail)
    assert 0.0 < tail < 1e-9
    perm = np.random.default_rng(N).permutation(len(ps))
    shuffled = WeightedPointSet(ps.points[perm], ps.weights[perm])
    assert _denominator(shuffled.points) == N
    again = wce_double_sum(spec, shuffled, TruncationPolicy(tol=1e-300, max_terms=1))
    assert (again.e2, again.tail_bound) == _direct_double_sum(spec, shuffled, POL)
    assert again.tail_bound == got.tail_bound


def test_sets_without_a_denominator_sum_the_series():
    # a random set, and one whose coordinates give 2039 and 2053, whose lcm
    # N is found but 2 N is past the table cap, sum the series: no ValueError
    assert 2 * 2039 * 2053 > _TABLE_CAP
    k = np.arange(5)
    coprime = np.stack([k / 2039, k / 2053], axis=1)
    rand = np.random.default_rng(31).random((5, 2))
    assert _denominator(coprime) == 2039 * 2053 and _denominator(rand) is None
    spec = SpaceSpec("korcos", 1.5, (1.0, 0.5))
    for X in (coprime, rand):
        ps = WeightedPointSet(X, np.full(5, 0.2))
        assert _table_modulus(ps.points.T) is None
        got = wce_double_sum(spec, ps, POL)
        assert (got.e2, got.tail_bound) == _direct_double_sum(spec, ps, POL)
        assert got.tail_bound > 1e-6
    assert [_denominator(c[:, None]) for c in coprime.T] == [2039, 2053]


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_integer_alpha_ignores_the_denominator(alpha, monkeypatch):
    # the closed forms read the coordinates and no denominator: the bits of
    # the direct kernel_factor evaluation, without calling _denominator
    def refuse(x):
        raise AssertionError("integer alpha inferred a denominator")

    monkeypatch.setattr(wce, "_denominator", refuse)
    rule = LatticeRule(31, (1, 12, 7))
    for ps in (lattice_points(rule), tent_transform(lattice_points(rule)), symmetrize(rule)):
        for family in ("sobolev", "korobov", "cosine", "korcos"):
            spec = SpaceSpec(family, alpha, (1.0, 0.5, 0.25))
            got = wce_double_sum(spec, ps)
            assert (got.e2, got.tail_bound) == _direct_double_sum(spec, ps, POL), family


def test_double_sum_input_validation():
    ps = lattice_points(LatticeRule(4, (1, 3)))
    with pytest.raises(ValueError):
        wce_double_sum(SpaceSpec("cosine", 1, (1.0,)), ps, POL)
    # the series of a set moved off p / N has a term budget
    with pytest.raises(TruncationBudgetError):
        wce_double_sum(SpaceSpec("cosine", 1.5, (1.0, 1.0)), _off_lattice(ps),
                       TruncationPolicy(tol=1e-12, max_terms=1000))
    # the rule's own set reads Omega_2N and sums no series: no budget
    table = wce_double_sum(
        SpaceSpec("cosine", 1.5, (1.0, 1.0)), ps, TruncationPolicy(tol=1e-12, max_terms=1000)
    )
    assert 0.0 < table.tail_bound < 1e-12
    # integer alpha is closed form: no term budget to exceed
    closed = wce_double_sum(
        SpaceSpec("cosine", 1, (1.0, 1.0)), ps, TruncationPolicy(tol=1e-12, max_terms=1000)
    )
    assert closed.tail_bound == 0.0
    with pytest.raises(ValueError):
        wce_korobov_lattice(LatticeRule(4, (1,)), 1, (1.0, 1.0))
    with pytest.raises(ValueError):
        wce_korobov_lattice(LatticeRule(4, (1,)), 1, (-1.0,))


def test_bound_constant_values():
    assert cbc_bound_constant(1, (1.0,)) == pytest.approx(math.sqrt(PI**2 / 3.0), rel=1e-14)
    assert cbc_bound_constant(1, (1.0,)) == pytest.approx(1.813799364234218, rel=1e-14)
    assert cbc_bound_constant(1, (1.0, 1.0)) == pytest.approx(4.171686541976073, rel=1e-13)


def test_bound_constants_of_every_prefix_in_one_pass():
    # CBC reads every prefix's constant from one call: each equals the
    # public constant of that prefix, bit for bit
    gammas = (1.0, 0.5, 0.25, 1e-3, 2.0)
    for alpha, tau in ((1, 1.0), (1.5, 1.0), (2, 1.5), (3, 2.0)):
        assert _bound_constants(alpha, gammas, tau) == [
            cbc_bound_constant(alpha, gammas[: d + 1], tau=tau) for d in range(len(gammas))]


def test_bound_constant_subset_expansion():
    from itertools import combinations

    rng = np.random.default_rng(5)
    for s in (1, 2, 3, 4):
        gammas = tuple(float(v) for v in rng.uniform(0.1, 1.5, size=s))
        for alpha, tau in ((1, 1.0), (2, 1.5), (3, 2.0)):
            c = cbc_bound_constant(alpha, gammas, tau=tau)
            total = 0.0
            for r in range(1, s + 1):
                for u in combinations(range(s), r):
                    total += math.prod(
                        (2.0 * zeta(2.0 * alpha / tau)) * gammas[j] ** (1.0 / tau) for j in u
                    )
            assert c == pytest.approx(total ** (tau / 2.0), rel=1e-12)


def test_bound_constant_rejects_bad_tau():
    with pytest.raises(ValueError):
        cbc_bound_constant(1, (1.0,), tau=2.0)
    with pytest.raises(ValueError):
        cbc_bound_constant(1, (1.0,), tau=0.5)
    assert cbc_bound_constant(2, (1.0,), tau=2.5) > 0.0
