"""Kernel layer: Bernoulli/zeta forms, truncation, kernel factors, coefficients.

The truncated cosine-series oracles are built here from plain numpy, apart
from the library's kernel code.
"""
import decimal
import math
import tracemalloc

import numpy as np
import pytest

from latquad.kernels import (
    _BERNOULLI_COEFFS,
    FAMILIES,
    _SERIES_CHUNK,
    _TABLE_CAP,
    DEFAULT_POLICY,
    TruncationBudgetError,
    TruncationPolicy,
    bernoulli_poly,
    kernel_factor,
    korobov_omega,
    series_kmax,
    series_tail_bound,
    zeta,
    _cos_partial_sum,
    _half_turns,
    _mod2,
    _omega_table,
    _series_rounding,
)
from latquad.points import LatticeRule, symmetrize, tent

from oracles import (
    QuadratureAccuracyError,
    closed_form_argument,
    cosine_coeff,
    fourier_coeff,
    series_argument,
)
from oracles import table_factor as _table_factor

PI = math.pi


def test_bernoulli_spot_values():
    assert bernoulli_poly(1, 0.0) == -0.5
    assert bernoulli_poly(1, 1.0) == 0.5
    assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert bernoulli_poly(2, 0.5) == pytest.approx(-1.0 / 12.0, rel=1e-15)
    assert bernoulli_poly(3, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert bernoulli_poly(4, 0.0) == pytest.approx(-1.0 / 30.0, rel=1e-15)
    assert bernoulli_poly(4, 0.5) == pytest.approx(7.0 / 240.0, rel=1e-14)
    assert bernoulli_poly(6, 0.0) == pytest.approx(1.0 / 42.0, rel=1e-15)


def test_bernoulli_poly_keeps_polyval_bits():
    # the in-place Horner steps are np.polyval's, in its order, the first
    # one x + c1 since 1.0 x is x; signed zeros, the least subnormal and the
    # float below 1 keep every bit, the sign of zero too
    edges = [-0.0, 0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0**-53]
    xs = (0.3, 1, np.linspace(0.0, 1.0, 257), np.random.default_rng(4).random((6, 7)),
          np.array(edges), *edges)
    for tau, coeffs in _BERNOULLI_COEFFS.items():
        for x in xs:
            got, want = bernoulli_poly(tau, x), np.polyval(coeffs, x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (tau, x)


@pytest.mark.parametrize("tau", [2.5, 2.0, "2", None, 0, 7])
def test_bernoulli_poly_refuses_non_integer_degrees(tau):
    # 2.5 was truncated to 2, returning B_2(0.3) = -0.0433...
    with pytest.raises(ValueError, match=f"degree must be an integer in 1..6, got {tau}"):
        bernoulli_poly(tau, 0.3)


def test_bernoulli_zero_mean():
    # 8-point Gauss-Legendre is exact through degree 15
    xg, wg = np.polynomial.legendre.leggauss(8)
    x, w = 0.5 * (xg + 1.0), 0.5 * wg
    for t in range(1, 7):
        assert abs(float(w @ bernoulli_poly(t, x))) <= 1e-15


def test_zeta_closed_and_series():
    assert zeta(2.0) == pytest.approx(PI**2 / 6.0, rel=1e-14)
    assert zeta(4.0) == pytest.approx(PI**4 / 90.0, rel=1e-14)
    assert zeta(6.0) == pytest.approx(PI**6 / 945.0, rel=1e-14)
    assert zeta(3.0) == pytest.approx(1.2020569031595942, rel=1e-13)
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


def _decimal_pi(digits: int) -> decimal.Decimal:
    """pi to ``digits`` significant digits by the decimal module's recipe."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 2
        three = decimal.Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, three, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return +s


def test_zeta_at_even_integers_against_forty_digits():
    # one summation path: zeta(6) is correctly rounded, where fl(pi^6) / 945
    # was one ulp low, and zeta(4) is one ulp below pi^4 / 90, as before
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pi = _decimal_pi(40)
        exact = {x: float(pi**x / den) for x, den in ((2, 6), (4, 90), (6, 945))}
    assert zeta(2.0) == exact[2]
    assert zeta(4.0) == math.nextafter(exact[4], 0.0)
    assert zeta(6.0) == exact[6] == float.fromhex("0x1.0470984c09245p+0")


def test_korobov_omega_spot_values():
    assert korobov_omega(1, 0.0) == pytest.approx(PI**2 / 3.0, rel=1e-14)
    assert korobov_omega(1, 0.5) == pytest.approx(-(PI**2) / 6.0, rel=1e-14)
    assert korobov_omega(2, 0.0) == pytest.approx(PI**4 / 45.0, rel=1e-14)
    assert korobov_omega(3, 0.0) == pytest.approx(2.0 * PI**6 / 945.0, rel=1e-14)


@pytest.mark.parametrize("alpha,kmax", [(1, 200_000), (2, 2_000), (3, 300)])
def test_korobov_omega_matches_its_cosine_series(alpha, kmax):
    x = np.linspace(0.0, 1.0, 17)
    k = np.arange(1, kmax + 1, dtype=np.float64)
    series = 2.0 * (np.cos(2.0 * PI * np.outer(x, k)) @ k ** (-2.0 * alpha))
    tail = 2.0 * kmax ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)
    assert float(np.abs(korobov_omega(alpha, x) - series).max()) <= tail


@pytest.mark.parametrize("alpha", [1, 2, 3, 2.0])
@pytest.mark.parametrize("N", [1, 7, 4096])
def test_omega_table_is_korobov_omega_at_integer_alpha(alpha, N):
    table, bound = _omega_table(alpha, N)
    assert type(bound) is float and bound == 0.0
    m = np.arange(N)
    assert np.array_equal(table, korobov_omega(int(alpha), np.minimum(m, N - m) / N))


@pytest.mark.parametrize("alpha", [1, 2, 3, 0.75, 1.5])
@pytest.mark.parametrize("N", [1, 2, 7, 61, 4093, 4096])
def test_omega_table_is_exactly_even(alpha, N):
    table, _ = _omega_table(alpha, N)
    assert len(table) == N
    assert np.array_equal(table[1:], table[:0:-1])


def _omega_series(alpha, N, K):
    """2 sum_{k <= K} k^(-2 alpha) cos(2 pi k m / N) for m in Z_N, k m reduced mod N in integers."""
    m = np.arange(N)
    out = np.zeros(N)
    for k0 in range(1, K + 1, 2000):
        k = np.arange(k0, min(K, k0 + 1999) + 1)
        out += np.cos(2.0 * PI * (np.outer(m, k) % N) / N) @ k.astype(float) ** (-2.0 * alpha)
    return 2.0 * out


@pytest.mark.parametrize("alpha,K", [(0.75, 20_000), (1.5, 20_000), (2.5, 2_000)])
@pytest.mark.parametrize("N", [7, 64, 1021])
def test_omega_table_matches_its_cosine_series(alpha, K, N):
    """The aliased table against the K-term series, within the series tail
    2 K^(1 - 2 alpha) / (2 alpha - 1), the table's bound and the series'
    rounding: each cosine of a reduced argument errs by a few u, and the K
    summed terms by K u more, relative to 2 zeta(2 alpha) in all, so
    2 (K + 16) u zeta(2 alpha) covers it."""
    table, bound = _omega_table(alpha, N)
    assert type(bound) is float and bound > 0.0
    tail = 2.0 * K ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)
    rounding = 2.0 * (K + 16) * 2.0**-53 * zeta(2.0 * alpha)
    err = float(np.abs(table - _omega_series(alpha, N, K)).max())
    assert err <= tail + bound + rounding, (err, tail, bound)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("N", [7, 64, 1021, 4096])
def test_omega_table_next_to_an_integer_alpha_is_the_closed_form(a, N):
    """Just above an integer a the table takes the Hurwitz-zeta FFT route.

    Raising alpha by d moves omega by at most 2 d sum ln(k) k^(-2a)
    <= 2 d zeta(2a - 1/2), as ln k <= sqrt(k).  korobov_omega is scale
    B_2a(x) by Horner at x = m / N rounded once, so it errs by at most
    |scale| (gamma_{4a+1} sum|c_i| + u sum i |c_i|) over the coefficients c_i.
    """
    u = 2.0**-53
    alpha = math.nextafter(float(a), 4.0)
    table, bound = _omega_table(alpha, N)
    assert bound > 0.0
    coeffs = _BERNOULLI_COEFFS[2 * a]
    scale = (2.0 * PI) ** (2 * a) / math.factorial(2 * a)
    n = 4 * a + 1
    horner = scale * (n * u / (1.0 - n * u) * sum(map(abs, coeffs))
                      + u * sum(i * abs(c) for i, c in enumerate(reversed(coeffs))))
    shift = 2.0 * 2.0 * (alpha - a) * zeta(2.0 * a - 0.5)
    err = float(np.abs(table - korobov_omega(a, np.arange(N) / N)).max())
    assert err <= bound + shift + horner, (err, bound, shift, horner)


@pytest.mark.parametrize("alpha", [60.5, 1e300])
def test_omega_table_stays_finite_at_huge_alpha(alpha):
    # only k = 1 survives in double precision: omega(x) = 2 cos(2 pi x)
    N = 7
    table, bound = _omega_table(alpha, N)
    assert math.isfinite(bound) and bound > 0.0
    err = float(np.abs(table - 2.0 * np.cos(2.0 * PI * np.arange(N) / N)).max())
    assert err <= bound + 4.0 * 2.0**-53


def test_omega_table_refuses_moduli_above_its_cap():
    for alpha in (1, 1.5):
        for N in (0, _TABLE_CAP + 1, 1 << 30):
            with pytest.raises(ValueError, match="capped"):
                _omega_table(alpha, N)


def test_series_truncation_budget():
    pol = TruncationPolicy(tol=1e-4, max_terms=1_000_000)
    k = series_kmax(1, 1.0, pol)
    assert k == 10_000
    assert series_tail_bound(1, 1.0, k) <= pol.tol < series_tail_bound(1, 1.0, k - 1)
    k2 = series_kmax(2, 1.0, TruncationPolicy(tol=1e-6, max_terms=1_000_000))
    assert series_tail_bound(2, 1.0, k2) <= 1e-6 < series_tail_bound(2, 1.0, k2 - 1)
    with pytest.raises(TruncationBudgetError):
        series_kmax(1, 1.0, TruncationPolicy(tol=1e-9, max_terms=1_000))


@pytest.mark.parametrize("gamma", [-1.0, 0.0, math.inf, math.nan])
def test_series_functions_refuse_bad_weights(gamma):
    # a negative weight made series_kmax raise TypeError from a complex power
    # and series_tail_bound return a negative bound; inf raised the budget error
    with pytest.raises(ValueError, match="finite and positive"):
        series_kmax(1.5, gamma, DEFAULT_POLICY)
    with pytest.raises(ValueError, match="finite and positive"):
        series_tail_bound(1.5, gamma, 10)


@pytest.mark.parametrize("alpha", [0.5, math.inf, math.nan])
def test_series_functions_refuse_bad_smoothness(alpha):
    # alpha = 1/2 divided by zero in series_tail_bound
    with pytest.raises(ValueError, match="alpha must be finite"):
        series_kmax(alpha, 1.0, DEFAULT_POLICY)
    with pytest.raises(ValueError, match="alpha must be finite"):
        series_tail_bound(alpha, 1.0, 10)


@pytest.mark.parametrize("kmax", [0, -3, math.nan])
def test_series_tail_bound_needs_a_term(kmax):
    with pytest.raises(ValueError, match="kmax must be at least 1"):
        series_tail_bound(1.5, 1.0, kmax)


def test_sobolev_factor_spot_values():
    v, tail = kernel_factor("sobolev", 1, 1.0, 0.0, 0.0)
    assert tail == 0.0
    assert float(v) == pytest.approx(4.0 / 3.0, rel=1e-14)
    v, _ = kernel_factor("sobolev", 1, 1.0, 0.5, 0.5)
    assert float(v) == pytest.approx(13.0 / 12.0, rel=1e-14)
    v, _ = kernel_factor("sobolev", 1, 2.5, 0.0, 0.0)
    assert float(v) == pytest.approx(1.0 + 2.5 / 3.0, rel=1e-14)


def test_korobov_factor_spot_values():
    v, tail = kernel_factor("korobov", 1, 1.0, 0.5, 0.0)
    assert tail == 0.0
    assert float(v) == pytest.approx(1.0 - PI**2 / 6.0, rel=1e-14)
    v, _ = kernel_factor("korobov", 1, 1.0, 0.0, 0.0)
    assert float(v) == pytest.approx(1.0 + PI**2 / 3.0, rel=1e-14)


def test_truncated_families_carry_tail_bounds():
    # non-integer alpha sums both families as series; each factor drops at
    # most twice the per-series integral bound, and rounds its kept terms
    # within twice the series' rounding bound
    pol = TruncationPolicy(tol=1e-6, max_terms=2_000_000)
    kmax = series_kmax(1.5, 1.0, pol)
    t = series_tail_bound(1.5, 1.0, kmax) + _series_rounding(1.5, kmax)
    for fam in ("cosine", "korcos"):
        v, tail = kernel_factor(fam, 1.5, 1.0, 0.0, 0.0, pol)
        assert tail == pytest.approx(2.0 * t, rel=1e-12)
        assert 0.0 < tail <= 2e-6
        assert float(v) == pytest.approx(1.0 + 2.0 * zeta(3.0), abs=tail)
    # integer alpha is a closed form: no tail
    for fam in ("cosine", "korcos"):
        v, tail = kernel_factor(fam, 1, 1.0, 0.0, 0.0, pol)
        assert tail == 0.0
        assert float(v) == pytest.approx(1.0 + PI**2 / 3.0, rel=1e-13)


@pytest.mark.parametrize("alpha,kmax", [(1, 70_000), (2, 2_000), (3, 300)])
@pytest.mark.parametrize("fam", ["cosine", "korcos"])
def test_cosine_closed_forms_match_their_series(fam, alpha, kmax):
    # edge arguments 0, 1/2, 1 give x + y = 2 and negative x - y
    grid = np.array([0.0, 0.5, 1.0, 0.1, 0.37, 0.9])
    x, y = grid[:, None], grid[None, :]
    gamma = 0.8
    v, tail = kernel_factor(fam, alpha, gamma, x, y)
    assert tail == 0.0
    assert float(np.abs(v - v.T).max()) <= 1e-13
    series = _cosine_kernel_series(x, y, alpha, gamma, kmax)
    if fam == "korcos":
        kor = 1.0 + 2.0 * gamma * _cos_series(2.0 * (x - y), alpha, kmax)
        series = 0.5 * (kor + series)
    assert float(np.abs(v - series).max()) <= 2.0 * series_tail_bound(alpha, gamma, kmax)


@pytest.mark.parametrize("alpha,tol", [(1, 1e-5), (2, 1e-7), (3, 1e-7)])
def test_korobov_closed_form_matches_truncated_series(alpha, tol):
    pol = TruncationPolicy(tol=tol, max_terms=2_000_000)
    x = np.linspace(0.0, 1.0, 13)[:, None]
    y = np.linspace(0.0, 1.0, 7)[None, :]
    closed, _ = kernel_factor("korobov", alpha, 0.8, x, y)
    kmax = series_kmax(alpha, 0.8, pol)
    series = 1.0 + 2.0 * 0.8 * _cos_series(2.0 * (x - y), alpha, kmax)
    assert float(np.abs(closed - series).max()) <= 2.0 * series_tail_bound(alpha, 0.8, kmax)


@pytest.mark.parametrize("chunk", [None, 97])
def test_series_values_do_not_depend_on_the_other_arguments(chunk, monkeypatch):
    # A subset call has the superset call's bits, so a double-sum row block's
    # series table has the full table's bits in its rows.  chunk = 97 splits
    # both the terms and the distinct arguments into several blocks.  At
    # kmax = 10^4 and 10^5 one cos block holds many values, where a reduction
    # whose bits follow the block's row count would show.
    if chunk is not None:
        monkeypatch.setattr("latquad.kernels._SERIES_CHUNK", chunk)
    rng = np.random.default_rng(11)
    theta = rng.random(301) * 4.0 - 2.0
    for kmax in (500, 10**4, 10**5) if chunk is None else (500, 10**4):
        full = _cos_partial_sum(theta, 1.5, kmax)
        for size in (1, 7, 8, 9, 57, 300):
            idx = rng.choice(theta.size, size, replace=False)
            assert np.array_equal(_cos_partial_sum(theta[idx], 1.5, kmax), full[idx]), (kmax, size)
    pol = TruncationPolicy(tol=1e-4)
    x = rng.random(40)
    table, _ = kernel_factor("korcos", 2.5, 0.7, x[:, None], x[None, :], pol)
    for i0, i1 in ((0, 1), (5, 12), (31, 40)):
        block, _ = kernel_factor("korcos", 2.5, 0.7, x[i0:i1, None], x[None, :], pol)
        assert np.array_equal(block, table[i0:i1]), (i0, i1)


def test_series_at_zero_is_zeta_within_its_reported_bound():
    # The korobov factor at (0, 0) is 1 + 2 c(0), c(0) = sum_{k <= kmax} k^-3
    # over kmax = 2e6 terms, in a call that also sums c(0.2): the reported
    # bound covers the dropped terms and the rounding of the kept ones.  The
    # slack covers rounding 1 + 2 c(0) and 1 + 2 zeta(3), whose float is the
    # nearest to 1.2020569031595942854...
    pol = TruncationPolicy(tol=1.25e-13, max_terms=10**7)
    assert series_kmax(1.5, 1.0, pol) == 2_000_000
    assert zeta(3.0) == 1.2020569031595942
    v, tail = kernel_factor("korobov", 1.5, 1.0, [[0.0], [0.1]], [[0.0]], pol)
    want = 1.0 + 2.0 * zeta(3.0)
    assert abs(float(v[0, 0]) - want) <= tail + 2 * 2.0**-53 * want, tail


def _cos_series(theta, alpha, kmax):
    """sum_{k=1}^{kmax} k^(-2 alpha) cos(pi k theta), once per distinct theta."""
    k = np.arange(1, kmax + 1, dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    u, inv = np.unique(th.ravel(), return_inverse=True)
    return (np.cos(PI * u[:, None] * k) @ k ** (-2.0 * alpha))[inv.ravel()].reshape(th.shape)


def _cosine_kernel_series(x, y, alpha, gamma, kmax):
    """Cosine kernel cut at k <= kmax: 2 cos(pi k x) cos(pi k y) split into
    the difference and sum arguments."""
    return 1.0 + gamma * (_cos_series(x - y, alpha, kmax) + _cos_series(x + y, alpha, kmax))


def _per_family_factor(family, alpha, gamma, x, y, policy):
    """The korobov, cosine and korcos factors, each family written out on its
    own for the closed form and for the series."""
    if float(alpha).is_integer():
        a = int(alpha)
        if family == "korobov":
            return 1.0 + gamma * korobov_omega(a, np.mod(x - y, 1.0)), 0.0
        cos_om = korobov_omega(a, np.mod(0.5 * (x - y), 1.0)) + korobov_omega(
            a, np.mod(0.5 * (x + y), 1.0)
        )
        if family == "cosine":
            return 1.0 + 0.5 * gamma * cos_om, 0.0
        kor_om = korobov_omega(a, np.mod(x - y, 1.0))
        return 1.0 + 0.5 * gamma * kor_om + 0.25 * gamma * cos_om, 0.0
    kmax = series_kmax(alpha, gamma, policy)
    t = 2.0 * (series_tail_bound(alpha, gamma, kmax) + gamma * _series_rounding(alpha, kmax))
    if family == "korobov":
        return 1.0 + 2.0 * gamma * _cos_partial_sum(2.0 * (x - y), alpha, kmax), t
    cos = _cos_partial_sum(x - y, alpha, kmax) + _cos_partial_sum(x + y, alpha, kmax)
    if family == "cosine":
        return 1.0 + gamma * cos, t
    kor_half = gamma * _cos_partial_sum(2.0 * (x - y), alpha, kmax)
    return 1.0 + kor_half + 0.5 * gamma * cos, t


# zeros of both signs, halves, integers, the float below 1, a half above
# 2^52, where spacing is 1, 2^53, the least subnormal and a huge value
_REDUCTION_ARGS = [0.0, -0.0, 0.5, 1.0, 2.0, 3.5, 1.0 - 2.0**-53, 2.0**52 + 0.5, 2.0**53,
                   5e-324, 1e300]


def _closed_form_oracle(family, a, gamma, x, y):
    """The closed-form factor in kernel_factor's operation order, with the
    arguments reduced by np.remainder and Bernoulli values by np.polyval."""
    if family == "sobolev":
        val = 1.0
        for t in range(1, a + 1):
            bx, by = np.polyval(_BERNOULLI_COEFFS[t], x), np.polyval(_BERNOULLI_COEFFS[t], y)
            val = val + bx * by * gamma / math.factorial(t) ** 2
        term = np.polyval(_BERNOULLI_COEFFS[2 * a], np.abs(x - y))
        return val - term * ((-1.0) ** a * gamma) / math.factorial(2 * a)

    def c(theta):
        return korobov_omega(a, closed_form_argument(theta)) * 0.5

    kor, cos = c(2.0 * (x - y)), c(x - y) + c(x + y)
    if family == "korobov":
        return kor * (2.0 * gamma) + 1.0
    if family == "cosine":
        return cos * gamma + 1.0
    return (kor * gamma + 1.0) + cos * (0.5 * gamma)


def test_floor_reductions_keep_the_remainder_bits():
    # t - floor(t) and th - 2 floor(th / 2) are exact for arguments >= 0, so
    # they give np.remainder's and np.mod's bits, and every closed-form table
    # keeps them; a reduction to the nearest integer, t - rint(t), does not
    args = np.array(_REDUCTION_ARGS)
    for theta in (args, -args):
        got = _half_turns(theta.copy())
        assert got.tobytes() == closed_form_argument(theta).tobytes(), theta
        got = _mod2(np.abs(theta))
        assert got.tobytes() == series_argument(theta).tobytes(), theta
    unit = np.array([0.0, -0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0**-53, 0.1, 0.3, 0.7])
    for fam in FAMILIES:
        # sobolev is a kernel on [0, 1]; the periodic families take any float
        g = unit if fam == "sobolev" else np.concatenate((args, -args, unit))
        x, y = g[:, None], g[None, :]
        for a in (1, 2, 3):
            for gamma in (0.3, 2.5):
                got, tail = kernel_factor(fam, a, gamma, x, y)
                want = _closed_form_oracle(fam, a, gamma, x, y)
                assert got.tobytes() == want.tobytes(), (fam, a, gamma)
                assert tail == 0.0


_RULE16 = LatticeRule(16, (1, 5))
# each grid holds 0, 1/2 and 1 (0 and 1/2 for the plain lattice)
_GRIDS = {
    "lattice": np.arange(16) / 16.0,
    "tent": tent(np.arange(16) / 16.0),
    "sym": np.unique(symmetrize(_RULE16).points),
}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("alpha", [1, 2, 3, 1.5, 2.5])
@pytest.mark.parametrize("fam", ["korobov", "cosine", "korcos"])
def test_periodic_factor_composition_matches_per_family_formulas(fam, alpha, grid):
    # one cosine-sum primitive composes all three families; the values and
    # tails must be the bits of each family's own formula
    g = _GRIDS[grid]
    x, y = g[:, None], g[None, :]
    pol = TruncationPolicy(tol=1e-5)
    for gamma in (0.3, 1.0, 2.5):
        got, got_tail = kernel_factor(fam, alpha, gamma, x, y, pol)
        want, want_tail = _per_family_factor(fam, alpha, gamma, x, y, pol)
        assert np.array_equal(got, want), (fam, alpha, grid, gamma)
        assert got_tail == want_tail


@pytest.mark.parametrize("N", [2, 8, 64, 1024])
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("fam", ["korobov", "cosine", "korcos"])
def test_table_factor_is_the_closed_form_at_dyadic_nodes(fam, alpha, N):
    # at dyadic N, p / N, x - y, x + y and theta / 2 are exact, so c read
    # from Omega_2N and the closed-form c see the same arguments through the
    # one combination: a slip in either route's c or argument builders, an
    # index or a halving, moves a bit
    om, b = _omega_table(alpha, 2 * N)
    half = np.append(om, om[0]) / 2
    p = np.arange(N + 1)
    for gamma in (0.3, 1.0, 2.5, 7.0):
        got, got_tail = _table_factor(fam, gamma, half, b, p[:, None], p[None, :])
        want, want_tail = kernel_factor(fam, alpha, gamma, p[:, None] / N, p[None, :] / N)
        assert np.array_equal(got, want), (fam, alpha, N, gamma)
        assert got_tail == want_tail == 0.0


def test_sobolev_equals_rescaled_cosine_kernel():
    # smoothness-1 identity: K_sob(gamma) == K_cos(gamma/pi^2), truncation aside
    grid = (np.arange(20) + 0.5) / 20.0
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    kmax = 20_000
    for gamma in (0.5, 2.0):
        sob, _ = kernel_factor("sobolev", 1, gamma, X, Y)
        cos = _cosine_kernel_series(X, Y, 1, gamma / PI**2, kmax)
        assert float(np.abs(sob - cos).max()) <= gamma / PI**2 / kmax


@pytest.mark.parametrize("fam,alpha", [(f, a) for f in ("sobolev", "korobov", "cosine", "korcos")
                                       for a in (1, 2, 3, 1.5) if f != "sobolev" or a != 1.5])
def test_kernel_factor_is_symmetric_to_the_bit(fam, alpha):
    # c is read at |theta|, the closed form at min(t, 1 - t), and sobolev
    # forms B_t(x) B_t(y) before weighting it, so K(x, y) and K(y, x) take
    # the same operations on the same arguments (sobolev has integer
    # smoothness only)
    grid = np.linspace(0.0, 1.0, 203)
    v, _ = kernel_factor(fam, alpha, 0.7, grid[:, None], grid[None, :])
    assert np.array_equal(v, v.T)


@pytest.mark.parametrize("fam,alpha", [("sobolev", 1), ("sobolev", 3), ("korobov", 1),
                                       ("korobov", 2), ("cosine", 2), ("korcos", 3)])
def test_kernel_factor_peak_memory_is_three_tables(fam, alpha):
    """Traced peak of one closed-form 512 x 2040 call over distinct values.

    The steps run in place, so a call holds at most three tables of
    512 * 2040 * 8 bytes: the value being built, the fresh argument that c
    overwrites, and one more (1 - theta or the Horner result inside c, the
    sobolev scratch table, or the cosine part while korcos builds its
    korobov part).  Slack 64 KiB: the sobolev Bernoulli column and row,
    512 + 2040 words, and small arrays.  An expression chain that keeps its
    temporaries, as np.polyval and `1.0 + gamma * c(...)` do, holds 4 to 6.
    """
    rng = np.random.default_rng(6)
    x, y = rng.random(512)[:, None], rng.random(2040)[None, :]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kernel_factor(fam, alpha, 0.7, x, y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 512 * 2040 * 8 + (64 << 10), peak / (512 * 2040 * 8)


@pytest.mark.parametrize("fam", ["korobov", "cosine", "korcos"])
def test_table_factor_peak_memory_is_three_tables(fam):
    """Traced peak of one Omega_2N call over 512 x 2040 numerator pairs.

    It holds the index table, the values and, for cosine and korcos, one
    gathered part: three tables of 512 * 2040 * 8 bytes.  Slack: the halved
    omega table it reads, built in the traced span with Omega[0] appended,
    2N + 1 words, and 64 KiB for small arrays.
    """
    N = 4093
    om, b = _omega_table(1.5, 2 * N)
    rng = np.random.default_rng(6)
    p, q = rng.integers(0, N + 1, 512)[:, None], rng.integers(0, N + 1, 2040)[None, :]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _table_factor(fam, 0.7, np.append(om, om[0]) / 2, b, p, q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 512 * 2040 * 8 + 8 * (2 * N + 1) + (64 << 10), peak / (512 * 2040 * 8)


@pytest.mark.parametrize("fam,kept", [("korobov", 0), ("cosine", 1), ("korcos", 1)])
def test_series_kernel_factor_peak_memory(fam, kept):
    """Traced peak of one series call (alpha = 1.5) at 512 x 2040 distinct values.

    c reduces its fresh argument in place and gathers its result back into
    it, so beside the argument a call holds np.unique's distinct values and
    inverse, the sums over the distinct values and pi times those values:
    five tables of 512 * 2040 * 8 bytes, and one more, the first cosine
    part, that cosine and korcos keep while they build the second part or
    the korobov part.  Add one cos block of at most _SERIES_CHUNK values,
    whose row sums are added into the sums over the distinct values in
    place, and the three ufunc buffers of 8192 values that numpy takes for
    the strided additions of the pairwise tree; np.unique's own peak, about
    seven tables, stays below that.  Slack 64 KiB for small arrays.
    Reducing theta by expressions and gathering the result into a new array
    held 1.4 tables more, and a fresh row-sum array per cos block up to
    _SERIES_CHUNK // kmax values more.
    """
    pol = TruncationPolicy(tol=1e-2)
    kmax = series_kmax(1.5, 0.7, pol)
    assert kmax < _SERIES_CHUNK
    rng = np.random.default_rng(6)
    x, y = rng.random(512)[:, None], rng.random(2040)[None, :]
    table = 512 * 2040 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kernel_factor(fam, 1.5, 0.7, x, y, pol)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = (5 + kept) * table + 8 * (_SERIES_CHUNK + 3 * 8192) + (64 << 10)
    assert peak <= bound, (peak / table, bound / table)


def test_kernel_factor_symmetry_and_validation():
    x = np.linspace(0.0, 1.0, 9)[:, None]
    y = np.linspace(0.0, 1.0, 9)[None, :]
    for fam in ("sobolev", "korobov", "cosine", "korcos"):
        v, _ = kernel_factor(fam, 1, 0.3, x, y)
        assert np.allclose(v, v.T, atol=1e-14)
    with pytest.raises(ValueError):
        kernel_factor("fourier", 1, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernel_factor("sobolev", 1.5, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernel_factor("sobolev", 1, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernel_factor("cosine", 0.5, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("fam", ["sobolev", "korobov", "cosine", "korcos"])
def test_gram_matrices_are_positive_semidefinite(fam):
    rng = np.random.default_rng(7)
    pts = rng.random((24, 2))
    gammas = (1.0, 0.5)
    pol = TruncationPolicy(tol=1e-4, max_terms=2_000_000)
    gram = np.ones((24, 24))
    for j, gamma in enumerate(gammas):
        v, _ = kernel_factor(fam, 1, gamma, pts[:, j][:, None], pts[None, :, j], pol)
        gram *= v
    assert float(np.linalg.eigvalsh(gram).min()) >= -1e-9


def test_cosine_coeffs_of_sine():
    for k in (1, 3, 5):
        want = 4.0 * math.sqrt(2.0) / (PI * (4.0 - k * k))
        got = cosine_coeff(lambda x: np.sin(2.0 * PI * x).ravel(), k)
        assert got == pytest.approx(want, abs=1e-12)
    # even harmonics vanish by the half-period symmetry
    assert cosine_coeff(lambda x: np.sin(2.0 * PI * x).ravel(), 4) == pytest.approx(0.0, abs=1e-12)


def test_cosine_coeffs_of_identity_map():
    assert cosine_coeff(lambda x: x.ravel(), 0) == pytest.approx(0.5, abs=1e-12)
    for k in (1, 3, 7):
        want = -2.0 * math.sqrt(2.0) / (PI**2 * k * k)
        assert cosine_coeff(lambda x: x.ravel(), k) == pytest.approx(want, abs=1e-12)
    assert cosine_coeff(lambda x: x.ravel(), 2) == pytest.approx(0.0, abs=1e-12)


def test_fourier_coeffs():
    f = lambda x: np.exp(2j * PI * x).ravel()
    assert fourier_coeff(f, 1) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert fourier_coeff(f, 0) == pytest.approx(0.0, abs=1e-12)
    assert fourier_coeff(f, -1) == pytest.approx(0.0, abs=1e-12)
    for h in (-2, 1, 3):
        want = 4j * h / (PI * (1.0 - 4.0 * h * h))
        got = fourier_coeff(lambda x: np.cos(PI * x).ravel(), h)
        assert got == pytest.approx(want, abs=1e-12)


def test_product_coefficient_indices():
    f = lambda p: np.sin(2.0 * PI * p[:, 0]) * p[:, 1]
    want = (4.0 * math.sqrt(2.0) / (PI * 3.0)) * (-2.0 * math.sqrt(2.0) / PI**2)
    assert cosine_coeff(f, (1, 1)) == pytest.approx(want, abs=1e-11)
    with pytest.raises(ValueError):
        cosine_coeff(f, (1, -1))


def test_coefficient_indices_are_one_dimensional():
    f = lambda p: p[:, 0] * p[:, 1]
    with pytest.raises(ValueError, match="1-d"):
        cosine_coeff(f, [[1, 1]])
    with pytest.raises(ValueError, match="1-d"):
        fourier_coeff(f, [[1], [1]])


def test_coefficient_quadrature_rejects_nonconvergence():
    # jump at an irrational point never lands on a panel edge
    step = lambda x: np.where(x.ravel() < 1.0 / PI, 0.0, 1.0)
    with pytest.raises(QuadratureAccuracyError):
        cosine_coeff(step, 5, target=1e-14)
    with pytest.raises(QuadratureAccuracyError):
        fourier_coeff(step, 5, target=1e-14)
