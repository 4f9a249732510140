"""Kernel layer: Bernoulli/zeta forms, truncation, kernel factors, coefficients.

The truncated cosine-series oracles are built here from plain numpy, apart
from the library's kernel code.
"""
import math

import numpy as np
import pytest

from latquad.kernels import (
    _BERNOULLI_COEFFS,
    _TABLE_CAP,
    QuadratureAccuracyError,
    TruncationBudgetError,
    TruncationPolicy,
    bernoulli_poly,
    cosine_coeff,
    fourier_coeff,
    kernel_factor,
    korobov_omega,
    series_kmax,
    series_tail_bound,
    zeta,
    _cos_partial_sum,
    _omega_table,
)
from latquad.points import LatticeRule, symmetrize, tent

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
    assert np.array_equal(table, korobov_omega(int(alpha), np.arange(N) / N))


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
    # most twice the per-series integral bound
    pol = TruncationPolicy(tol=1e-6, max_terms=2_000_000)
    t = series_tail_bound(1.5, 1.0, series_kmax(1.5, 1.0, pol))
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
    t = 2.0 * series_tail_bound(alpha, gamma, kmax)
    if family == "korobov":
        return 1.0 + 2.0 * gamma * _cos_partial_sum(2.0 * (x - y), alpha, kmax), t
    cos = _cos_partial_sum(x - y, alpha, kmax) + _cos_partial_sum(x + y, alpha, kmax)
    if family == "cosine":
        return 1.0 + gamma * cos, t
    kor_half = gamma * _cos_partial_sum(2.0 * (x - y), alpha, kmax)
    return 1.0 + kor_half + 0.5 * gamma * cos, t


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


def test_sobolev_equals_rescaled_cosine_kernel():
    # smoothness-1 identity: K_sob(gamma) == K_cos(gamma/pi^2), truncation aside
    grid = (np.arange(20) + 0.5) / 20.0
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    kmax = 20_000
    for gamma in (0.5, 2.0):
        sob, _ = kernel_factor("sobolev", 1, gamma, X, Y)
        cos = _cosine_kernel_series(X, Y, 1, gamma / PI**2, kmax)
        assert float(np.abs(sob - cos).max()) <= gamma / PI**2 / kmax


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
    with pytest.raises(ValueError):
        cosine_coeff(f, (1,), s=2)


def test_coefficient_quadrature_rejects_nonconvergence():
    # jump at an irrational point never lands on a panel edge
    step = lambda x: np.where(x.ravel() < 1.0 / PI, 0.0, 1.0)
    with pytest.raises(QuadratureAccuracyError):
        cosine_coeff(step, 5, target=1e-14)
    with pytest.raises(QuadratureAccuracyError):
        fourier_coeff(step, 5, target=1e-14)
