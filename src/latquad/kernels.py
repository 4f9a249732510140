"""Reproducing kernels and coefficient oracles for lattice quadrature spaces.

Four kernel families over [0,1], combined by products across coordinates:

* ``sobolev``: unanchored Sobolev space of integer smoothness alpha, via
  Bernoulli polynomials,
      K(x, y) = 1 + gamma * sum_{t=1}^{alpha} B_t(x) B_t(y) / (t!)^2
                  - (-1)^alpha * gamma * B_{2 alpha}(|x - y|) / (2 alpha)!
* ``korobov``: periodic space with Fourier weights gamma * |h|^(-2 alpha).
  Integer alpha in {1,2,3} evaluates through the closed form
      K(x, y) = 1 + gamma * omega(frac(x - y)),
      omega(z) = (-1)^(alpha+1) (2 pi)^(2 alpha) B_{2 alpha}(z) / (2 alpha)!,
  other alpha through a truncated Fourier series.
* ``cosine``: half-period cosine space with weights gamma * k^(-2 alpha) on the
  orthonormal basis 1, sqrt(2) cos(pi k x).  Since
      sum_{k >= 1} k^(-2 alpha) cos(pi k theta) = omega(frac(theta / 2)) / 2,
  integer alpha in {1,2,3} evaluates through the same closed form,
      K(x, y) = 1 + (gamma / 2) [omega(frac((x - y) / 2))
                                 + omega(frac((x + y) / 2))],
  other alpha through a truncated cosine series.  ``cosine_kernel_partial``
  keeps the series for every alpha as the independent oracle.
* ``korcos``: the arithmetic mean of the korobov and cosine kernels, closed
  for integer alpha in {1,2,3} whenever both halves are.

Truncated evaluations report a rigorous tail bound alongside the value: the
dropped terms of one factor are bounded by 2 * gamma * sum_{k > K} k^(-2 alpha)
<= 2 * gamma * K^(1 - 2 alpha) / (2 alpha - 1) (basis products never exceed 2
in magnitude).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "FAMILIES",
    "SpaceSpec",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "TruncationBudgetError",
    "QuadratureAccuracyError",
    "KernelValue",
    "r_weight",
    "r_weight_product",
    "bernoulli_poly",
    "zeta",
    "korobov_omega",
    "series_kmax",
    "series_tail_bound",
    "cosine_kernel_partial",
    "kernel_factor",
    "kernel_eval",
    "cosine_coeff",
    "fourier_coeff",
]

FAMILIES = ("sobolev", "korobov", "cosine", "korcos")

# caps for vectorized series chunks and tensor quadrature grids
_SERIES_CHUNK = 4_000_000
_QUAD_POINT_CAP = 1 << 24


class TruncationBudgetError(ArithmeticError):
    """Requested tolerance needs more series terms than the policy allows."""


class QuadratureAccuracyError(ArithmeticError):
    """Panel-doubling estimate failed the requested accuracy target."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Per-factor series truncation control.

    ``tol`` bounds the integral tail estimate gamma * K^(1-2 alpha)/(2 alpha-1)
    of each univariate factor; ``max_terms`` caps the term count, and hitting
    the cap raises TruncationBudgetError instead of silently degrading.
    """

    tol: float = 1e-6
    max_terms: int = 2_000_000

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SpaceSpec:
    """Kernel family with smoothness alpha and per-coordinate weights."""

    family: str
    alpha: float
    gammas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        gammas = tuple(float(g) for g in self.gammas)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "alpha", float(self.alpha))
        if not gammas:
            raise ValueError("gammas must be nonempty")
        if min(gammas) <= 0.0:
            raise ValueError("weights gamma_j must be positive")
        if self.family == "sobolev":
            _require_closed_alpha(self.alpha)
        elif not self.alpha > 0.5:
            raise ValueError("alpha must exceed 1/2")

    @property
    def s(self) -> int:
        return len(self.gammas)


class KernelValue(NamedTuple):
    value: float
    tail_bound: float


def _require_closed_alpha(alpha: float) -> int:
    a = float(alpha)
    if not (a.is_integer() and int(a) in (1, 2, 3)):
        raise ValueError(f"closed-form smoothness must be an integer in 1..3, got {alpha}")
    return int(a)


def r_weight(alpha: float, gamma: float, h: int) -> float:
    """Fourier weight: 1 at h = 0, gamma * |h|^(-2 alpha) otherwise."""
    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if h == 0:
        return 1.0
    return gamma * float(abs(h)) ** (-2.0 * alpha)


def r_weight_product(alpha: float, gammas: Sequence[float], h: Sequence[int]) -> float:
    """Product of per-coordinate Fourier weights for an integer vector h."""
    if len(gammas) != len(h):
        raise ValueError("gammas and h must have matching length")
    out = 1.0
    for g, hj in zip(gammas, h):
        out *= r_weight(alpha, g, int(hj))
    return out


# Bernoulli polynomials B_1..B_6, highest degree first.
_BERNOULLI_COEFFS = {
    1: (1.0, -0.5),
    2: (1.0, -1.0, 1.0 / 6.0),
    3: (1.0, -1.5, 0.5, 0.0),
    4: (1.0, -2.0, 1.0, 0.0, -1.0 / 30.0),
    5: (1.0, -2.5, 5.0 / 3.0, 0.0, -1.0 / 6.0, 0.0),
    6: (1.0, -3.0, 2.5, 0.0, -0.5, 0.0, 1.0 / 42.0),
}


def bernoulli_poly(tau: int, x):
    """Bernoulli polynomial B_tau on [0,1], tau in 1..6; vectorized in x."""
    try:
        coeffs = _BERNOULLI_COEFFS[int(tau)]
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"degree must be an integer in 1..6, got {tau}") from None
    return np.polyval(coeffs, x)


# B_2, B_4, ..., B_16 for the Euler-Maclaurin correction terms.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def zeta(x: float) -> float:
    """Riemann zeta for real x > 1.

    Even integers 2, 4, 6 return the pi-power closed forms; everything else
    uses Euler-Maclaurin summation (M = 64 direct terms plus correction terms
    through B_16, far below 1e-12 relative error on this domain).
    """
    x = float(x)
    if not x > 1.0:
        raise ValueError("zeta is only evaluated for x > 1")
    if x == 2.0:
        return math.pi**2 / 6.0
    if x == 4.0:
        return math.pi**4 / 90.0
    if x == 6.0:
        return math.pi**6 / 945.0
    M = 64
    total = math.fsum(n ** (-x) for n in range(1, M))
    total += 0.5 * M ** (-x) + M ** (1.0 - x) / (x - 1.0)
    for k, b2k in enumerate(_B2K, start=1):
        rising = 1.0
        for i in range(2 * k - 1):
            rising *= x + i
        total += b2k / math.factorial(2 * k) * rising * M ** (1.0 - x - 2 * k)
    return total


def korobov_omega(alpha: int, x):
    """Closed form of sum_{h != 0} |h|^(-2 alpha) e^(2 pi i h x) on [0,1).

    Equals (-1)^(alpha+1) (2 pi)^(2 alpha) B_{2 alpha}(x) / (2 alpha)! for
    integer alpha in 1..3; vectorized in x.
    """
    a = _require_closed_alpha(alpha)
    scale = (-1.0) ** (a + 1) * (2.0 * math.pi) ** (2 * a) / math.factorial(2 * a)
    return scale * bernoulli_poly(2 * a, x)


def series_kmax(alpha: float, gamma: float, policy: TruncationPolicy) -> int:
    """Smallest K with gamma * K^(1-2 alpha)/(2 alpha - 1) <= policy.tol."""
    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2")
    need = (gamma / (policy.tol * (2.0 * alpha - 1.0))) ** (1.0 / (2.0 * alpha - 1.0))
    k = max(1, math.ceil(need * (1.0 - 1e-12)))
    if k > policy.max_terms:
        raise TruncationBudgetError(
            f"series needs {k} terms for tol={policy.tol}, above max_terms={policy.max_terms}"
        )
    return k


def series_tail_bound(alpha: float, gamma: float, kmax: int) -> float:
    """Integral estimate gamma * K^(1-2 alpha)/(2 alpha - 1) for the dropped tail."""
    return gamma * float(kmax) ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)


def _cos_partial_sum(theta, alpha: float, kmax: int):
    """sum_{k=1}^{kmax} k^(-2 alpha) cos(pi k theta), elementwise.

    theta is reduced mod 2 (the period).  Lattice-derived arguments repeat
    heavily, so the sum is evaluated once per distinct value.
    """
    th = np.mod(np.asarray(theta, dtype=np.float64), 2.0)
    shape = th.shape
    u, inv = np.unique(th.ravel(), return_inverse=True)
    acc = np.zeros(u.size)
    if u.size:
        chunk = max(1, min(kmax, _SERIES_CHUNK // u.size))
        lo = 1
        while lo <= kmax:
            hi = min(kmax, lo + chunk - 1)
            k = np.arange(lo, hi + 1, dtype=np.float64)
            acc += np.cos(np.pi * u[:, None] * k) @ k ** (-2.0 * alpha)
            lo = hi + 1
    return acc[inv.ravel()].reshape(shape)


def cosine_kernel_partial(x, y, alpha: float, gamma: float, kmax: int):
    """Half-period cosine kernel truncated at k <= kmax; vectorized.

    1 + gamma * sum_k k^(-2 alpha) [cos(pi k (x-y)) + cos(pi k (x+y))], which is
    the product form 2 cos(pi k x) cos(pi k y) split into difference and sum
    arguments so repeated lattice values collapse.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return 1.0 + gamma * (
        _cos_partial_sum(x - y, alpha, kmax) + _cos_partial_sum(x + y, alpha, kmax)
    )


def _sobolev_factor(alpha: float, gamma: float, x, y):
    a = _require_closed_alpha(alpha)
    val = np.ones(np.broadcast(x, y).shape)
    for t in range(1, a + 1):
        val = val + gamma * bernoulli_poly(t, x) * bernoulli_poly(t, y) / math.factorial(t) ** 2
    val = val - (-1.0) ** a * gamma * bernoulli_poly(2 * a, np.abs(x - y)) / math.factorial(2 * a)
    return val


def kernel_factor(
    family: str,
    alpha: float,
    gamma: float,
    x,
    y,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, float]:
    """One coordinate factor of a product kernel, with its truncation bound.

    x and y broadcast against each other; returns (values, tail_bound).  The
    sobolev family, and the korobov, cosine and korcos families at integer
    alpha in {1,2,3}, evaluate Bernoulli closed forms with tail_bound 0 and
    sum no series terms; other alpha sum a truncated series sized by policy.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    if family == "sobolev":
        return _sobolev_factor(alpha, gamma, x, y), 0.0

    if float(alpha).is_integer() and int(alpha) in (1, 2, 3):
        a = int(alpha)
        if family == "korobov":
            return 1.0 + gamma * korobov_omega(a, np.mod(x - y, 1.0)), 0.0
        # cosine half: sum_k k^(-2a) cos(pi k theta) = omega(frac(theta/2)) / 2
        cos_om = korobov_omega(a, np.mod(0.5 * (x - y), 1.0)) + korobov_omega(
            a, np.mod(0.5 * (x + y), 1.0)
        )
        if family == "cosine":
            return 1.0 + 0.5 * gamma * cos_om, 0.0
        kor_om = korobov_omega(a, np.mod(x - y, 1.0))
        return 1.0 + 0.5 * gamma * kor_om + 0.25 * gamma * cos_om, 0.0

    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2")
    kmax = series_kmax(alpha, gamma, policy)
    t = series_tail_bound(alpha, gamma, kmax)
    if family == "korobov":
        val = 1.0 + 2.0 * gamma * _cos_partial_sum(2.0 * (x - y), alpha, kmax)
        return val, 2.0 * t
    if family == "cosine":
        val = 1.0 + gamma * (
            _cos_partial_sum(x - y, alpha, kmax) + _cos_partial_sum(x + y, alpha, kmax)
        )
        return val, 2.0 * t
    # korcos: mean of the two kernels
    cos_half = 0.5 * gamma * (
        _cos_partial_sum(x - y, alpha, kmax) + _cos_partial_sum(x + y, alpha, kmax)
    )
    kor_half = gamma * _cos_partial_sum(2.0 * (x - y), alpha, kmax)
    return 1.0 + kor_half + cos_half, 2.0 * t


def _product_tail(bounds: np.ndarray, maxv: np.ndarray) -> float:
    """Error bound for a product of factors, factor j off by at most bounds[j].

    Sums bounds[j] times the product of the other factors' magnitude caps
    maxv + bounds, where maxv holds the largest computed magnitudes.
    """
    mags = maxv + bounds
    tail = 0.0
    for j in range(len(bounds)):
        if bounds[j]:
            tail += bounds[j] * float(np.prod(np.delete(mags, j)))
    return tail


def kernel_eval(spec: SpaceSpec, x, y, policy: TruncationPolicy = DEFAULT_POLICY) -> KernelValue:
    """Product kernel K(x, y) for points x, y in [0,1]^s.

    Truncation bounds propagate first order: sum over coordinates of the
    factor bound times the magnitudes of the remaining factors.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != (spec.s,) or y.shape != (spec.s,):
        raise ValueError(f"points must have shape ({spec.s},)")
    vals = np.empty(spec.s)
    bounds = np.empty(spec.s)
    for j in range(spec.s):
        v, b = kernel_factor(spec.family, spec.alpha, spec.gammas[j], x[j], y[j], policy)
        vals[j] = float(v)
        bounds[j] = b
    return KernelValue(float(np.prod(vals)), _product_tail(bounds, np.abs(vals)))


def _gl_grid(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes and weights on [0,1]."""
    xg, wg = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    wts = (half[:, None] * wg[None, :]).ravel()
    return nodes, wts


def _coeff_quadrature(f: Callable, axis_weight: Callable, s: int, panels: int):
    """Tensor quadrature of f(x) * prod_j axis_weight(j, x_j) over [0,1]^s.

    axis_weight(j, nodes) must return the (possibly complex) per-axis factor.
    f is called once with the full (M, s) grid.
    """
    nodes, wts = _gl_grid(panels)
    m = nodes.size
    if m**s > _QUAD_POINT_CAP:
        raise ValueError(f"tensor quadrature grid of {m**s} points is too large")
    grids = np.meshgrid(*([nodes] * s), indexing="ij")
    pts = np.stack(grids, axis=-1).reshape(-1, s)
    acc = np.asarray(f(pts)).reshape(len(pts))
    full = tuple([m] * s)
    for j in range(s):
        wj = wts * axis_weight(j, nodes)
        shape = [1] * s
        shape[j] = m
        acc = acc * np.broadcast_to(wj.reshape(shape), full).reshape(-1)
    return acc.sum()


def cosine_coeff(f: Callable, k, s: int | None = None, target: float = 1e-10) -> float:
    """Coefficient of f against the orthonormal cosine basis indexed by k >= 0.

    The basis factor per axis is 1 for k_j = 0 and sqrt(2) cos(pi k_j x_j)
    otherwise.  f must accept an (M, s) array of points and return M values.
    Composite 16-point Gauss-Legendre with max(8, 5*max(k)) panels per axis
    (at least five panels per half oscillation); the result is accepted only
    if doubling the panel count moves it by at most ``target``.
    """
    kvec = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if s is None:
        s = kvec.size
    if kvec.shape != (s,):
        raise ValueError(f"k must have {s} components")
    if kvec.size and kvec.min() < 0:
        raise ValueError("cosine indices must be nonnegative")

    def axis_weight(j, xs):
        if kvec[j] == 0:
            return np.ones_like(xs)
        return math.sqrt(2.0) * np.cos(math.pi * int(kvec[j]) * xs)

    panels = max(8, 5 * int(kvec.max(initial=0)))
    v1 = _coeff_quadrature(f, axis_weight, s, panels)
    v2 = _coeff_quadrature(f, axis_weight, s, 2 * panels)
    if abs(v2 - v1) > target:
        raise QuadratureAccuracyError(
            f"panel doubling moved the coefficient by {abs(v2 - v1):.3e} (> {target})"
        )
    return float(v2)


def fourier_coeff(f: Callable, h, s: int | None = None, target: float = 1e-10) -> complex:
    """Fourier coefficient integral of f(x) e^(-2 pi i h . x); complex result.

    Same quadrature and panel-doubling check as cosine_coeff, with panel count
    max(8, 10*max|h|) so the full-period exponential keeps at least five
    panels per half oscillation.
    """
    hvec = np.atleast_1d(np.asarray(h, dtype=np.int64))
    if s is None:
        s = hvec.size
    if hvec.shape != (s,):
        raise ValueError(f"h must have {s} components")

    def axis_weight(j, xs):
        return np.exp(-2j * math.pi * int(hvec[j]) * xs)

    panels = max(8, 10 * int(np.abs(hvec).max(initial=0)))
    v1 = _coeff_quadrature(f, axis_weight, s, panels)
    v2 = _coeff_quadrature(f, axis_weight, s, 2 * panels)
    if abs(v2 - v1) > target:
        raise QuadratureAccuracyError(
            f"panel doubling moved the coefficient by {abs(v2 - v1):.3e} (> {target})"
        )
    return complex(v2)
