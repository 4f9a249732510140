"""Reproducing kernels and coefficient oracles for lattice quadrature spaces.

Four kernel families over [0,1], combined by products across coordinates:

* ``sobolev``: unanchored Sobolev space of integer smoothness alpha, via
  Bernoulli polynomials,
      K(x, y) = 1 + gamma * sum_{t=1}^{alpha} B_t(x) B_t(y) / (t!)^2
                  - (-1)^alpha * gamma * B_{2 alpha}(|x - y|) / (2 alpha)!
* ``korobov``: periodic space with Fourier weights gamma * |h|^(-2 alpha).
  Integer alpha in {1,2,3} has the closed form
      K(x, y) = 1 + gamma * omega(frac(x - y)),
      omega(z) = (-1)^(alpha+1) (2 pi)^(2 alpha) B_{2 alpha}(z) / (2 alpha)!.
* ``cosine``: half-period cosine space with weights gamma * k^(-2 alpha) on the
  orthonormal basis 1, sqrt(2) cos(pi k x).
* ``korcos``: the arithmetic mean of the korobov and cosine kernels.

The three periodic families are compositions of the one-dimensional sum
    c(theta) = sum_{k >= 1} k^(-2 alpha) cos(pi k theta):
    korobov  K = 1 + 2 gamma c(2 (x - y)),
    cosine   K = 1 + gamma [c(x - y) + c(x + y)],
    korcos   K = 1 + gamma c(2 (x - y)) + (gamma / 2) [c(x - y) + c(x + y)].
Integer alpha in {1,2,3} evaluates c through the closed form
c(theta) = omega(frac(theta / 2)) / 2, so every family is exact there; other
alpha sum c as a truncated series.  The truncated cosine series oracles live
in the tests.

On lattice nodes only omega(m / N), m in Z_N, is needed, and
``_omega_table`` gives it at every alpha > 1/2: the closed form at 1..3,
else one real FFT of the Hurwitz-zeta residue sums, with an error bound.

Truncated evaluations report a rigorous tail bound alongside the value: the
dropped terms of one factor are bounded by 2 * gamma * sum_{k > K} k^(-2 alpha)
<= 2 * gamma * K^(1 - 2 alpha) / (2 alpha - 1) (basis products never exceed 2
in magnitude).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FAMILIES",
    "SpaceSpec",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "TruncationBudgetError",
    "QuadratureAccuracyError",
    "bernoulli_poly",
    "zeta",
    "korobov_omega",
    "series_kmax",
    "series_tail_bound",
    "kernel_factor",
    "cosine_coeff",
    "fourier_coeff",
]

FAMILIES = ("sobolev", "korobov", "cosine", "korcos")

# smoothness values with a Bernoulli closed form
_CLOSED_ALPHAS = (1, 2, 3)

# caps for vectorized series chunks and tensor quadrature grids
_SERIES_CHUNK = 4_000_000
_QUAD_POINT_CAP = 1 << 24
# largest modulus of the omega table, refused before any work above it
_TABLE_CAP = 1 << 22
# direct terms per residue class before the Euler-Maclaurin tail
_HURWITZ_TERMS = 16
# unit roundoff, and the multiple of u log2(L) taken as the relative 2-norm
# error of one length-L FFT; Cooley-Tukey's is about 7 u log2(L), and the
# bounds that use it only need a safe margin
_U = 0.5 * float(np.finfo(float).eps)
_FFT_ETA = 32.0


class TruncationBudgetError(ArithmeticError):
    """Requested tolerance needs more series terms than the policy allows."""


class QuadratureAccuracyError(ArithmeticError):
    """Panel-doubling estimate failed the requested accuracy target."""


def _refuse_overflow(fn: Callable) -> Callable:
    """fn with any float overflow inside turned into one OverflowError.

    numpy's overflow becomes an error instead of a warning and an inf, and
    an OverflowError raised inside, by math.fsum or a float power, takes the
    same message.  numpy's error state is per thread, so a function that a
    worker thread runs needs its own decorator.
    """
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError):
            raise OverflowError(
                "float overflow: the weights drive a kernel product past the float64 range"
            ) from None

    return run


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
        object.__setattr__(self, "gammas", _check_gammas(self.gammas))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        if self.family == "sobolev":
            _require_closed_alpha(self.alpha)

    @property
    def s(self) -> int:
        return len(self.gammas)


def _check_gammas(gammas: Sequence[float], s: int | None = None) -> tuple[float, ...]:
    """Weights as floats: a nonempty list (of s, when given), each finite and > 0."""
    out = tuple(float(g) for g in gammas)
    if s is not None and len(out) != s:
        raise ValueError(f"expected {s} weights, got {len(out)}")
    if not out:
        raise ValueError("gammas must be nonempty")
    # the chained comparison is False for NaN
    if not all(0.0 < g < math.inf for g in out):
        raise ValueError("weights gamma_j must be finite and positive")
    return out


def _check_alpha(alpha: float) -> float:
    """Smoothness as a float: finite and > 1/2."""
    a = float(alpha)
    # the chained comparison is False for NaN
    if not 0.5 < a < math.inf:
        raise ValueError(f"alpha must be finite and exceed 1/2, got {alpha}")
    return a


def _require_closed_alpha(alpha: float) -> int:
    a = float(alpha)
    if not (a.is_integer() and int(a) in _CLOSED_ALPHAS):
        raise ValueError(f"closed-form smoothness must be an integer in 1..3, got {alpha}")
    return int(a)


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
    """Bernoulli polynomial B_tau on [0,1], tau in 1..6 by operator.index; vectorized in x."""
    try:
        coeffs = _BERNOULLI_COEFFS[operator.index(tau)]
    except (KeyError, TypeError):
        raise ValueError(f"degree must be an integer in 1..6, got {tau}") from None
    # Horner in place, in np.polyval's order, so the values keep its bits
    x = np.asarray(x, dtype=np.float64)
    y = np.full(x.shape, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y[()]


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
# B_18, whose Euler-Maclaurin term bounds the remainder after B_16
_B18 = 43867.0 / 798.0


def _hurwitz_sum(x: float, head, t, step):
    """head + sum_{i >= 0} (t + i step)^(-x) by Euler-Maclaurin, and its remainder bound.

    The tail is the integral, half the first term and the corrections through
    B_16.  Every derivative of (t + u step)^(-x) keeps one sign on u >= 0, so
    the remainder lies between 0 and the first omitted (B_18) term (DLMF
    §2.10(i), §25.11), which is returned as the bound.  x > 1; head and t are
    floats or arrays alike, step > 0.  At step 1 the operations are zeta's,
    in zeta's order, so zeta keeps its bits.
    """
    total = head + (0.5 * t ** -x + t ** (1.0 - x) / (step * (x - 1.0)))
    rising = x  # x (x + 1) ... (x + 2k - 2), one factor at a time as zeta had it
    for k, b2k in enumerate(_B2K + (_B18,), start=1):
        # rising overflows only for x > 1e18, where t^-x underflows and every
        # later term lies below the least float
        if rising == math.inf:
            return total, 0.0
        term = b2k / math.factorial(2 * k) * rising * (step ** (2 * k - 1)
                                                       * t ** (1.0 - x - 2 * k))
        if k > len(_B2K):
            return total, term
        total = total + term
        rising = rising * (x + 2 * k - 1) * (x + 2 * k)


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
    return _hurwitz_sum(x, math.fsum(n ** (-x) for n in range(1, M)), M, 1)[0]


def korobov_omega(alpha: int, x):
    """Closed form of sum_{h != 0} |h|^(-2 alpha) e^(2 pi i h x) on [0,1).

    Equals (-1)^(alpha+1) (2 pi)^(2 alpha) B_{2 alpha}(x) / (2 alpha)! for
    integer alpha in 1..3; vectorized in x.
    """
    a = _require_closed_alpha(alpha)
    scale = (-1.0) ** (a + 1) * (2.0 * math.pi) ** (2 * a) / math.factorial(2 * a)
    val = bernoulli_poly(2 * a, x)
    val *= scale
    return val


def _omega_table(alpha: float, N: int) -> tuple[np.ndarray, float]:
    """Omega[m] = omega(m / N) for m in Z_N, and a bound on its error.

    omega(x) = 2 sum_{k >= 1} k^(-2 alpha) cos(2 pi k x), the korobov_omega
    sum.  omega is even, so only m = 0..N // 2 is computed, and the rest
    is its mirror Omega[N - m] = Omega[m], exactly at every alpha.  Integer
    alpha in {1,2,3} computes korobov_omega(alpha, m / N), bound 0.0.
    Other alpha group k by residue: with
        c_r = sum_{k >= 1, k = r mod N} k^(-2 alpha)
            = N^(-2 alpha) zeta(2 alpha, r / N)   (Hurwitz; r = 0: zeta(2 alpha)),
    Omega = 2 Re(DFT(c)), one real FFT of length N with nothing truncated.
    Each c_r sums its first _HURWITZ_TERMS terms directly and the rest by
    _hurwitz_sum.  The bound, a Python float, is twice the sum of
      * the Euler-Maclaurin remainders of the c_r,
      * 4u per summed term of c (16 direct, 2 tail, 8 corrections), times
        sum(c), for the rounding of c,
      * eta sqrt(N) |c|_2, eta = _FFT_ETA u log2(N): the FFT's 2-norm error,
        which caps its largest entry error.
    The last bits of a non-integer table follow the numpy FFT build, as
    _cos_partial_sum's follow np.cos.  ValueError before any work unless
    1 <= N <= _TABLE_CAP.
    """
    alpha = _check_alpha(alpha)
    N = int(N)
    if not 1 <= N <= _TABLE_CAP:
        raise ValueError(f"omega table capped at 1 <= N <= {_TABLE_CAP}, got N={N}")
    if alpha.is_integer() and int(alpha) in _CLOSED_ALPHAS:
        half, bound = korobov_omega(int(alpha), np.arange(N // 2 + 1) / N), 0.0
    else:
        x = 2.0 * alpha
        r = np.arange(N, dtype=np.float64)
        r[0] = N  # residue 0 starts at k = N
        head = np.zeros(N)
        for j in range(_HURWITZ_TERMS - 1, -1, -1):  # smallest terms first
            head += (r + j * N) ** -x
        c, rem = _hurwitz_sum(x, head, r + _HURWITZ_TERMS * N, N)
        half = 2.0 * np.fft.rfft(c).real
        terms = _HURWITZ_TERMS + 2 + len(_B2K)
        eta = _FFT_ETA * _U * math.log2(max(N, 2))
        bound = 2.0 * (float(np.sum(rem)) + 4.0 * terms * _U * float(c.sum())
                       + eta * math.sqrt(N) * math.sqrt(float(c @ c)))
    return np.concatenate((half, half[1:(N + 1) // 2][::-1])), bound


def series_kmax(alpha: float, gamma: float, policy: TruncationPolicy) -> int:
    """Smallest K with gamma * K^(1-2 alpha)/(2 alpha - 1) <= policy.tol."""
    alpha = _check_alpha(alpha)
    (gamma,) = _check_gammas((gamma,))
    try:
        need = (gamma / (policy.tol * (2.0 * alpha - 1.0))) ** (1.0 / (2.0 * alpha - 1.0))
        k = max(1, math.ceil(need * (1.0 - 1e-12)))
    except OverflowError:  # near alpha = 1/2 the power overflows: no budget suffices
        k = math.inf
    if k > policy.max_terms:
        raise TruncationBudgetError(
            f"series needs {k} terms for tol={policy.tol}, above max_terms={policy.max_terms}"
        )
    return k


def series_tail_bound(alpha: float, gamma: float, kmax: int) -> float:
    """Integral estimate gamma * K^(1-2 alpha)/(2 alpha - 1) for the dropped tail."""
    alpha = _check_alpha(alpha)
    (gamma,) = _check_gammas((gamma,))
    if not kmax >= 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    return gamma * float(kmax) ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)


def _cos_partial_sum(theta, alpha: float, kmax: int):
    """sum_{k=1}^{kmax} k^(-2 alpha) cos(pi k theta), elementwise.

    |theta| is reduced mod 2 (the sum is even).  Lattice-derived arguments
    repeat heavily, so the sum is evaluated once per distinct value.
    """
    th = np.mod(np.abs(np.asarray(theta, dtype=np.float64)), 2.0)
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


def _sobolev_factor(alpha: float, gamma: float, x, y):
    a = _require_closed_alpha(alpha)
    val = np.ones(np.broadcast(x, y).shape)
    tmp = np.empty(val.shape)
    for t in range(1, a + 1):
        # B_t(x) B_t(y) first, so the value is symmetric in x and y to the bit
        np.multiply(bernoulli_poly(t, x), bernoulli_poly(t, y), out=tmp)
        tmp *= gamma
        tmp /= math.factorial(t) ** 2
        val += tmp
    term = bernoulli_poly(2 * a, np.abs(np.subtract(x, y, out=tmp), out=tmp))
    term *= (-1.0) ** a * gamma
    term /= math.factorial(2 * a)
    val -= term
    return val[()]


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
    sobolev family is a Bernoulli closed form with tail_bound 0.  The
    korobov, cosine and korcos families are written once, through the cosine
    sum c(theta) of the module docstring: at integer alpha in {1,2,3} c is
    the closed form omega(frac(theta / 2)) / 2, with tail_bound 0 and no
    series terms; other alpha sum c as a series truncated by policy.  Both
    read the even c at |theta|, so values are symmetric in x and y to the bit.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    (gamma,) = _check_gammas((gamma,))
    alpha = _check_alpha(alpha)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    if family == "sobolev":
        return _sobolev_factor(alpha, gamma, x, y), 0.0

    if alpha.is_integer() and int(alpha) in _CLOSED_ALPHAS:
        a = int(alpha)

        def c(theta):
            # omega is even, so this is exact and c(-theta) has c(theta)'s bits
            np.abs(theta, out=theta)
            theta *= 0.5
            theta %= 1.0
            np.minimum(theta, 1.0 - theta, out=theta)
            val = korobov_omega(a, theta)
            val *= 0.5
            return val

        tail = 0.0
    else:
        kmax = series_kmax(alpha, gamma, policy)

        def c(theta):
            return _cos_partial_sum(theta, alpha, kmax)

        # every family weighs its c terms by 2 gamma in total
        tail = 2.0 * series_tail_bound(alpha, gamma, kmax)

    shape = np.broadcast(x, y).shape

    def kor_part():
        """c(2 (x - y))."""
        theta = np.subtract(x, y, out=np.empty(shape))
        theta *= 2.0
        return c(theta)

    def cos_part():
        """c(x - y) + c(x + y)."""
        val = c(np.subtract(x, y, out=np.empty(shape)))
        val += c(np.add(x, y, out=np.empty(shape)))
        return val

    # In place, in the order of the module docstring's expressions, so every
    # value keeps their bits; c may overwrite its fresh argument.  A closed-
    # form call holds at most three tables; korcos builds its cosine part
    # first to stay there.
    if family == "korobov":
        val = kor_part()
        val *= 2.0 * gamma
    elif family == "cosine":
        val = cos_part()
        val *= gamma
    else:
        cos = cos_part()
        cos *= 0.5 * gamma
        val = kor_part()
        val *= gamma
    val += 1.0
    if family == "korcos":
        val += cos
    return val[()], tail


def _product_tail(bounds, maxima) -> float:
    """Error bound for a product of factors, factor j off by at most bounds[j].

    Sums bounds[j] times the other factors' magnitude caps, each computed
    maximum maxima[j] plus bounds[j]; maxima is read only under a nonzero
    bound.  Returns a Python float whether the inputs are sequences or arrays.
    """
    tail = 0.0
    for j, b in enumerate(bounds):
        if b:
            tail += b * float(np.prod(np.delete(np.add(maxima, bounds), j)))
    return float(tail)


def _gl_grid(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes and weights on [0,1]."""
    xg, wg = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    wts = (half[:, None] * wg[None, :]).ravel()
    return nodes, wts


def _coeff_quadrature(f: Callable, axis_weight: Callable, s: int, panels: int, target: float):
    """Tensor quadrature of f(x) * prod_j axis_weight(j, x_j) over [0,1]^s.

    axis_weight(j, nodes) must return the (possibly complex) per-axis factor.
    f is called once with each full (M, s) grid, at panels and 2 * panels per
    axis; the finer value is returned only if it is within target of the other.
    """
    vals = []
    for p in (panels, 2 * panels):
        nodes, wts = _gl_grid(p)
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
        vals.append(acc.sum())
    v1, v2 = vals
    if abs(v2 - v1) > target:
        raise QuadratureAccuracyError(
            f"panel doubling moved the coefficient by {abs(v2 - v1):.3e} (> {target})"
        )
    return v2


def cosine_coeff(f: Callable, k, target: float = 1e-10) -> float:
    """Coefficient of f against the orthonormal cosine basis indexed by k >= 0.

    The basis factor per axis is 1 for k_j = 0 and sqrt(2) cos(pi k_j x_j)
    otherwise; s = len(k), and a scalar k means s = 1.  f must accept an
    (M, s) array of points and return M values.
    Composite 16-point Gauss-Legendre with max(8, 5*max(k)) panels per axis
    (at least five panels per half oscillation); the result is accepted only
    if doubling the panel count moves it by at most ``target``.
    """
    kvec = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if kvec.ndim != 1:
        raise ValueError("k must be a scalar or a 1-d sequence")
    if kvec.min(initial=0) < 0:
        raise ValueError("cosine indices must be nonnegative")

    def axis_weight(j, xs):
        if kvec[j] == 0:
            return np.ones_like(xs)
        return math.sqrt(2.0) * np.cos(math.pi * int(kvec[j]) * xs)

    panels = max(8, 5 * int(kvec.max(initial=0)))
    return float(_coeff_quadrature(f, axis_weight, kvec.size, panels, target))


def fourier_coeff(f: Callable, h, target: float = 1e-10) -> complex:
    """Fourier coefficient integral of f(x) e^(-2 pi i h . x); complex result.

    Same quadrature and panel-doubling check as cosine_coeff, with panel count
    max(8, 10*max|h|) so the full-period exponential keeps at least five
    panels per half oscillation.
    """
    hvec = np.atleast_1d(np.asarray(h, dtype=np.int64))
    if hvec.ndim != 1:
        raise ValueError("h must be a scalar or a 1-d sequence")

    def axis_weight(j, xs):
        return np.exp(-2j * math.pi * int(hvec[j]) * xs)

    panels = max(8, 10 * int(np.abs(hvec).max(initial=0)))
    return complex(_coeff_quadrature(f, axis_weight, hvec.size, panels, target))
