"""Reproducing kernels, omega tables and truncation bounds of lattice quadrature spaces.

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
``_periodic_parts`` and ``_periodic_tables`` write them once, for every c.
Integer alpha in {1,2,3} evaluates c through the closed form
c(theta) = omega(frac(theta / 2)) / 2, so every family is exact there; other
alpha sum c as a truncated series in ``kernel_factor``.  The truncated cosine
series and the coefficient quadrature oracles live in the tests.

On lattice nodes only omega(m / N), m in Z_N, is needed, and
``_omega_table`` gives it at every alpha > 1/2: the closed form at 1..3,
else one real FFT of the Hurwitz-zeta residue sums, with an error bound.
On nodes p / N, as a rule's sets and the points files written from them
are, every argument of c is r / N and c(r / N) = Omega_2N[r mod 2N] / 2,
Omega_2N the table at modulus 2N; ``_table_parts`` passes that c to
``_periodic_parts``, so the double sum there needs no series.

Truncated evaluations report a rigorous bound alongside the value: the
dropped terms of one factor are bounded by 2 * gamma * sum_{k > K} k^(-2 alpha)
<= 2 * gamma * K^(1 - 2 alpha) / (2 alpha - 1) (basis products never exceed 2
in magnitude), and the rounding of the kept terms by 2 * gamma times
``_series_rounding``.
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
    "bernoulli_poly",
    "zeta",
    "korobov_omega",
    "series_kmax",
    "series_tail_bound",
    "kernel_factor",
]

FAMILIES = ("sobolev", "korobov", "cosine", "korcos")

# smoothness values with a Bernoulli closed form
_CLOSED_ALPHAS = (1, 2, 3)

# cap on the values of one vectorized series chunk
_SERIES_CHUNK = 4_000_000
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


def _closed(alpha: float) -> bool:
    """True for the smoothness values with a Bernoulli closed form, 1..3."""
    a = float(alpha)
    return a.is_integer() and int(a) in _CLOSED_ALPHAS


def _require_closed_alpha(alpha: float) -> int:
    if not _closed(alpha):
        raise ValueError(f"closed-form smoothness must be an integer in 1..3, got {alpha}")
    return int(float(alpha))


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
    # Horner in place, in np.polyval's order, so the values keep its bits;
    # the leading coefficient is 1.0, and 1.0 x is x
    x = np.asarray(x, dtype=np.float64)
    y = np.add(x, coeffs[1], out=np.empty(x.shape))
    for c in coeffs[2:]:
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

    Euler-Maclaurin summation (M = 64 direct terms plus correction terms
    through B_16, far below 1e-12 relative error on this domain).  At x = 2
    and 6 it is the correctly rounded value; zeta(4) is one ulp below it,
    as fl(pi^4 / 90) is.
    """
    x = float(x)
    if not x > 1.0:
        raise ValueError("zeta is only evaluated for x > 1")
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
    if _closed(alpha):
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


def _series_rounding(alpha: float, kmax: int) -> float:
    """Bound on the rounding of one ``_cos_partial_sum`` value, against the
    exact partial sum at its float argument theta, reduced to [0, 2).

    With u the unit roundoff and g_n = n u / (1 - n u):
      * the argument fl(fl(pi theta) k) is within g_3 pi theta k < 2 pi g_3 k
        of pi theta k (np.pi and two products), and cos is 1-Lipschitz:
        2 pi g_3 sum_k k^(1 - 2 alpha) in all;
      * k^(-2 alpha) within one ulp, cos within four and their product
        within half of one: 8 u k^(-2 alpha) per term;
      * a term meets at most n = ceil(log2 chunk) additions in its chunk's
        pairwise tree and one for each later chunk of kmax: g_n times the
        sum of the computed magnitudes, at most (1 + 8 u) zeta(2 alpha).
    The summand k^(1 - 2 alpha) is monotone, so its sum is at most
    1 + kmax^(1 - 2 alpha) + int_1^kmax x^(1 - 2 alpha) dx.
    """
    K = int(kmax)
    chunk = min(K, _SERIES_CHUNK)
    n = (chunk - 1).bit_length() + -(-K // chunk) - 1

    def g(m):
        return m * _U / (1.0 - m * _U)

    e, lk = 2.0 - 2.0 * alpha, math.log(K)
    ksum = 1.0 + K ** (1.0 - 2.0 * alpha) + (lk if e == 0.0 else math.expm1(e * lk) / e)
    return (zeta(2.0 * alpha) * (8.0 * _U + g(n) * (1.0 + 8.0 * _U))
            + 2.0 * math.pi * g(3) * ksum)


def _mod2(th):
    """th mod 2 in place, exact for th >= 0: np.mod's bits without its division."""
    th -= 2.0 * np.floor(0.5 * th)
    return th


def _cos_partial_sum(theta, alpha: float, kmax: int, out=None):
    """sum_{k=1}^{kmax} k^(-2 alpha) cos(pi k theta), elementwise.

    |theta| is reduced mod 2 (the sum is even).  Lattice-derived arguments
    repeat heavily, so the sum is evaluated once per distinct value.  The
    terms go in k-chunks of min(kmax, _SERIES_CHUNK), fixed by kmax alone.
    A chunk's cos block holds one row per distinct value, as many as fit in
    _SERIES_CHUNK values; a pairwise tree of elementwise additions folds
    its columns onto the first, which is added into the values' sums.  Each
    value so takes the same operations, in the same order, whatever other
    arguments share the call, and has the same bits; ``_series_rounding``
    bounds their rounding.  ``out``, a C-contiguous float64 array of theta's
    shape, may be theta itself: the reduced arguments and then the result
    are written there, so a call holds no table beyond np.unique's.
    """
    th = _mod2(np.abs(theta, out=np.empty(np.shape(theta)) if out is None else out))
    u, inv = np.unique(th, return_inverse=True)
    acc = np.zeros(u.size)
    chunk = min(kmax, _SERIES_CHUNK)
    rows = max(1, _SERIES_CHUNK // chunk)
    pu = np.pi * u
    buf = np.empty(min(rows, u.size) * chunk)
    for lo in range(1, kmax + 1, chunk):
        k = np.arange(lo, min(kmax, lo + chunk - 1) + 1, dtype=np.float64)
        ck = k ** (-2.0 * alpha)
        for r0 in range(0, u.size, rows):
            sums = acc[r0:r0 + rows]
            c = buf[:sums.size * k.size].reshape(sums.size, k.size)
            np.multiply(pu[r0:r0 + rows, None], k, out=c)
            np.cos(c, out=c)
            c *= ck
            n = k.size
            while n > 1:
                h = n // 2
                np.add(c[:, :h], c[:, n - h:n], out=c[:, :h])
                n -= h
            np.add(sums, c[:, 0], out=sums)
    # mode="clip" gathers straight into th; inverse indices are in range
    return np.take(acc, inv.reshape(th.shape), out=th, mode="clip")


def _sobolev_tables(alpha: float, gammas, x, y) -> list:
    """The sobolev table for each weight in gammas by a lone call's steps,
    with one B_2alpha(|x - y|), built after the products, for them all."""
    a = _require_closed_alpha(alpha)
    shape = np.broadcast(x, y).shape
    tmp, vals = np.empty(shape), []
    for gamma in gammas:
        val = np.ones(shape)
        for t in range(1, a + 1):
            # B_t(x) B_t(y) first, so the value is symmetric in x and y to the bit
            np.multiply(bernoulli_poly(t, x), bernoulli_poly(t, y), out=tmp)
            tmp *= gamma
            tmp /= math.factorial(t) ** 2
            val += tmp
        vals.append(val)
    part = bernoulli_poly(2 * a, np.abs(np.subtract(x, y, out=tmp), out=tmp))
    for val, gamma in zip(vals, gammas):
        np.multiply(part, (-1.0) ** a * gamma, out=tmp)
        tmp /= math.factorial(2 * a)
        val -= tmp
    return [val[()] for val in vals]


def _half_turns(theta):
    """min(t, 1 - t), t = frac(|theta| / 2), in place: the closed-form c's
    argument.  t - floor(t) is exact, so it has np.remainder's bits."""
    np.abs(theta, out=theta)
    theta *= 0.5
    theta -= np.floor(theta)
    np.minimum(theta, 1.0 - theta, out=theta)
    return theta


def _closed_tables(family: str, alpha: float, gammas, x, y) -> list:
    """``kernel_factor``'s closed-form table (sobolev, or integer alpha in
    {1,2,3}) for each weight in gammas, from one gamma-free evaluation."""
    if family == "sobolev":
        return _sobolev_tables(alpha, gammas, x, y)
    a = int(alpha)

    def c(theta):
        # omega is even, so this is exact and c(-theta) has c(theta)'s bits
        return np.multiply(korobov_omega(a, _half_turns(theta)), 0.5, out=theta)

    return _periodic_tables(family, gammas, _float_parts(family, c, x, y))


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
    korobov, cosine and korcos families are ``_periodic_tables`` of the
    cosine sum c(theta) of the module docstring: at integer alpha in {1,2,3} c is
    the closed form omega(frac(theta / 2)) / 2, with tail_bound 0 and no
    series terms; other alpha sum c as a series truncated by policy, and
    tail_bound covers the dropped terms and the rounding of the kept ones
    (``_series_rounding``).  Both read the even c at |theta|, so values are
    symmetric in x and y to the bit.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    (gamma,) = _check_gammas((gamma,))
    alpha = _check_alpha(alpha)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if family == "sobolev" or _closed(alpha):
        return _closed_tables(family, alpha, (gamma,), x, y)[0], 0.0

    kmax = series_kmax(alpha, gamma, policy)

    def c(theta):
        return _cos_partial_sum(theta, alpha, kmax, out=theta)

    # every family weighs its c terms by 2 gamma in total
    tail = 2.0 * (series_tail_bound(alpha, gamma, kmax)
                  + gamma * _series_rounding(alpha, kmax))
    return _periodic_tables(family, (gamma,), _float_parts(family, c, x, y))[0], tail


def _float_parts(family: str, c: Callable, x, y) -> list:
    """``_periodic_parts`` at float x and y, each argument a fresh table."""
    shape = np.broadcast(x, y).shape

    def diff(twice: bool):
        theta = np.subtract(x, y, out=np.empty(shape))
        return np.multiply(theta, 2.0, out=theta) if twice else theta

    return _periodic_parts(family, c, diff, lambda: np.add(x, y, out=np.empty(shape)))


def _periodic_parts(family: str, c: Callable, diff: Callable, add: Callable) -> list:
    """The gamma-free parts of the module docstring's expressions in c:
    [c(2 (x - y))] for korobov, [c(x - y) + c(x + y)] for cosine, both for
    korcos.  diff(twice) builds x - y, or 2 (x - y), and add() x + y, as an
    argument that c may overwrite; c returns a table that no later builder
    writes.  So this holds at most three tables: korcos keeps its cosine
    sum while it builds c(2 (x - y)).
    """
    parts = []
    if family != "korobov":
        cos = c(diff(False))
        cos += c(add())
        parts.append(cos)
    if family != "cosine":
        parts.append(c(diff(True)))
    return parts


def _periodic_tables(family: str, gammas, parts: list) -> list:
    """The family's table for each weight in gammas from its
    ``_periodic_parts``, in the expressions' order, so each has the bits of
    a lone call.  The last table is built in place in the parts; korcos
    weighs its cosine sum for the earlier ones in one scratch table.
    """
    out = []
    scratch = np.empty_like(parts[0]) if family == "korcos" and len(gammas) > 1 else None
    for i, gamma in enumerate(gammas):
        last = i == len(gammas) - 1
        val = np.multiply(parts[-1], 2.0 * gamma if family == "korobov" else gamma,
                          out=parts[-1] if last else None)
        val += 1.0
        if family == "korcos":
            val += np.multiply(parts[0], 0.5 * gamma, out=parts[0] if last else scratch)
        out.append(val[()])
    return out


def _table_parts(family: str, half: np.ndarray, p, q) -> list:
    """``_periodic_parts`` at x = p / N, y = q / N from half = Omega_2N / 2,
    ``_omega_table(alpha, 2 N)`` with entry 0 appended as entry 2N, halved,
    which is exact.  p and q are integer arrays in 0..N that broadcast.
    Each argument is r / N and omega(r / (2 N)) = 2 c(r / N), so c(r / N) =
    half[r]; Omega is exactly even, so |p - q| may stand for p - q, and
    every index lies in 0..2N.  At most three tables: the indices, which
    every argument reuses, the cosine sum and one gathered part.
    """
    shape = np.broadcast(p, q).shape
    idx = np.empty(shape, dtype=np.intp)

    def diff(twice: bool):
        np.abs(np.subtract(p, q, out=idx), out=idx)
        return np.left_shift(idx, 1, out=idx) if twice else idx

    def c(r):
        # mode="clip" gathers straight into a new table; the indices are in
        # range.  Each part lives for one statement, so the index arithmetic
        # and its ufunc buffers never run beside three tables.
        return half.take(r, out=np.empty(shape), mode="clip")

    return _periodic_parts(family, c, diff, lambda: np.add(p, q, out=idx))


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
