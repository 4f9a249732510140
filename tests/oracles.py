"""Independent oracles that only the tests call.

Coefficients of an integrand against the cosine and Fourier bases, by
tensor Gauss-Legendre quadrature with a panel-doubling check, the units of
a modulus as a plain gcd list, the kernel arguments reduced by
np.remainder, one coordinate's kernel factor on nodes p / N, and the CBC
search as a direct scan of every unit, and the per-coordinate rule that
``points._denominator`` falls back on, one column and one value at a time.  The factor shares the kernels'
Omega_2N parts and their weighting, ``kernels._table_parts`` and
``kernels._periodic_tables``, which define it, and takes them for one
weight, as a lone coordinate does.  The scan shares the omega table
``kernels._omega_table`` and the tie tolerance ``cbc.TIE_RTOL``, which
define the search, and the public ``wce_korobov_lattice`` and
``cbc_bound_constant`` for its reported errors, in the package's
``CbcResult``.  Its sum D must follow any change to the order in which
``cbc_construct`` sums D, as the two agree bit for bit.
"""
import math
from typing import Callable

import numpy as np

from latquad.cbc import TIE_RTOL, CbcResult
from latquad.kernels import _omega_table, _periodic_tables, _table_parts
from latquad.points import LatticeRule
from latquad.wce import cbc_bound_constant, wce_korobov_lattice

# largest tensor quadrature grid, in points
_QUAD_POINT_CAP = 1 << 24


class QuadratureAccuracyError(ArithmeticError):
    """Panel-doubling estimate failed the requested accuracy target."""


def candidate_set(N: int) -> list[int]:
    """Units mod N in ascending order, by gcd; N >= 2, else ValueError."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    return [z for z in range(1, N) if math.gcd(z, N) == 1]


def coordinate_denominator(x) -> int | None:
    """The lcm of the N_j of the columns of x, N_j the first of rint(1 / d)
    and rint(2 / d), d the column's least positive x or 1 - x (1 if none),
    with fl(rint(x N_j) / N_j) == x for all its values; None if a column
    has none or the lcm is past 2^51."""
    Ns = []
    for col in np.asarray(x, dtype=np.float64).T.tolist():
        d = min([v for c in col for v in (c, 1.0 - c) if v > 0] + [1.0])
        d = max(d, 2.0**-52)
        Ns += [next((n for n in (round(1.0 / d), round(2.0 / d))
                     if all(round(c * n) / n == c for c in col)), None)]
    if None in Ns:
        return None
    N = math.lcm(*Ns)
    return N if N <= 1 << 51 else None


def table_factor(family: str, gamma: float, half: np.ndarray, bound: float, p, q):
    """The korobov, cosine or korcos factor at x = p / N, y = q / N read from
    half = Omega_2N / 2, entry 0 appended as entry 2N, by
    ``kernels._table_parts`` for the one weight gamma; returns (values,
    gamma * bound), bound the table's b, since each family weighs its Omega
    entries by gamma in total.  It holds at most three tables."""
    return _periodic_tables(family, (gamma,), _table_parts(family, half, p, q))[0], gamma * bound


def closed_form_argument(theta) -> np.ndarray:
    """min(t, 1 - t) for t = (|theta| / 2) mod 1 by np.remainder: where the
    closed-form cosine sum reads omega, reduced as the kernels once did."""
    t = np.abs(np.asarray(theta, dtype=np.float64)) * 0.5
    t %= 1.0
    return np.minimum(t, 1.0 - t)


def series_argument(theta) -> np.ndarray:
    """|theta| mod 2 by np.mod: where the cosine series is summed, reduced as
    the kernels once did."""
    return np.mod(np.abs(np.asarray(theta, dtype=np.float64)), 2.0)


def cbc_scan(N: int, s: int, alpha: float, gammas) -> CbcResult:
    """``cbc_construct`` by the direct scan of every unit z mod N, z > N/2
    included.

    Coordinate 1 takes z = 1.  Each later one sums D(z) = sum_{n >= 1}
    prod[n] Omega[n z mod N] for every unit and takes the smallest unit
    within TIE_RTOL * sum_{n >= 1} |prod[n]| max_{m != 0} |Omega[m]| of the
    minimum.  After coordinate d the error is ``wce_korobov_lattice`` of the
    first d + 1 coordinates, checked against ``cbc_bound_constant`` of
    their weights, tau = 1.
    """
    gammas = [float(g) for g in gammas]
    om, _ = _omega_table(alpha, N)
    n = np.arange(N, dtype=np.int64)
    om_max = float(np.abs(om[1:]).max())
    prod = np.ones(N)
    g, per_dim_e2, bound_ok = [], [], []
    for d in range(s):
        z = 1
        if d:
            window = TIE_RTOL * (float(np.abs(prod[1:]).sum()) * om_max)
            D = {u: float(np.sum(prod[1:] * om[n[1:] * u % N])) for u in candidate_set(N)}
            top = min(D.values()) + window
            z = min(u for u, v in D.items() if v <= top)
        g.append(z)
        prod *= 1.0 + gammas[d] * om[n * z % N]
        e2 = wce_korobov_lattice(LatticeRule(N, tuple(g)), alpha, gammas[:d + 1]).e2
        c = cbc_bound_constant(alpha, gammas[:d + 1])
        per_dim_e2.append(e2)
        bound_ok.append(e2 <= c * c / (N - 1))
    return CbcResult(LatticeRule(N, tuple(g)), tuple(per_dim_e2), tuple(bound_ok))


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
