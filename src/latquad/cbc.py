"""Component-by-component construction of generating vectors.

Greedy per-coordinate minimization of the Korobov-space squared worst-case
error.  The node products prod of the fixed coordinates are updated
incrementally; unit z for the next coordinate, of weight gamma > 0, has
e2(z) = (sum_n prod[n] + gamma prod[0] Omega[0] + gamma D(z)) / N - 1 with

    D(z) = sum_{n >= 1} prod[n] Omega[n z mod N],

so the units are ranked by D alone, summed directly in O(N) per unit, and
the reported errors come from ``wce``'s single sum.  For prime N and N = 2^m
the unit group is cyclic, or {+-5^a} on each 2-adic level of n, so D of all
units is one cyclic correlation that an FFT evaluates in O(N log N) (Nuyens
& Cools, Math. Comp. 75, 2006, for prime N; J. Complexity 22, 2006, for
non-prime N).  That screen only rules units out: the few it cannot are
summed directly, so the result equals the full direct scan bit for bit and
the search costs O(s N log N).  Other moduli take the full scan, O(s N phi(N)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _FFT_ETA, _U, _check_alpha, _check_gammas, _omega_table
# Not called here: the benchmark tracer wraps latquad.cbc.korobov_omega.
from .kernels import korobov_omega  # noqa: F401
from .points import LatticeRule
from .wce import _factor_row, _single_sum_e2, cbc_bound_constant

__all__ = ["CbcResult", "candidate_set", "cbc_construct"]

# Units whose D lies within TIE_RTOL * sum_{n >= 1} |prod[n]| max_{m != 0}
# |Omega[m]|, the size of D's terms, of the minimum tie.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class CbcResult:
    """Constructed rule with the greedy error after each coordinate.

    ``bound_ok[d]`` records whether the error after fixing coordinate d meets
    the tau = 1 guarantee e^2 <= C^2 / (N - 1); the guarantee is proved for
    prime N, so the flag is informational for composite moduli.
    """

    rule: LatticeRule
    per_dim_e2: tuple[float, ...]
    bound_ok: tuple[bool, ...]


def candidate_set(N: int) -> list[int]:
    """Units mod N in ascending order: the CBC search space per coordinate."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    return [z for z in range(1, N) if math.gcd(z, N) == 1]


def cbc_construct(N: int, s: int, alpha: float, gammas) -> CbcResult:
    """Greedy generating vector for the Korobov space, any finite alpha > 1/2.

    omega comes from ``kernels._omega_table``: the closed form at integer
    alpha in 1..3, the aliased Hurwitz-zeta table otherwise; the table is
    built first, so N above its cap is refused before any work.

    Tie rule: g_1 = 1, since every unit gives the same error in one
    dimension.  In each later coordinate the winner is the smallest unit z
    whose directly summed D(z) lies within TIE_RTOL * sum_{n >= 1} |prod[n]|
    max_{m != 0} |Omega[m]|, the size of D's terms, of the minimum over all
    units; the weight does not enter, so rounding noise never picks the
    component.  Prime and power-of-two moduli are screened by FFT and return
    the same result as the full scan, bit for bit.  ``per_dim_e2[d]`` is
    ``wce_korobov_lattice`` of the first d + 1 coordinates, bit for bit.
    """
    return _construct(N, s, alpha, gammas, fast=True)


def _reference_construct(N: int, s: int, alpha: float, gammas) -> CbcResult:
    """``cbc_construct`` by the full direct scan of every unit: the test oracle."""
    return _construct(N, s, alpha, gammas, fast=False)


def _construct(N: int, s: int, alpha: float, gammas, fast: bool) -> CbcResult:
    N = int(N)
    s = int(s)
    if s < 1:
        raise ValueError("dimension must be at least 1")
    alpha = _check_alpha(alpha)
    gammas = _check_gammas(gammas, s)

    om, _ = _omega_table(alpha, N)
    zs = np.array(candidate_set(N), dtype=np.int64)
    om_max = float(np.abs(om[1:]).max())
    n = np.arange(N, dtype=np.int64)
    screen = _UnitScreen(N, om, zs) if fast and s > 1 and _has_fft_screen(N) else None
    prod = np.ones(N)
    g: list[int] = []
    per_dim_e2: list[float] = []
    bound_ok: list[bool] = []
    for d in range(s):
        if d == 0:
            best_z = 1
        else:
            scale = float(np.abs(prod[1:]).sum()) * om_max
            cands = (zs if screen is None else screen.candidates(prod, scale)).tolist()
            D = [float(np.sum(prod[1:] * om[n[1:] * z % N])) for z in cands]
            top = min(D) + TIE_RTOL * scale
            best_z = next(z for z, v in zip(cands, D) if v <= top)
        g.append(best_z)
        prod *= _factor_row(om, best_z, gammas[d])
        per_dim_e2.append(_single_sum_e2(prod))
        c = cbc_bound_constant(alpha, gammas[: d + 1], tau=1.0)
        bound_ok.append(per_dim_e2[-1] <= c * c / (N - 1))
    return CbcResult(LatticeRule(N, tuple(g)), tuple(per_dim_e2), tuple(bound_ok))


def _has_fft_screen(N: int) -> bool:
    """True for prime N and for N = 2^m."""
    return N & (N - 1) == 0 or all(N % q for q in range(2, math.isqrt(N) + 1))


def _powers(base: int, count: int, N: int) -> np.ndarray:
    """base^k mod N for 0 <= k < count, by doubling the known prefix:
    out[k:2k] = out[:k] base^k mod N, products below N^2 <= 2^44."""
    out = np.ones(count, dtype=np.int64)
    k = 1
    while k < count:
        m = min(k, count - k)
        out[k:k + m] = out[:m] * (int(out[k - 1]) * base % N) % N
        k += m
    return out


def _primitive_root(p: int) -> int:
    L, rest, qs, q = p - 1, p - 1, [], 2
    while q * q <= rest:
        if rest % q == 0:
            qs.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        qs.append(rest)
    return next(r for r in range(2, p) if all(pow(r, L // q, p) != 1 for q in qs))


class _UnitScreen:
    """Screened D of every unit z for one coordinate, by FFT correlation.

    T(z) = sum_{n >= 1} prod[n] omega[n z mod N] splits over the nodes n.
    Nodes with a few fixed residues n z mod N for all units (the 2-adic
    levels of modulus below 8) are summed directly.  Every other node set is
    an orbit of the unit group acting by multiplication, indexed by cyclic
    groups: the powers r^j of a primitive root r for odd prime N (shape
    1 x (N - 1)), and 2^v (-1)^b 5^a mod N on the level of nodes with 2-adic
    valuation v for N = 2^m (shape 2 x 2^(m-v-2)).  There T is the cyclic
    correlation of prod with omega over that group, one rfft2 and one
    irfft2 per level.  Node 0, the same for every unit, is left out.
    """

    def __init__(self, N: int, om: np.ndarray, zs: np.ndarray):
        self.N, self.zs = N, zs
        self.om_max = float(np.abs(om[1:]).max())
        fixed = []
        groups = []  # (node grid, flat correlation index of each unit)
        if N & (N - 1):
            root = _powers(_primitive_root(N), N - 1, N)
            log = np.empty(N, dtype=np.int64)
            log[root] = np.arange(N - 1)
            groups.append((root[None, :], log[zs]))
        else:
            m = N.bit_length() - 1
            if m >= 3:
                full = _powers(5, N // 4, N)
                sign, log = np.empty(N, dtype=np.int64), np.empty(N, dtype=np.int64)
                sign[full], sign[N - full] = 0, 1
                log[full] = log[N - full] = np.arange(N // 4)
            for v in range(m):
                M = N >> v
                if M < 8:
                    fixed.extend(u << v for u in range(1, M, 2))
                    continue
                pw = full[:M // 4] % M  # 5^k mod M, as M divides N
                grid = np.stack([pw, M - pw]) << v
                groups.append((grid, sign[zs] * (M // 4) + log[zs] % (M // 4)))
        self.fixed = [(k, om[(k * zs) % N]) for k in fixed]
        self.levels = []
        for grid, pos in groups:
            b = om[grid]
            eta = _FFT_ETA * _U * math.log2(max(grid.size, 2))
            self.levels.append((grid, pos, np.fft.rfft2(b), float(np.abs(b).sum()),
                                float(np.sqrt((b * b).sum())), 2.0 * eta + 3.0 * _U))

    def screen(self, prod: np.ndarray) -> tuple[np.ndarray, float]:
        """Screened T of every unit, ascending, and a bound B on |T - D| for
        the exact D of each unit.

        Each level's FFT correlation c of a = prod and b = omega on its node
        grid of size L is taken to satisfy |c - exact| <= (2 eta + 3u)
        (|a|_1 |b|_2 + |a|_2 |b|_1) with eta = _FFT_ETA u log2 L.  The directly
        summed terms and the additions across levels add 2u
        sum_{n >= 1} |prod[n]| max_{m != 0} |omega[m]| each.  B is the sum of
        these.
        """
        T = np.zeros(len(self.zs))
        for k, w in self.fixed:
            T += prod[k] * w
        p1 = float(np.abs(prod[1:]).sum())
        err = 2.0 * (len(self.fixed) + len(self.levels)) * _U * p1 * self.om_max
        for grid, pos, fb, b1, b2, scale in self.levels:
            a = prod[grid]
            c = np.fft.irfft2(np.conj(np.fft.rfft2(a)) * fb, s=a.shape)
            T += c.ravel()[pos]
            err += scale * (float(np.abs(a).sum()) * b2 + float(np.sqrt((a * a).sum())) * b1)
        return T, err

    def candidates(self, prod: np.ndarray, scale: float) -> np.ndarray:
        """Units, ascending, that may win by the tie rule; all others cannot.

        With scale = sum_{n >= 1} |prod[n]| max_{m != 0} |omega[m]|, the
        direct D of each unit is within (N + 4) u scale of the exact D, and T
        within B, so |T - direct D| <= E = B + (N + 4) u scale.  The direct
        minimum then lies within E of the screened minimum lo, and every unit
        whose direct D is within the tie window TIE_RTOL scale of the direct
        minimum has T <= lo + 2E + TIE_RTOL scale.
        """
        T, B = self.screen(prod)
        top = float(T.min()) + 2.0 * (B + (self.N + 4) * _U * scale) + TIE_RTOL * scale
        return self.zs[T <= top]
