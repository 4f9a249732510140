"""Component-by-component construction of generating vectors.

Greedy per-coordinate minimization of the Korobov-space squared worst-case
error.  The node products prod of the chosen coordinates are updated
incrementally; unit z for the next coordinate, of weight gamma > 0, has
e2(z) = (sum_n prod[n] + gamma prod[0] Omega[0] + gamma D(z)) / N - 1 with

    D(z) = sum_{n >= 1} prod[n] Omega[n z mod N],

so the units are ranked by D alone, summed directly in O(N) per unit, and
the reported errors come from ``wce``'s single sum.  Omega is exactly even,
so D(N - z) equals D(z) bit for bit and the search covers the classes
{z, -z} through their members z <= N/2.  For prime N and N = 2^m those
classes form a cyclic group, generated by a primitive root, or by 5 on each
2-adic level of n, so D of all units is a cyclic correlation of half
length, one per level, that FFTs evaluate in O(N log N) (Nuyens & Cools,
Math. Comp. 75, 2006, for prime N; J. Complexity 22, 2006, for non-prime
N); the levels' spectra are summed into one, so each coordinate takes one
inverse transform.  That screen only rules units out: the few it cannot are
summed directly, so the result equals the full direct scan bit for bit and
the search costs O(s N log N).
Other moduli take the scan of the units <= N/2, O(s N phi(N) / 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _FFT_ETA, _U, _check_alpha, _check_gammas, _omega_table, _refuse_overflow
# Not called here: the benchmark tracer wraps latquad.cbc.korobov_omega.
from .kernels import korobov_omega  # noqa: F401
from .points import LatticeRule, _integer, _modulus
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
    """Units mod N in ascending order.  Each CBC coordinate searches those
    <= N/2, one per class {z, -z}, since D(N - z) == D(z)."""
    return _units(N).tolist()


def _units(N: int) -> np.ndarray:
    """candidate_set(N) as an int64 array."""
    N = _modulus(N)  # gcd(0, 1) == 1, so the mask alone would keep 0 at N = 1
    n = np.arange(N, dtype=np.int64)
    return n[np.gcd(n, N) == 1]


def cbc_construct(N: int, s: int, alpha: float, gammas) -> CbcResult:
    """Greedy generating vector for the Korobov space, any finite alpha > 1/2.

    omega comes from ``kernels._omega_table``: the closed form at integer
    alpha in 1..3, the aliased Hurwitz-zeta table otherwise.  N < 2 is
    refused first, then N above the table's cap, both before any work.

    Tie rule: g_1 = 1, since every unit gives the same error in one
    dimension.  In each later coordinate the winner is the smallest unit z
    whose directly summed D(z) lies within TIE_RTOL * sum_{n >= 1} |prod[n]|
    max_{m != 0} |Omega[m]|, the size of D's terms, of the minimum over all
    units; the weight does not enter, so rounding noise never picks the
    component.  D(N - z) == D(z) bit for bit, so that unit is at most N/2 and
    only those units are searched.  Prime and power-of-two moduli are
    screened by FFT: the screen returns each unit's screened D and a bound
    on its error, and ``_construct`` alone computes the scale and the tie
    window, keeps the units the bound cannot rule out, sums their D
    directly and picks the winner, so the result equals the full scan of
    every unit, bit for bit.  ``per_dim_e2[d]`` is
    ``wce_korobov_lattice`` of the first d + 1 coordinates, bit for bit.
    """
    return _construct(N, s, alpha, gammas, fast=True)


def _reference_construct(N: int, s: int, alpha: float, gammas) -> CbcResult:
    """``cbc_construct`` by the direct scan of every unit, z > N/2 included:
    the test oracle."""
    return _construct(N, s, alpha, gammas, fast=False)


@_refuse_overflow
def _construct(N: int, s: int, alpha: float, gammas, fast: bool) -> CbcResult:
    N, s = _modulus(N), _integer("dimension", s)
    if s < 1:
        raise ValueError("dimension must be at least 1")
    alpha = _check_alpha(alpha)
    gammas = _check_gammas(gammas, s)

    om, _ = _omega_table(alpha, N)
    zs = _units(N)
    # prime N, whose every nonzero residue is a unit, and N = 2^m are screened
    screened = fast and s > 1 and (len(zs) == N - 1 or N & (N - 1) == 0)
    if fast:
        zs = zs[2 * zs <= N]
    om_max = float(np.abs(om[1:]).max())
    n = np.arange(N, dtype=np.int64)
    screen = _UnitScreen(N, om, zs) if screened else None
    prod = np.ones(N)
    g: list[int] = []
    per_dim_e2: list[float] = []
    bound_ok: list[bool] = []
    for d in range(s):
        if d == 0:
            best_z = 1
        else:
            scale = float(np.abs(prod[1:]).sum()) * om_max
            window = TIE_RTOL * scale
            if screen is None:
                cands = zs.tolist()
            else:
                # T is within B of the exact D and the direct D within
                # (N + 4) u scale of it, so the direct minimum lies within
                # E = B + (N + 4) u scale of min T, and a unit in the window
                # of the direct minimum has T <= min T + 2E + window
                T, B = screen.screen(prod, scale)
                cut = float(T.min()) + 2.0 * (B + (N + 4) * _U * scale) + window
                cands = zs[T <= cut].tolist()
            D = [float(np.sum(prod[1:] * om[n[1:] * z % N])) for z in cands]
            top = min(D) + window
            best_z = next(z for z, v in zip(cands, D) if v <= top)
        g.append(best_z)
        prod *= _factor_row(om, best_z, gammas[d])
        per_dim_e2.append(_single_sum_e2(prod))
        c = cbc_bound_constant(alpha, gammas[: d + 1], tau=1.0)
        bound_ok.append(per_dim_e2[-1] <= c * c / (N - 1))
    return CbcResult(LatticeRule(N, tuple(g)), tuple(per_dim_e2), tuple(bound_ok))


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
    It only evaluates: ``_construct`` picks the survivors and the winner.

    T(z) = sum_{n >= 1} prod[n] omega[n z mod N] splits over the nodes n.
    omega is even, so T(z) = T(-z) and T depends on z through its class
    {z, -z} only.  Nodes in a 2-adic level of modulus below 8 (N/4, N/2,
    3N/4 for N = 2^m) have n z = +-n mod N for every unit, so their terms
    are one constant.  Every other node set is a level of the classes
    {n, -n}, a cyclic group of order L acted on by multiplication: r^i for
    a primitive root r of odd prime N (L = (N - 1)/2), and 2^v 5^i mod N on
    the nodes of 2-adic valuation v for N = 2^m and M = N >> v >= 8
    (L = M/4).  There T is the cyclic correlation of the folded
    a[i] = prod[n_i] + prod[N - n_i] with b[i] = omega[n_i], read at the
    discrete log of z mod L.  Node 0, the same for every unit, is left out.

    Every L divides the longest level's L0 by a power of two r = L0 / L.  A
    level's correlation has period L, so its extension to length L0 has a
    spectrum on the bins r j only, where it is r times the level's own.
    Each level takes one rfft of length L, whose product with the stored
    spectrum of b, scaled by r, is added into every r-th bin of one
    length-L0 half-spectrum; one irfft of length L0 then sums all levels.
    Prime N is the one level with r = 1.  The stored spectrum is conj(B),
    that of b reversed, so the irfft gives the correlation at -log z.
    """

    def __init__(self, N: int, om: np.ndarray, zs: np.ndarray):
        if N & (N - 1):  # odd prime: one level, every nonzero node
            gen, order, const = _primitive_root(N), (N - 1) // 2, []
            levels = [(0, order)]
        else:
            gen, order, const = 5, N // 4, sorted({N // 4, N // 2, 3 * N // 4} - {0})
            levels = [(v, (N >> v) // 4) for v in range(N.bit_length() - 1) if N >> v >= 8]
        pw = _powers(gen, order, N)
        log = np.zeros(N, dtype=np.int64)
        log[pw] = log[N - pw] = np.arange(order)
        self.const = (const, om[const])
        Ls = np.array([L for _, L in levels], dtype=np.int64)
        # N = 2 and 4 have no level: their T is the constant, and the
        # spectrum one zero bin
        self.L0 = L0 = int(Ls.max(initial=1))
        rs = L0 // Ls
        self.pos = -log[zs] % L0
        # gen^i mod M = N >> v, times 2^v, level after level
        self.nodes = np.concatenate([np.zeros(0, dtype=np.int64)]
                                    + [(pw[:L] % (N >> v)) << v for v, L in levels])
        self.mirror = N - self.nodes
        self.starts = np.cumsum(Ls) - Ls
        b = om[self.nodes]
        self.levels = [(lo, lo + L, r, r * np.conj(np.fft.rfft(b[lo:lo + L])))
                       for lo, L, r in zip(self.starts.tolist(), Ls.tolist(), rs.tolist())]
        # the weights of each level's |a|_2 and |a|_1 in the bound B
        b2 = np.sqrt(np.add.reduceat(b * b, self.starts))
        eta = _FFT_ETA * _U * np.log2(np.maximum(Ls, 2))
        self.w2 = (2.0 * eta + (len(Ls) + 3) * _U) * b2
        self.w1 = _FFT_ETA * _U * math.log2(max(L0, 2)) * np.sqrt(rs) * b2

    def screen(self, prod: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
        """Screened T of every unit, ascending, and a bound B on |T - D| for
        the exact D of each unit.

        scale = P W, the caller's, with P = sum_{n >= 1} |prod[n]| and
        W = max_{m != 0} |omega[m]|.  An FFT of length L is taken to be off
        by at most eta_L = _FFT_ETA u log2 L times its result in 2-norm.  The
        spectra of a level's a and b have 2-norms sqrt(L) |a|_2 and
        sqrt(L) |b|_2, so by Cauchy-Schwarz the error of each, the stored
        one of b included, moves the level's correlation by at most
        eta_L |a|_2 |b|_2 per entry.  The spectral product (3u), the
        levels - 1 additions into the shared bins, and the 1/L0 scaling of
        the inverse add at most (levels + 3) u |a|_2 |b|_2.  The inverse of
        length L0 is off by eta_L0 times the 2-norm of its result, the sum
        of the levels' extended correlations, each of 2-norm at most
        sqrt(r) |a|_1 |b|_2 by Young's inequality.  Folding rounds each a[i] by u |a[i]|, which
        moves D by at most u P W; the constant, at most 3 products, is off
        by 3u P W to first order, and adding it to the levels' sum, which is
        at most P W, by u P W.  B is the sum over levels of
        (2 eta_L + (levels + 3) u) |a|_2 |b|_2 + eta_L0 sqrt(r) |a|_1 |b|_2,
        plus 10 u P W, which covers the direct terms twice over and leaves
        room for the second-order terms.
        """
        a = prod[self.nodes] + prod[self.mirror]
        spec = np.zeros(self.L0 // 2 + 1, dtype=complex)
        for lo, hi, r, fb in self.levels:
            spec[::r] += np.fft.rfft(a[lo:hi]) * fb
        k, w = self.const
        T = np.fft.irfft(spec, n=self.L0)[self.pos]
        T += float(prod[k] @ w)
        # |a|_2 squares a: past 1e154 B is inf, which only keeps every unit
        with np.errstate(over="ignore"):
            err = (float(self.w2 @ np.sqrt(np.add.reduceat(a * a, self.starts)))
                   + float(self.w1 @ np.add.reduceat(np.abs(a), self.starts))
                   + 10.0 * _U * scale)
        return T, err
