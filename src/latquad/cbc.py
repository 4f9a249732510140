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
N).  The levels' spectra are summed into one, so each coordinate takes one
inverse transform; the levels of at most _TILE classes are tiled to one
length and share one forward transform, and a prime length with a large
prime factor is zero-padded to a power of two instead of going to
Bluestein's algorithm.  That screen only rules units out: the few it cannot
are summed directly, so the result equals the full direct scan bit for bit
and the search costs O(s N log N).
Other moduli take the scan of the units <= N/2, O(s N phi(N) / 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _FFT_ETA, _U, _check_alpha, _check_gammas, _omega_table, _refuse_overflow
# Not called here: the benchmark tracer wraps latquad.cbc.korobov_omega and
# latquad.cbc.cbc_bound_constant.
from .kernels import korobov_omega  # noqa: F401
from .points import LatticeRule, _integer, _modulus
from .wce import _bound_constants, _factor_row, _single_sum_e2
from .wce import cbc_bound_constant  # noqa: F401

__all__ = ["CbcResult", "candidate_set", "cbc_construct"]

# Levels of a 2^m modulus at most this long are tiled to one length and share
# one 2-D rfft: a short transform costs numpy's per-call overhead (about 5 us)
# more than its work, while tiling adds work that grows with the tile length.
# Of 64, 128, ..., 2048, 256 gave the fastest screen at N = 2^8 ... 2^18.
_TILE = 256
# The prime screen's length L is zero-padded to the power of two Q >= 2L when
# L p > _PAD_COST Q log2 Q for L's largest prime factor p: pocketfft takes a
# large prime factor by a generic O(L p) pass or by Bluestein, a padded
# transform costs O(Q log Q).  In rfft + irfft timings over about 490 primes
# up to 2^18, the padded pair was faster wherever 6 picks it, and within 5 %
# of the best choice elsewhere; L = 2046 = 2 3 11 31 (N = 4093) keeps its
# length.
_PAD_COST = 6.0

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
    cs = _bound_constants(alpha, gammas, tau=1.0)
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
        bound_ok.append(per_dim_e2[-1] <= cs[d] * cs[d] / (N - 1))
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


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    qs, q = [], 2
    while q * q <= n:
        if n % q == 0:
            qs.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        qs.append(n)
    return qs


def _primitive_root(p: int, qs: list[int]) -> int:
    """Smallest primitive root of the odd prime p; qs are the prime factors of p - 1."""
    return next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


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

    For N = 2^m every L divides the longest level's L0 by a power of two
    r = L0 / L.  A level's correlation has period L, so its extension to
    length L0 has a spectrum on the bins r j only, where it is r times the
    level's own; the levels' spectra are summed into one length-L0
    half-spectrum, and one irfft of length L0 sums all levels.  A level
    longer than G = min(L0, _TILE) takes one rfft of length L.  The shorter
    ones are tiled t = G / L times to length G and take one 2-D rfft
    together: a tile's spectrum is t times the level's on every t-th bin
    and zero elsewhere, so the rows' products with the tiled b's spectra,
    scaled by r / t^2, are summed and added into every (L0 / G)-th bin.
    At N = 2048 a coordinate takes 2 forward transforms instead of 9.

    Prime N is one level, r = 1.  When its length L has a large prime
    factor (see _PAD_COST), a is zero-padded to the power of two Q >= 2L and
    correlated with b_ext = [b, b]: for 0 <= k < L the length-Q circular
    correlation at -k mod Q is sum_i a[i] b_ext[i + k], the cyclic one at
    -k mod L, since no term wraps.  The stored spectra are conj(B), that of
    b reversed, so the irfft gives the correlation at -log z.
    """

    def __init__(self, N: int, om: np.ndarray, zs: np.ndarray):
        pad = False
        if N & (N - 1):  # odd prime: one level, every nonzero node
            qs = _prime_factors(N - 1)
            gen, order, const = _primitive_root(N, qs), (N - 1) // 2, []
            levels = [(0, order)]
            Q = 1 << (2 * order - 1).bit_length()
            # the largest prime factor of N - 1 is that of L = order, for L > 1
            pad = order * qs[-1] > _PAD_COST * Q * math.log2(Q)
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
        L0 = int(Ls.max(initial=1))
        # gen^i mod M = N >> v, times 2^v, level after level
        self.nodes = np.concatenate([np.zeros(0, dtype=np.int64)]
                                    + [(pw[:L] % (N >> v)) << v for v, L in levels])
        self.mirror = N - self.nodes
        self.starts = np.cumsum(Ls) - Ls
        b = om[self.nodes]
        b2 = np.sqrt(np.add.reduceat(b * b, self.starts))
        if pad:
            # one row of length Q: b_ext = [b, b] has 2-norm sqrt(2) |b|_2
            self.n = Q
            self.groups = [(slice(0, order), Q, 1, np.conj(np.fft.rfft(np.tile(b, 2), n=Q)))]
            ns, rs, b2 = np.array([Q]), np.ones(1), math.sqrt(2.0) * b2
        else:
            self.n = L0
            G = min(L0, _TILE)
            tiled = Ls <= G
            tiled &= tiled.sum() > 1  # a lone short level is its own row
            self.groups = [
                (slice(lo, lo + L), L, L0 // L, L0 // L * np.conj(np.fft.rfft(b[lo:lo + L])))
                for lo, L, t in zip(self.starts.tolist(), Ls.tolist(), tiled) if not t]
            if tiled.any():
                # row l holds level l's entries lo + (i mod L) for i < G
                short = Ls[tiled][:, None]
                tiles = self.starts[tiled][:, None] + (np.arange(G) & (short - 1))
                fb = np.conj(np.fft.rfft(b[tiles])) * (L0 * short / (G * G))
                self.groups.append((tiles, G, L0 // G, fb))
            ns, rs = np.where(tiled, G, Ls), L0 // Ls
        self.pos = -log[zs] % self.n
        # the weights of each level's |a|_2 and |a|_1 in the bound B
        eta = _FFT_ETA * _U * np.log2(np.maximum(ns, 2))
        self.w2 = (2.0 * eta + (len(Ls) + 3) * _U) * b2
        self.w1 = _FFT_ETA * _U * math.log2(max(self.n, 2)) * np.sqrt(rs) * b2

    def screen(self, prod: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
        """Screened T of every unit, ascending, and a bound B on |T - D| for
        the exact D of each unit.

        scale = P W, the caller's, with P = sum_{n >= 1} |prod[n]| and
        W = max_{m != 0} |omega[m]|.  An FFT of length n is taken to be off
        by at most eta_n = _FFT_ETA u log2 n times its result in 2-norm.
        Each level is one row x of a and y of b, transformed at length n:
        the level itself (n = L, x = a, y = b); tiled t = G / L times
        (n = G, |x|_2 = sqrt(t) |a|_2, |y|_2 = sqrt(t) |b|_2, and the
        row's correlation, t times the level's, is scaled by 1/t); or a
        zero-padded against b_ext (n = Q, x = a, |y|_2 = sqrt(2) |b|_2).
        Write beta = |y|_2 / sqrt(t), that is |b|_2, or sqrt(2) |b|_2 when
        padded.  The spectra of x and y have 2-norms sqrt(n) |x|_2 and
        sqrt(n) |y|_2, so by Cauchy-Schwarz the error of each, the stored
        one of y included, moves the level's correlation by at most
        eta_n |x|_2 |y|_2 / t = eta_n |a|_2 beta per entry.  The spectral
        product (3u), the levels - 1 additions into the shared bins, and
        the 1/n0 scaling of the inverse add at most (levels + 3) u |a|_2
        beta.  The inverse, of length n0 = L0 or Q, is off by eta_n0 times
        the 2-norm of its result, the sum of the levels' extended
        correlations, each of 2-norm at most sqrt(r) |a|_1 beta by Young's
        inequality (r = L0 / L; r = 1 when padded, where the result is the
        length-Q correlation of a with b_ext).  Folding rounds each a[i]
        by u |a[i]|, which moves D by at most u P W; the constant, at most
        3 products, is off by 3u P W to first order, and adding it to the
        levels' sum, which is at most P W, by u P W.  B is the sum over
        levels of (2 eta_n + (levels + 3) u) |a|_2 beta
        + eta_n0 sqrt(r) |a|_1 beta, plus 10 u P W, which covers the direct
        terms twice over and leaves room for the second-order terms.
        """
        a = prod[self.nodes] + prod[self.mirror]
        spec = np.zeros(self.n // 2 + 1, dtype=complex)
        for rows, n, stride, fb in self.groups:
            x = np.fft.rfft(a[rows], n=n) * fb
            spec[::stride] += x.sum(axis=0) if x.ndim == 2 else x
        k, w = self.const
        T = np.fft.irfft(spec, n=self.n)[self.pos]
        T += float(prod[k] @ w)
        # |a|_2 squares a: past 1e154 B is inf, which only keeps every unit
        with np.errstate(over="ignore"):
            err = (float(self.w2 @ np.sqrt(np.add.reduceat(a * a, self.starts)))
                   + float(self.w1 @ np.add.reduceat(np.abs(a), self.starts))
                   + 10.0 * _U * scale)
        return T, err
