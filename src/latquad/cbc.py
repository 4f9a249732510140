"""Component-by-component construction of generating vectors.

Greedy per-coordinate minimization of the Korobov-space squared worst-case
error.  The per-node products of already-fixed coordinates are kept and
updated incrementally, so one candidate z costs O(N) by the direct sum

    e2(z) = N^-1 sum_n prod[n] (1 + gamma omega(n z mod N / N)) - 1.

For prime N and N = 2^m the unit group is cyclic, or {+-5^a} on each 2-adic
level of n, so the errors of all candidates of one coordinate form one cyclic
correlation that an FFT evaluates in O(N log N) (Nuyens & Cools, Math. Comp.
75, 2006, for prime N; J. Complexity 22, 2006, for non-prime N).  That screen
only rules candidates out: the few whose screened error lies within the tie
window plus a stated rounding bound of the screened minimum are re-evaluated
by the direct sum, so the result equals the full direct scan bit for bit and
the search costs O(s N log N).  Every other modulus goes through the full
direct scan, O(s N phi(N)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _check_gammas, _require_closed_alpha, korobov_omega
from .points import LatticeRule
from .wce import cbc_bound_constant

__all__ = ["CbcResult", "candidate_set", "cbc_construct"]

# Candidates whose e2 lies within TIE_RTOL * (1 + |min|) of the minimum tie.
TIE_RTOL = 1e-12
_U = 0.5 * float(np.finfo(float).eps)
# Multiple of u log2(L) taken as the relative 2-norm error of one length-L FFT;
# Cooley-Tukey's is about 7 u log2(L), and the screen only needs a safe margin.
_FFT_ETA = 32.0


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


def cbc_construct(N: int, s: int, alpha: int, gammas) -> CbcResult:
    """Greedy generating vector for the Korobov space (alpha in 1..3).

    Tie rule: g_1 = 1, since every unit gives the same error in one
    dimension.  In each later coordinate the winner is the smallest unit z
    whose directly summed e2 lies within TIE_RTOL * (1 + |min|) of the
    minimum over all units, so rounding noise never picks the component and
    the result is deterministic.  Prime and power-of-two moduli are screened
    by FFT and return the same result as the full scan, bit for bit.
    """
    return _construct(N, s, alpha, gammas, fast=True)


def _reference_construct(N: int, s: int, alpha: int, gammas) -> CbcResult:
    """``cbc_construct`` by the full direct scan of every unit: the test oracle."""
    return _construct(N, s, alpha, gammas, fast=False)


def _construct(N: int, s: int, alpha: int, gammas, fast: bool) -> CbcResult:
    N = int(N)
    s = int(s)
    if s < 1:
        raise ValueError("dimension must be at least 1")
    alpha = _require_closed_alpha(alpha)
    gammas = _check_gammas(gammas, s)

    zs = np.array(candidate_set(N), dtype=np.int64)
    om = korobov_omega(alpha, np.arange(N) / N)
    n = np.arange(N, dtype=np.int64)
    screen = _UnitScreen(N, om, zs) if fast and s > 1 and _has_fft_screen(N) else None
    prod = np.ones(N)
    g: list[int] = []
    per_dim_e2: list[float] = []
    bound_ok: list[bool] = []
    for d in range(s):
        gamma = gammas[d]

        def e2_of(z: int) -> float:
            factor = 1.0 + gamma * om[(n * z) % N]
            return float(np.sum(prod * factor)) / N - 1.0

        if d == 0:
            cands = [1]
        elif screen is not None:
            cands = screen.candidates(prod, gamma).tolist()
        else:
            cands = zs.tolist()
        best_z, best_e2 = _pick(cands, [e2_of(z) for z in cands])
        g.append(best_z)
        per_dim_e2.append(best_e2)
        prod *= 1.0 + gamma * om[(n * best_z) % N]
        c = cbc_bound_constant(alpha, gammas[: d + 1], tau=1.0)
        bound_ok.append(best_e2 <= c * c / (N - 1))
    return CbcResult(LatticeRule(N, tuple(g)), tuple(per_dim_e2), tuple(bound_ok))


def _pick(zs: list[int], e2s: list[float]) -> tuple[int, float]:
    """The smallest z whose e2 lies within the tie window of the minimum."""
    lo = min(e2s)
    top = lo + TIE_RTOL * (1.0 + abs(lo))
    return next((z, e) for z, e in zip(zs, e2s) if e <= top)


def _has_fft_screen(N: int) -> bool:
    """True for prime N and for N = 2^m."""
    return N & (N - 1) == 0 or all(N % q for q in range(2, math.isqrt(N) + 1))


def _powers(base: int, count: int, N: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    x = 1
    for k in range(count):
        out[k] = x
        x = x * base % N
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
    """Screened e2 of every unit z for one coordinate, by FFT correlation.

    T(z) = sum_n prod[n] omega[n z mod N] splits over the nodes n.  Nodes with
    a few fixed residues n z mod N for all units (n = 0, and the 2-adic levels
    of modulus below 8) are summed directly.  Every other node set is an orbit
    of the unit group acting by multiplication, indexed by cyclic groups: the
    powers r^j of a primitive root r for odd prime N (shape 1 x (N - 1)), and
    2^v (-1)^b 5^a mod N on the level of nodes with 2-adic valuation v for
    N = 2^m (shape 2 x 2^(m-v-2)).  There T is the cyclic correlation of prod
    with omega over that group, one rfft2 and one irfft2 per level.
    """

    def __init__(self, N: int, om: np.ndarray, zs: np.ndarray):
        self.N, self.zs = N, zs
        self.om_max = float(np.abs(om).max())
        fixed = [0]
        groups = []  # (node grid, flat correlation index of each unit)
        if N & (N - 1):
            root = _powers(_primitive_root(N), N - 1, N)
            log = np.empty(N, dtype=np.int64)
            log[root] = np.arange(N - 1)
            groups.append((root[None, :], log[zs]))
        else:
            m = N.bit_length() - 1
            if m >= 3:
                pw = _powers(5, N // 4, N)
                sign, log = np.empty(N, dtype=np.int64), np.empty(N, dtype=np.int64)
                sign[pw], sign[N - pw] = 0, 1
                log[pw] = log[N - pw] = np.arange(N // 4)
            for v in range(m):
                M = N >> v
                if M < 8:
                    fixed.extend(u << v for u in range(1, M, 2))
                    continue
                pw = _powers(5, M // 4, M)
                grid = np.stack([pw, M - pw]) << v
                groups.append((grid, sign[zs] * (M // 4) + log[zs] % (M // 4)))
        self.fixed = [(k, om[(k * zs) % N]) for k in fixed]
        self.levels = []
        for grid, pos in groups:
            b = om[grid]
            eta = _FFT_ETA * _U * math.log2(max(grid.size, 2))
            self.levels.append((grid, pos, np.fft.rfft2(b), float(np.abs(b).sum()),
                                float(np.sqrt((b * b).sum())), 2.0 * eta + 3.0 * _U))

    def screen(self, prod: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
        """Screened e2 of every unit, ascending, and a bound B on its distance
        to the direct sum of each unit.

        Each level's FFT correlation c of a = prod and b = omega on its node
        grid of size L is taken to satisfy |c - exact| <= (2 eta + 3u)
        (|a|_1 |b|_2 + |a|_2 |b|_1) with eta = _FFT_ETA u log2 L.  The directly
        summed terms and the additions across levels add 2u |prod|_1
        |omega|_max each.  B is gamma/N times the sum of these, plus the
        recursive summation bounds (N + 4) u |prod|_1 (1 + gamma |omega|_max)
        / N of sum(prod) and of the direct sum, plus 3u for the final
        division and subtraction.
        """
        N = self.N
        p1 = float(np.abs(prod).sum())
        T = np.zeros(len(self.zs))
        for k, w in self.fixed:
            T += prod[k] * w
        err = 2.0 * (len(self.fixed) + len(self.levels)) * _U * p1 * self.om_max
        for grid, pos, fb, b1, b2, scale in self.levels:
            a = prod[grid]
            c = np.fft.irfft2(np.conj(np.fft.rfft2(a)) * fb, s=a.shape)
            T += c.ravel()[pos]
            err += scale * (float(np.abs(a).sum()) * b2 + float(np.sqrt((a * a).sum())) * b1)
        e2 = (float(np.sum(prod)) + gamma * T) / N - 1.0
        mag = p1 * (1.0 + gamma * self.om_max)
        return e2, (gamma * err + 2.0 * (N + 4) * _U * mag) / N + 3.0 * _U

    def candidates(self, prod: np.ndarray, gamma: float) -> np.ndarray:
        """Units, ascending, that may win by the tie rule; all others cannot.

        With |screened - direct| <= B for every unit, the direct minimum lies
        within B of the screened minimum lo, so every unit whose direct e2 is
        within the tie window of the direct minimum has a screened value at
        most lo + 2B + TIE_RTOL (1 + |lo| + B).
        """
        e2, B = self.screen(prod, gamma)
        lo = float(e2.min())
        return self.zs[e2 <= lo + 2.0 * B + TIE_RTOL * (1.0 + abs(lo) + B)]
