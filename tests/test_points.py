"""Node-set layer: lattice generation, tent folding, symmetrization, duals."""
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from latquad import points
from latquad.points import (
    LatticeRule,
    WeightedPointSet,
    dual_lattice,
    lattice_points,
    read_vector_file,
    symmetrize,
    symmetrized_node_count,
    tent,
    tent_transform,
    write_vector_file,
)

from oracles import coordinate_denominator


def test_lattice_nodes_small():
    ps = lattice_points(LatticeRule(4, (1, 3)))
    assert np.array_equal(ps.points, [[0, 0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25]])
    assert np.allclose(ps.weights, 0.25)
    assert ps.s == 2 and len(ps) == 4


def test_rule_validation():
    with pytest.raises(ValueError):
        LatticeRule(1, (1,))
    with pytest.raises(ValueError):
        LatticeRule(4, ())
    with pytest.raises(ValueError):
        LatticeRule(4, (0,))
    with pytest.raises(ValueError):
        LatticeRule(4, (1, 4))


@pytest.mark.parametrize("N,g,bad", [(5.7, (1, 2), "5.7"), (5, (1.2, 2.9), "1.2"),
                                      (5, (1, 2.0), "2.0"), ("5", (1,), "'5'")])
def test_rule_refuses_non_integers_instead_of_truncating(N, g, bad):
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}"):
        LatticeRule(N, g)


def test_rule_accepts_numpy_integers():
    rule = LatticeRule(np.int64(7), (np.int64(2), np.int32(3)))
    assert rule == LatticeRule(7, (2, 3))
    assert type(rule.N) is int and all(type(v) is int for v in rule.g)


def test_point_set_validation():
    with pytest.raises(ValueError):
        WeightedPointSet(np.array([[0.5], [1.5]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        WeightedPointSet(np.array([[0.5]]), np.array([0.5]))
    with pytest.raises(ValueError):
        WeightedPointSet(np.array([[0.5], [0.25]]), np.array([1.5, -0.5]))
    ps = lattice_points(LatticeRule(3, (1,)))
    with pytest.raises(ValueError):
        ps.points[0, 0] = 0.9


def test_tent_folds_the_unit_interval():
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(tent(x), [0.0, 0.5, 1.0, 0.5, 0.0])
    assert tent(0.125) == 0.25


def test_tent_matches_even_cosines():
    # cos(pi k tent(x)) == cos(2 pi k x) on both halves of the fold
    x = np.linspace(0.0, 1.0, 1001)
    for k in range(21):
        gap = np.abs(np.cos(np.pi * k * tent(x)) - np.cos(2 * np.pi * k * x))
        assert float(gap.max()) <= 1e-12


def test_tent_transform_keeps_weights():
    # a rule's set folds its numerators: 2 min(p, N - p) / N, correctly
    # rounded, so nodes n and N - n coincide; the float map 1 - |2x - 1| is
    # within _TENT_GAP of it
    ps = lattice_points(LatticeRule(5, (1, 2)))
    t = tent_transform(ps)
    assert np.array_equal(t.weights, ps.weights)
    p = np.rint(ps.points * 5).astype(int)
    assert np.array_equal(t.points, 2 * np.minimum(p, 5 - p) / 5.0)
    assert np.array_equal(t.points[1:], t.points[:0:-1])
    assert float(np.abs(t.points - tent(ps.points)).max()) <= _TENT_GAP
    # a set whose coordinates give no denominator takes the tent map of its
    # floats, bit for bit
    x = np.random.default_rng(9).random((5, 2))
    assert points._denominator(x) is None
    f = tent_transform(WeightedPointSet(x, ps.weights))
    assert np.array_equal(f.weights, ps.weights)
    assert np.array_equal(f.points, tent(x))


# The float tent map against the exact fold 2 min(p, N - p) / N of x =
# fl(p / N) < 1: x is off by at most 2^-54, so 2x by 2^-53; 2x - 1 and
# 1 - |2x - 1| lie in [0, 1] and round by at most 2^-54 each, so the map is
# within 2^-52 of the exact fold, and the correctly rounded fold within 2^-54.
_TENT_GAP = 2.0**-52 + 2.0**-54


@pytest.mark.parametrize("N", [1021, 4093, 4096])
def test_tent_nodes_are_the_correctly_rounded_folds(N):
    # the float map is off in the last bits for about half the nodes at odd
    # N; the numerator fold is the correctly rounded value
    t = tent_transform(lattice_points(LatticeRule(N, (1,)))).points[:, 0]
    assert t.tolist() == [float(Fraction(2 * min(m, N - m), N)) for m in range(N)]
    assert np.array_equal(t[1:], t[:0:-1])
    assert float(np.abs(t - tent(np.arange(N) / N)).max()) <= _TENT_GAP


@pytest.mark.parametrize("N", [(1 << 21) + 17, (1 << 22) + 15, (1 << 40) + 15, (1 << 51) - 1])
def test_tent_folds_numerators_past_the_omega_tables_cap(N):
    # nodes p / N past the double sum's table cap, 2 N > _TABLE_CAP, still
    # give N and fold to the correctly rounded 2 min(p, N - p) / N, which
    # the float map misses near 0.  No p is near N: 1 - fl(p / N) there is
    # off by up to 2^-54, too far from (N - p) / N to read an N past 2^26
    p = np.array([0, 1, 2, 3, N // 3, N // 2, N // 2 + 1, 2 * N // 3])
    rows = np.stack([p, p[::-1]], axis=1)
    ps = WeightedPointSet(rows / float(N), np.full(len(p), 1.0 / len(p)))
    assert points._denominator(ps.points) == N
    t = tent_transform(ps).points
    assert np.array_equal(t, points._tent_nodes(rows, N))
    assert t[:, 0].tolist() == [float(Fraction(2 * min(m, N - m), N)) for m in p.tolist()]
    assert not np.array_equal(t, tent(ps.points))
    if N < 1 << 22:
        # a whole rule's tent set, as ``latquad points --variant tent`` writes it
        rule = LatticeRule(N, (1,))
        full = tent_transform(lattice_points(rule)).points
        assert np.array_equal(full, points._tent_nodes(points._numerators(rule, N), N))


@pytest.mark.parametrize("N,g", [(6, (1, 5)), (30, (6, 10, 15)), (12, (2, 3)),
                                 (64, (1, 27, 15)), (61, (1, 17, 23))])
def test_rule_sets_infer_a_true_denominator(N, g):
    # every set of a rule, a tent of a tent set too, gives a denominator D
    # from its floats alone, and every coordinate is fl(p / D): N itself
    # where each g_j is a unit, except a tent set at even N, whose
    # numerators are all even
    rule = LatticeRule(N, g)
    units = all(math.gcd(v, N) == 1 for v in g)
    for variant, ps in (("plain", lattice_points(rule)),
                        ("tent", tent_transform(lattice_points(rule))),
                        ("sym", symmetrize(rule)), ("sym", symmetrize(rule, dedupe=False)),
                        ("twice", tent_transform(tent_transform(lattice_points(rule))))):
        D = points._denominator(ps.points)
        p = np.rint(ps.points * D)
        assert np.array_equal(p / D, ps.points) and p.min() >= 0 and p.max() <= D
        if units and variant != "twice":
            assert D == (N // 2 if variant == "tent" and N % 2 == 0 else N), variant
        # the same floats in any row order give the same D
        perm = np.random.default_rng(N).permutation(len(ps))
        assert points._denominator(ps.points[perm]) == D


def test_denominator_agrees_with_the_per_coordinate_rule():
    # the first try, one d for the whole set, gives the per-coordinate
    # rule's N wherever that rule finds one: on the plain, tent and sym
    # sets of random rules, half of them with components that are not units
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(60):
        N = int(rng.integers(2, 200))
        g = tuple(int(v) for v in rng.integers(1, N, size=int(rng.integers(1, 5))))
        rule = LatticeRule(N, g)
        for ps in (lattice_points(rule), tent_transform(lattice_points(rule)), symmetrize(rule)):
            want = coordinate_denominator(ps.points)
            D = points._denominator(ps.points)
            assert D == want or want is None, (N, g)
            found += D is not None
            if D is not None:
                assert np.array_equal(np.rint(ps.points * D) / D, ps.points)
    assert found == 180


def test_denominator_inference_finds_none_it_cannot_verify():
    def inf(*columns):
        return points._denominator(np.stack(columns, axis=1))

    # one coordinate: d = 2/5 takes rint(2 / d); 1/3 rounded to four digits
    # verifies neither rint(1 / d) nor rint(2 / d); all zeros give 1
    assert inf(np.array([0.4])) == 5
    assert inf(np.array([0.0, 0.3333])) is None
    assert inf(np.zeros(3)) == 1
    # coordinates give their own N_j, and the set their lcm; zeros padding
    # a coordinate change nothing
    assert inf(np.arange(4) / 4, np.arange(4) / 6) == 12
    assert inf(np.array([0.0, 0.25, 0.5]), np.array([0.0, 0.0, 0.0])) == 4
    # the least d of all, 1/10, is tried first: it verifies 0.3 and 0.5,
    # whose own d, 0.3, would give neither rint(1 / d) nor rint(2 / d)
    assert inf(np.array([0.3, 0.5])) is None
    assert inf(np.array([0.1, 0.1]), np.array([0.3, 0.5])) == 10
    # up to N = 2^51, where rint(x N) still recovers every p; the omega
    # table's cap is the double sum's, not the inference's
    assert inf(np.array([2.0**-51])) == 1 << 51
    assert inf(np.array([2.0**-52])) is None
    assert inf(np.arange(5) / 2039, np.arange(5) / 2053) == 2039 * 2053
    assert inf(np.array([1.0 / 3]), np.array([2.0**-49])) == 3 << 49
    assert inf(np.array([1.0 / 3]), np.array([2.0**-50])) is None  # lcm 3 * 2^50
    # a random coordinate, alone or beside one that verifies, and one so
    # close to 0 that 1 / d overflows
    rand = np.random.default_rng(4).random(50)
    assert inf(rand) is None
    assert inf(rand, np.arange(50) / 7) is None
    assert inf(np.array([0.0, 5e-324])) is None


@pytest.mark.parametrize("N,g,count", [(3, (1, 2), 8), (4, (1, 3), 9), (5, (1,), 6)])
def test_symmetrized_counts(N, g, count):
    assert len(symmetrize(LatticeRule(N, g))) == count
    assert symmetrized_node_count(N, len(g)) == count


def test_symmetrized_line_rule_nodes():
    ps = symmetrize(LatticeRule(5, (1,)))
    assert np.allclose(ps.points.ravel(), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)
    assert np.allclose(ps.weights, [0.1, 0.2, 0.2, 0.2, 0.2, 0.1], atol=1e-15)


def _reflection_multiset(rule):
    """Counter of reflected numerator tuples; each carries mass 1/(2^s N)."""
    acc = Counter()
    for n in range(rule.N):
        base = [(n * gj) % rule.N for gj in rule.g]
        for mask in range(1 << rule.s):
            acc[tuple(rule.N - v if mask >> j & 1 else v for j, v in enumerate(base))] += 1
    return acc


@pytest.mark.parametrize(
    "N,g", [(2, (1,)), (5, (1, 2)), (6, (1, 5)), (7, (2, 3, 6)), (8, (1, 3, 5)), (4, (1, 2)),
            (10, (5, 4)), (12, (2, 3, 8)), (9, (3, 6, 1)), (16, (4, 8, 12, 1))]
)
def test_symmetrize_matches_reflection_multiset(N, g):
    rule = LatticeRule(N, g)
    acc = _reflection_multiset(rule)
    ps = symmetrize(rule)
    nums = np.rint(ps.points * N).astype(int)
    assert float(np.abs(ps.points * N - nums).max()) <= 1e-9
    assert len(ps) == len(acc)
    total = N << rule.s
    for row, w in zip(nums, ps.weights):
        assert acc[tuple(row)] / total == pytest.approx(w, abs=1e-15)
    # the deduped set is the full multiset's distinct rows, sorted, to the bit
    rows, counts = np.unique(symmetrize(rule, dedupe=False).points, axis=0, return_counts=True)
    assert ps.points.tobytes() == rows.tobytes()
    assert ps.weights.tobytes() == (counts / float(total)).tobytes()


def _gray_walk(rule):
    """Numerator rows node by node, each node's reflections visited by a Gray
    walk that flips one coordinate per step, starting from the node itself."""
    out = []
    for n in range(rule.N):
        cur = [(n * gj) % rule.N for gj in rule.g]
        out.append(list(cur))
        for m in range(1, 1 << rule.s):
            j = (m & -m).bit_length() - 1
            cur[j] = rule.N - cur[j]
            out.append(list(cur))
    return out


def test_symmetrize_no_dedupe_is_the_full_multiset():
    for rule in (LatticeRule(5, (1, 2)), LatticeRule(6, (2, 3, 4)),
                 LatticeRule(7, (1, 3, 2, 6)), LatticeRule(2, (1,))):
        N = rule.N
        ps = symmetrize(rule, dedupe=False)
        assert len(ps) == N << rule.s
        assert np.all(ps.weights == 1 / (N << rule.s))
        nums = np.rint(ps.points * N).astype(int)
        assert np.array_equal(ps.points, nums / float(N))
        assert Counter(map(tuple, nums.tolist())) == _reflection_multiset(rule)
        # node-major, reflections in Gray-code order
        assert nums.tolist() == _gray_walk(rule), N


@pytest.mark.parametrize("N,dedupe", [(2**21, True), (2**20 + 1, False)])
def test_symmetrize_refuses_the_first_size_above_the_row_cap(monkeypatch, N, dedupe):
    def no_work(*args):
        raise AssertionError("numerators built before the cap check")

    monkeypatch.setattr(points, "_numerators", no_work)
    with pytest.raises(ValueError, match=r"materialize 33554464 rows \(cap 33554432\)"):
        symmetrize(LatticeRule(N, (1,) * 5), dedupe=dedupe)


def _coprime_vector(N, s):
    units = [z for z in range(1, N) if math.gcd(z, N) == 1]
    return tuple(units[i % len(units)] for i in range(s))


def test_node_count_formula_with_coprime_vectors():
    for N in range(2, 33):
        for s in range(1, 5):
            want = symmetrized_node_count(N, s)
            for g in {(1,) * s, _coprime_vector(N, s)}:
                assert len(symmetrize(LatticeRule(N, g))) == want, (N, s, g)


@pytest.mark.parametrize(
    "N,s,msg",
    [
        (4.5, 2, "modulus must be an integer, got 4.5"),
        (5, 2.0, "dimension must be an integer, got 2.0"),
        (1, 2, "modulus must be >= 2, got 1"),
        (5, 0, "dimension must be at least 1"),
    ],
)
def test_node_count_formula_refuses_bad_arguments(N, s, msg):
    # (4.5, 2) returned 11.0; (5, 0) failed with a bare "negative shift count"
    with pytest.raises(ValueError, match=msg):
        symmetrized_node_count(N, s)


def test_node_count_formula_needs_coprime_components():
    # component 2 shares a factor with N=4: two orbits collide, 8 nodes not 9
    assert len(symmetrize(LatticeRule(4, (1, 2)))) == 8
    assert symmetrized_node_count(4, 2) == 9


def test_dedupe_preserves_the_quadrature_functional():
    rule = LatticeRule(4, (1, 2))  # duplicate nodes on purpose
    full = symmetrize(rule, dedupe=False)
    dedup = symmetrize(rule, dedupe=True)
    assert abs(float(np.sum(dedup.weights)) - 1.0) <= 1e-14

    def f(p):
        return np.cos(p @ np.array([1.0, 2.0]))

    a = float(f(full.points) @ full.weights)
    b = float(f(dedup.points) @ dedup.weights)
    assert abs(a - b) <= 1e-13


@pytest.mark.parametrize(
    "N,g", [(2, (1,)), (5, (1, 2)), (4, (1, 2)), (8, (3, 5, 7)), (7, (1, 2, 3))]
)
def test_dual_lattice_bruteforce(N, g):
    H = 3
    got = {tuple(r) for r in dual_lattice(LatticeRule(N, g), H)}
    want = {
        h
        for h in itertools.product(range(-H, H + 1), repeat=len(g))
        if any(h) and sum(hj * gj for hj, gj in zip(h, g)) % N == 0
    }
    assert got == want


def test_dual_lattice_empty_box_and_cap():
    assert dual_lattice(LatticeRule(4, (1,)), 0).size == 0
    with pytest.raises(ValueError):
        dual_lattice(LatticeRule(4, (1, 2, 3)), 200)
    with pytest.raises(ValueError):
        dual_lattice(LatticeRule(4, (1,)), -1)


def test_vector_file_roundtrip(tmp_path):
    rule = LatticeRule(97, (1, 33, 71))
    path = tmp_path / "g.txt"
    with open(path, "w", encoding="ascii") as fh:
        write_vector_file(rule, fh)
    with open(path, "r", encoding="ascii") as fh:
        assert read_vector_file(fh) == rule
    buf = io.StringIO()
    write_vector_file(rule, buf)
    assert read_vector_file(io.StringIO(buf.getvalue())) == rule


@pytest.mark.parametrize(
    "text",
    ["", "4 2\n", "4\n1 3\n", "4 2\n1\n", "4 2\na b\n", "x y\n1 2\n", "4 2\n1 3\n7\n"],
)
def test_vector_file_rejects_malformed(text):
    with pytest.raises(ValueError):
        read_vector_file(io.StringIO(text))
