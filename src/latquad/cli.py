"""Command-line front end.

Subcommands: cbc, points, wce, integrate, converge, bound.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 invalid input or
usage, 2 computation failure (a series truncation budget, or a float
overflow).
All reals are printed with 17 significant digits, so output is reproducible
bit for bit.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import re
import sys

import numpy as np

from .bench import TestFunction, converge_study, integrate, records_to_csv
from .cbc import cbc_construct
from .kernels import FAMILIES, SpaceSpec, TruncationBudgetError
# lattice_points is reached through node_set, and tent_transform is not
# called; the benchmark tracer wraps both as latquad.cli attributes.
from .points import (  # noqa: F401
    VARIANTS,
    LatticeRule,
    WeightedPointSet,
    _components,
    _dimension,
    lattice_points,
    node_set,
    read_vector_file,
    symmetrize,
    tent_transform,
    write_vector_file,
)
from .wce import (
    _check_double_sum_nodes,
    cbc_bound_constant,
    wce_cosine_sym,
    wce_cosine_tent,
    wce_double_sum,
    wce_korcos_sym,
    wce_korobov_lattice,
)

__all__ = ["main", "parse_gammas"]

# the --space routes that take a lattice rule; "double-sum" takes any node set
_RULE_ROUTES = {
    "korobov": wce_korobov_lattice,
    "cosine-tent": wce_cosine_tent,
    "korcos-sym": wce_korcos_sym,
    "cosine-sym": wce_cosine_sym,
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_gammas(text: str, s: int) -> tuple[float, ...]:
    """Weight grammar: a constant, 'c/j^p' for decaying weights, or a comma list."""
    s = _dimension(s)
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != s:
            raise ValueError(f"expected {s} comma-separated weights, got {len(parts)}")
        return tuple(float(p) for p in parts)
    m = re.fullmatch(r"([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)?\s*/\s*j\^([0-9]*\.?[0-9]+)", text)
    if m:
        c = float(m.group(1)) if m.group(1) else 1.0
        p = float(m.group(2))
        return tuple(c * float(j) ** (-p) for j in range(1, s + 1))
    return (float(text),) * s


def _rule_from_args(args) -> LatticeRule:
    if args.vector_file:
        # the file is the whole rule: --n or --g beside it would go unread
        flags = [flag for flag, value in (("--n", args.n), ("--g", args.g)) if value is not None]
        if flags:
            raise ValueError(f"--vector-file takes no --n or --g, got {' and '.join(flags)}")
        with open(args.vector_file, "r", encoding="ascii") as fh:
            return read_vector_file(fh)
    if args.n is not None and args.g:
        return LatticeRule(args.n, _components(args.g.split(",")))
    raise ValueError("a rule is required: --vector-file, or --n with --g")


def _read_points_file(path: str, s: int) -> WeightedPointSet:
    s = _dimension(s)
    with open(path, "r", encoding="ascii") as fh:
        # "\n", not splitlines, which also breaks at \v, \f and others:
        # the messages number the lines of the file
        rows = [line.split() for line in fh.read().split("\n")]
    # A lattice, tent or sym set draws every coordinate from about N + 1
    # values, so parse each distinct token once, as _write_points formats
    # each value once.
    flat = list(itertools.chain.from_iterable(rows))
    values, bad = {}, {}
    for tok in dict.fromkeys(flat):
        try:
            values[tok] = float(tok)
        except ValueError as exc:
            bad[tok] = exc
    widths = set(map(len, rows)) - {0}
    if bad or not widths <= {s, s + 1}:  # report the first bad line
        for ln, toks in enumerate(rows, start=1):
            if not bad.keys().isdisjoint(toks):
                raise ValueError(f"line {ln}: {bad[next(t for t in toks if t in bad)]}")
            if toks and len(toks) not in (s, s + 1):
                raise ValueError(f"line {ln}: expected {s} or {s + 1} columns, got {len(toks)}")
    if not widths:
        raise ValueError("points file is empty")
    if len(widths) != 1:
        raise ValueError("points file mixes weighted and unweighted lines")
    (width,) = widths
    arr = np.fromiter(map(values.__getitem__, flat), dtype=np.float64, count=len(flat))
    arr = arr.reshape(-1, width)
    if width == s + 1:
        return WeightedPointSet(arr[:, :s], arr[:, s])
    return WeightedPointSet(arr, np.full(len(arr), 1.0 / len(arr)))


def _write_points(ps: WeightedPointSet, dest, with_weights: bool) -> None:
    # A lattice, tent or sym set of an N-point rule draws every coordinate
    # from about N + 1 values, so format each distinct value once and gather
    # the text.  Keying on the bits keeps -0.0 and 0.0 apart; "%.17g" of a
    # Python float writes the bytes _fmt writes.
    rows = np.column_stack((ps.points, ps.weights)) if with_weights else ps.points
    keys, inv = np.unique(rows.view(np.uint64), return_inverse=True)
    text = np.array(["%.17g" % v for v in keys.view(np.float64).tolist()], dtype=object)
    tokens = text[inv.reshape(rows.shape)]
    dest.write("\n".join(map(" ".join, tokens.tolist())) + "\n")


@contextlib.contextmanager
def _output(path: str):
    """The text sink of --output: stdout for "-", else the file, closed on exit."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as fh:
            yield fh


def cmd_cbc(args) -> int:
    gammas = parse_gammas(args.gamma, args.s)
    res = cbc_construct(args.n, args.s, args.alpha, gammas)
    with _output(args.output) as out:
        write_vector_file(res.rule, out)
    if args.report:
        for d, (e2, ok) in enumerate(zip(res.per_dim_e2, res.bound_ok), start=1):
            print(f"dim {d}: e2={_fmt(e2)} bound_ok={ok}", file=sys.stderr)
    return 0


def cmd_points(args) -> int:
    if args.no_dedupe and args.variant != "sym":
        raise ValueError(f"--no-dedupe is for --variant sym, not --variant {args.variant}")
    rule = _rule_from_args(args)
    ps = symmetrize(rule, dedupe=False) if args.no_dedupe else node_set(rule, args.variant)
    with _output(args.output) as out:
        _write_points(ps, out, with_weights=args.variant == "sym")
    return 0


def cmd_wce(args) -> int:
    # a flag that the chosen inputs would leave unread is refused, naming it
    if args.space != "double-sum":
        for flag, value in (("--points-file", args.points_file), ("--family", args.family),
                            ("--variant", args.variant), ("--threads", args.threads)):
            if value is not None:
                raise ValueError(f"{flag} is for --space double-sum, not --space {args.space}")
    if args.points_file is not None:
        # the file is the whole node set
        rule_flags = [flag for flag, value in (("--vector-file", args.vector_file),
                                               ("--n", args.n), ("--g", args.g))
                      if value is not None]
        if rule_flags:
            raise ValueError(f"--points-file takes no rule, got {' and '.join(rule_flags)}")
        if args.variant is not None:
            raise ValueError(f"--points-file takes no --variant, got --variant {args.variant}")
    elif args.s is not None:
        raise ValueError("--s is for --points-file: a rule sets its own dimension")
    if args.space == "double-sum":
        if not args.family:
            raise ValueError("--family is required for --space double-sum")
        if args.points_file is not None:
            if args.s is None:
                raise ValueError("--s is required with --points-file")
            ps = _read_points_file(args.points_file, args.s)
        else:
            rule, variant = _rule_from_args(args), args.variant or "plain"
            # plain and tent sets hold N nodes: refuse before building them;
            # a deduplicated sym set can hold fewer, so it is checked built
            if variant != "sym":
                _check_double_sum_nodes(rule.N)
            ps = node_set(rule, variant)
        gammas = parse_gammas(args.gamma, ps.s)
        spec = SpaceSpec(args.family, args.alpha, gammas)
        # by default the cores this process may run on, not every CPU of the host
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count()) if args.threads is None else args.threads
        res = wce_double_sum(spec, ps, threads=threads)
    else:
        rule = _rule_from_args(args)
        gammas = parse_gammas(args.gamma, rule.s)
        res = _RULE_ROUTES[args.space](rule, args.alpha, gammas)
    print(f"e2={_fmt(res.e2)} tail={_fmt(res.tail_bound)} method={res.method.value}")
    return 0


def cmd_integrate(args) -> int:
    rule = _rule_from_args(args)
    f = TestFunction(args.family, rule.s, args.w)
    est = integrate(rule, args.variant, f)
    print(f"estimate={_fmt(est)} abs_error={_fmt(abs(est - f.exact_integral))}")
    return 0


def cmd_converge(args) -> int:
    f = TestFunction(args.family, args.s, args.w)
    if args.nmin < 1:
        raise ValueError(f"--nmin must be at least 1, got --nmin {args.nmin}")
    if args.nmin > args.nmax:
        raise ValueError(
            f"--nmin must not exceed --nmax, got --nmin {args.nmin} --nmax {args.nmax}")
    Ns = [2**m for m in range(args.nmin, args.nmax + 1)]
    gammas = parse_gammas(args.gamma, args.s) if args.gamma else None
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants or len(set(variants)) < len(variants):
        raise ValueError(f"--variants must name distinct variants, got {args.variants!r}")
    records = []
    for variant in variants:
        records.extend(converge_study(f, variant, Ns, cbc_alpha=args.alpha, cbc_gammas=gammas))
    with _output(args.output) as out:
        out.write(records_to_csv(records))
    return 0


def cmd_bound(args) -> int:
    gammas = parse_gammas(args.gamma, args.s)
    c = cbc_bound_constant(args.alpha, gammas, tau=args.tau)
    print(f"C={_fmt(c)}")
    return 0


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vector-file", help="two-line generating-vector file")
    p.add_argument("--n", type=int, help="modulus (alternative to --vector-file)")
    p.add_argument("--g", help="comma-separated generating vector components")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="latquad", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cbc", help="construct a generating vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", default="1")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--report", action="store_true", help="per-dimension e2 to stderr")
    p.set_defaults(func=cmd_cbc)

    p = sub.add_parser("points", help="emit node coordinates")
    _add_rule_flags(p)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--no-dedupe", action="store_true", help="keep duplicate symmetrized nodes")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("wce", help="squared worst-case error")
    _add_rule_flags(p)
    p.add_argument("--space", choices=(*_RULE_ROUTES, "double-sum"), required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", default="1")
    p.add_argument("--family", choices=FAMILIES, help="kernel for --space double-sum")
    p.add_argument("--points-file", help="explicit nodes for --space double-sum, in place of a rule")
    p.add_argument("--s", type=int, help="dimension of the points file")
    p.add_argument("--variant", choices=VARIANTS,
                   help="node variant when double-sum reads a rule (default plain)")
    p.add_argument("--threads", type=int,
                   help="double-sum worker threads, same result for any count (default: the CPU "
                        "affinity set); a set whose tables fit one row block runs on one")
    p.set_defaults(func=cmd_wce)

    p = sub.add_parser("integrate", help="quadrature estimate of a test integrand")
    _add_rule_flags(p)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--family", choices=("g", "h"), required=True)
    p.add_argument("--w", type=float, required=True)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("converge", help="convergence study CSV")
    p.add_argument("--family", choices=("g", "h"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--variants", default="plain,tent,sym")
    p.add_argument("--nmin", type=int, required=True, help="smallest exponent: N = 2^nmin")
    p.add_argument("--nmax", type=int, required=True, help="largest exponent: N = 2^nmax")
    p.add_argument("--alpha", type=float, default=1.0, help="CBC smoothness")
    p.add_argument("--gamma", help="CBC weights (default w^j)")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("bound", help="CBC error-bound constant")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", default="1")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.set_defaults(func=cmd_bound)

    return top


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  argparse exits with 2
    on a usage error and with 0 after --help; main maps them to 1 and 0."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (TruncationBudgetError, OverflowError) as exc:
        print(f"latquad: computation failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"latquad: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
