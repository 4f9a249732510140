"""Span tracer that wraps latquad's public functions from outside the package.

A traced pass replaces module attributes at the points where one layer calls
into another (for example ``latquad.wce.kernel_factor``, which is how the
double sum reaches the kernels layer) with thin wrappers that record a span:
name, layer, start, end, parent span, the op id of the workload op that
caused it, and a few counts read from the arguments and the result.  The
original attributes are put back when the pass ends.  Nothing under ``src/``
is modified.

Spans live in memory; ``layer_metrics`` folds one pass worth of spans into the
per-layer numbers, where a span's self time is its duration minus the part of
that interval covered by its child spans.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time

LAYERS = ("points", "kernels", "wce", "cbc", "bench", "cli")

# (module, attribute, layer).  Each entry is a place where a caller in another
# layer, or the benchmark itself, looks the function up at call time.
TARGETS = (
    # benchmark -> library
    ("latquad.cbc", "cbc_construct", "cbc"),
    ("latquad.points", "lattice_points", "points"),
    ("latquad.points", "tent_transform", "points"),
    ("latquad.points", "symmetrize", "points"),
    ("latquad.wce", "wce_double_sum", "wce"),
    ("latquad.wce", "wce_korobov_lattice", "wce"),
    ("latquad.wce", "wce_cosine_tent", "wce"),
    ("latquad.wce", "wce_korcos_sym", "wce"),
    ("latquad.wce", "wce_cosine_sym", "wce"),
    ("latquad.bench", "converge_study", "bench"),
    ("latquad.cli", "main", "cli"),
    # bench -> cbc, points; converge_study -> integrate
    ("latquad.bench", "cbc_construct", "cbc"),
    ("latquad.bench", "lattice_points", "points"),
    ("latquad.bench", "tent_transform", "points"),
    ("latquad.bench", "symmetrize", "points"),
    ("latquad.bench", "integrate", "bench"),
    # cbc -> kernels, wce
    ("latquad.cbc", "korobov_omega", "kernels"),
    ("latquad.cbc", "cbc_bound_constant", "wce"),
    # wce -> kernels, points
    ("latquad.wce", "kernel_factor", "kernels"),
    ("latquad.wce", "korobov_omega", "kernels"),
    ("latquad.wce", "dual_lattice", "points"),
    # cli -> every library layer
    ("latquad.cli", "cbc_construct", "cbc"),
    ("latquad.cli", "lattice_points", "points"),
    ("latquad.cli", "tent_transform", "points"),
    ("latquad.cli", "symmetrize", "points"),
    ("latquad.cli", "read_vector_file", "points"),
    ("latquad.cli", "write_vector_file", "points"),
    ("latquad.cli", "wce_double_sum", "wce"),
    ("latquad.cli", "wce_korobov_lattice", "wce"),
    ("latquad.cli", "wce_cosine_tent", "wce"),
    ("latquad.cli", "wce_korcos_sym", "wce"),
    ("latquad.cli", "wce_cosine_sym", "wce"),
    ("latquad.cli", "cbc_bound_constant", "wce"),
    ("latquad.cli", "integrate", "bench"),
    ("latquad.cli", "converge_study", "bench"),
)

PER_LAYER_UNITS = {
    "cbc.self_s": "s",
    "cbc.calls": "count",
    "cbc.candidates": "count",
    "cbc.ns_per_cand_node": "ns",
    "cbc.cache_hits": "count",
    "cbc.cache_misses": "count",
    "kernels.factor_s.sobolev": "s",
    "kernels.factor_s.korobov": "s",
    "kernels.factor_s.cosine": "s",
    "kernels.factor_s.korcos": "s",
    "kernels.factor_calls": "count",
    "kernels.factor_elems": "count",
    "kernels.series_terms": "count",
    "kernels.omega_s": "s",
    "wce.double_sum_self_s": "s",
    "wce.pairs": "count",
    "wce.ns_per_pair": "ns",
    "wce.closed_s": "s",
    "wce.dual_s": "s",
    "wce.dual_candidates": "count",
    "points.lattice_s": "s",
    "points.tent_s": "s",
    "points.symmetrize_s": "s",
    "points.sym_rows": "count",
    "points.sym_nodes": "count",
    "points.sym_keep_ratio": "1",
    "bench.integrate_self_s.plain": "s",
    "bench.integrate_self_s.tent": "s",
    "bench.integrate_self_s.sym": "s",
    "bench.eval_nodes": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.bytes_written": "B",
    "cli.bytes_read": "B",
    "proc.cpu_s": "s",
    "proc.cpu_util": "1",
    "trace.overhead_ratio": "1",
}


def totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


class Span:
    __slots__ = ("name", "layer", "t0", "t1", "parent", "op", "info")

    def __init__(self, name, layer, t0, parent, op):
        self.name = name
        self.layer = layer
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.op = op
        self.info = None


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # a pool thread (the double sum's row blocks): the enclosing
                # span is whatever the waiting main thread has open
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            span = Span(name, layer, 0.0, parent, tracer.op)
            with tracer._lock:  # pool threads append concurrently
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            before = annotate.before(args, kwargs) if annotate else None
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if annotate:
                span.info = annotate.after(args, kwargs, result, before)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped: dict[tuple[int, str], object] = {}
        for mod_name, attr, layer in TARGETS:
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            key = (id(fn), layer)
            if key not in wrapped:
                wrapped[key] = self._wrap(fn, attr, layer)
            setattr(mod, attr, wrapped[key])

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def installed_attributes():
    """Current (module, attribute) -> object map, to prove restore() is complete."""
    return {(m, a): getattr(sys.modules[m], a) for m, a, _ in TARGETS}


class _Annotate:
    def __init__(self, after, before=None):
        self.after = after
        self.before = before or (lambda args, kwargs: None)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _cbc_info(args, kwargs, result, _):
    N, s = int(_arg(args, kwargs, 0, "N")), int(_arg(args, kwargs, 1, "s"))
    cands = s * totient(N)
    return {"candidates": cands, "cand_nodes": cands * N}


def _factor_info(args, kwargs, result, _):
    import numpy as np
    from latquad import kernels

    family = _arg(args, kwargs, 0, "family")
    alpha = float(_arg(args, kwargs, 1, "alpha"))
    gamma = float(_arg(args, kwargs, 2, "gamma"))
    x, y = _arg(args, kwargs, 3, "x"), _arg(args, kwargs, 4, "y")
    policy = _arg(args, kwargs, 5, "policy", kernels.DEFAULT_POLICY)
    closed = alpha.is_integer() and int(alpha) in (1, 2, 3)
    series = family in ("cosine", "korcos") or (family == "korobov" and not closed)
    terms = kernels.series_kmax(alpha, gamma, policy) if series else 0
    return {"family": family, "elems": int(np.broadcast(x, y).size), "terms": terms}


def _double_sum_info(args, kwargs, result, _):
    M = len(_arg(args, kwargs, 1, "ps"))
    return {"pairs": M * M}


def _korobov_lattice_info(args, kwargs, result, _):
    return {"method": result.method.value}


def _dual_info(args, kwargs, result, _):
    rule, H = _arg(args, kwargs, 0, "rule"), int(_arg(args, kwargs, 1, "H"))
    return {"candidates": (2 * H + 1) ** rule.s}


def _sym_info(args, kwargs, result, _):
    rule = _arg(args, kwargs, 0, "rule")
    dedupe = _arg(args, kwargs, 1, "dedupe", True)
    rows = (rule.N // 2 + 1 if dedupe else rule.N) << rule.s
    return {"rows": rows, "nodes": len(result)}


def _integrate_info(args, kwargs, result, _):
    from latquad.points import symmetrized_node_count

    rule, variant = _arg(args, kwargs, 0, "rule"), _arg(args, kwargs, 1, "variant")
    nodes = symmetrized_node_count(rule.N, rule.s) if variant == "sym" else rule.N
    return {"variant": variant, "nodes": nodes}


def _argv_paths(argv, flags):
    argv = list(argv or ())
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in flags]


def _cli_before(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    paths = _argv_paths(argv, ("--vector-file", "--points-file"))
    read = sum(os.path.getsize(p) for p in paths if os.path.isfile(p))
    return read, sys.stdout.tell() if sys.stdout.seekable() else 0


def _cli_info(args, kwargs, result, before):
    argv = _arg(args, kwargs, 0, "argv")
    read, out0 = before
    paths = _argv_paths(argv, ("-o", "--output"))
    written = sum(os.path.getsize(p) for p in paths if os.path.isfile(p))
    if sys.stdout.seekable():
        written += sys.stdout.tell() - out0
    return {"read": read, "written": written}


_ANNOTATE = {
    "cbc_construct": _Annotate(_cbc_info),
    "kernel_factor": _Annotate(_factor_info),
    "wce_double_sum": _Annotate(_double_sum_info),
    "wce_korobov_lattice": _Annotate(_korobov_lattice_info),
    "dual_lattice": _Annotate(_dual_info),
    "symmetrize": _Annotate(_sym_info),
    "integrate": _Annotate(_integrate_info),
    "main": _Annotate(_cli_info, _cli_before),
}


def _self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the child intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.t0, sp.t1))
    out = []
    for i, sp in enumerate(spans):
        covered, end = 0.0, sp.t0
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, end), min(b, sp.t1)
            if b > a:
                covered += b - a
                end = b
        out.append((sp.t1 - sp.t0) - covered)
    return out


def layer_metrics(spans: list[Span], cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (the proc.* and trace.* keys excluded)."""
    m = {k: 0.0 for k in PER_LAYER_UNITS if not k.startswith(("proc.", "trace."))}
    selfs = _self_times(spans)
    cand_nodes = 0
    for sp, self_s in zip(spans, selfs):
        dur, info, name = sp.t1 - sp.t0, sp.info, sp.name
        if name == "cbc_construct":
            m["cbc.self_s"] += self_s
            m["cbc.calls"] += 1
            m["cbc.candidates"] += info["candidates"]
            cand_nodes += info["cand_nodes"]
        elif name == "kernel_factor":
            m[f"kernels.factor_s.{info['family']}"] += dur
            m["kernels.factor_calls"] += 1
            m["kernels.factor_elems"] += info["elems"]
            m["kernels.series_terms"] += info["terms"]
        elif name == "korobov_omega":
            m["kernels.omega_s"] += dur
        elif name == "wce_double_sum":
            m["wce.double_sum_self_s"] += self_s
            m["wce.pairs"] += info["pairs"]
        elif name == "wce_korobov_lattice":
            key = "wce.dual_s" if info["method"] == "dual-lattice-truncated" else "wce.closed_s"
            m[key] += dur
        elif name == "dual_lattice":
            m["wce.dual_candidates"] += info["candidates"]
        elif name == "lattice_points":
            m["points.lattice_s"] += dur
        elif name == "tent_transform":
            m["points.tent_s"] += dur
        elif name == "symmetrize":
            m["points.symmetrize_s"] += dur
            m["points.sym_rows"] += info["rows"]
            m["points.sym_nodes"] += info["nodes"]
        elif name == "integrate":
            m[f"bench.integrate_self_s.{info['variant']}"] += self_s
            m["bench.eval_nodes"] += info["nodes"]
        elif name == "main":
            m["cli.self_s"] += self_s
            m["cli.calls"] += 1
            m["cli.bytes_written"] += info["written"]
            m["cli.bytes_read"] += info["read"]
    if cand_nodes:
        m["cbc.ns_per_cand_node"] = m["cbc.self_s"] * 1e9 / cand_nodes
    if m["wce.pairs"]:
        m["wce.ns_per_pair"] = m["wce.double_sum_self_s"] * 1e9 / m["wce.pairs"]
    if m["points.sym_rows"]:
        m["points.sym_keep_ratio"] = m["points.sym_nodes"] / m["points.sym_rows"]
    m["cbc.cache_hits"] = float(cache_hits)
    m["cbc.cache_misses"] = float(cache_misses)
    return m


def spans_to_rows(spans: list[Span], pass_no: int) -> list[list]:
    """Compact rows for the span file: pass, op, name, layer, t0, t1, parent, info."""
    return [
        [pass_no, sp.op, sp.name, sp.layer, sp.t0, sp.t1, sp.parent, sp.info]
        for sp in spans
    ]

