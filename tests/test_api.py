"""The package namespace is exactly the union of its modules' public names,
and the benchmark's calls into the package still work."""
import ast
import importlib.util
import sys
from pathlib import Path

import latquad
from latquad import bench, cbc, kernels, points, wce

MODULES = (points, kernels, wce, cbc, bench)
ROOT = Path(__file__).resolve().parents[1]


def test_all_is_the_union_of_the_module_lists():
    listed = [name for mod in MODULES for name in mod.__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert len(latquad.__all__) == len(set(latquad.__all__))
    assert set(latquad.__all__) == set(listed)


def test_each_name_is_the_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(latquad, name) is getattr(mod, name), (mod.__name__, name)


def test_benchmark_tracer_targets_resolve():
    """Every (module, attribute) the benchmark tracer wraps exists and is callable."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _layer in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_benchmark_workloads_pass_their_checks(tmp_path, monkeypatch):
    """Every benchmark workload, at its tiny size, runs each op through the
    package and passes its own check, and its corrupted result fails one."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, True, str(tmp_path / name))
        try:
            wl.begin_pass()
            results = [op.run() for op in wl.ops]
            assert all(wl.check(results)), name
            wl.corrupt(results)
            assert wl.check(results).count(False) == 1, name
        finally:
            wl.close()


def test_src_imports_are_used():
    """Every top-level import of a package module is used in it, listed in its
    __all__, or wrapped there by the benchmark tracer."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(module, attr) for module, attr, _layer in tracing.TARGETS}
    unused = []
    for path in sorted((ROOT / "src" / "latquad").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = f"latquad.{path.stem}"
        public = set(getattr(importlib.import_module(module), "__all__", ()))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used | public and (module, name) not in wrapped:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_only_the_cli_opens_files():
    """cli turns file arguments into text streams; every other package module
    reads and writes only the streams it is given."""
    opens = []
    for path in sorted((ROOT / "src" / "latquad").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    opens.append(f"{path.name}:{node.lineno}")
    assert opens == []


def test_src_private_names_are_used_in_src():
    """Every module-level private def, class or constant of a package module
    is referenced inside the package: test-only oracles live in the tests."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "latquad").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and name not in used:
                    unused.append(f"{module}.{name}")
    assert unused == []


# rule routes whose policy the benchmark's certify workload still passes
# positionally: they go when it stops (ROADMAP step 4e)
_UNREAD_PARAMETERS = {f"wce.{name}.policy" for name in (
    "wce_korobov_lattice", "wce_cosine_tent", "wce_korcos_sym", "wce_cosine_sym")}


def test_src_parameters_are_read():
    """Every parameter of every def in the package is read in its body, the
    nested functions' included.  A lambda's parameters are its caller's
    signature, as the constant tent scale ``lambda a: 1.0``, so lambdas are
    not scanned."""
    unread = set()
    for path in sorted((ROOT / "src" / "latquad").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            unread.update(f"{path.stem}.{fn.name}.{p}" for p in params if p not in read)
    assert unread == _UNREAD_PARAMETERS
