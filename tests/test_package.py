import ast
import collections
import dataclasses
import functools
import importlib
import pathlib
import pkgutil
import re
import shutil
import subprocess
import sys
import types

import numpy as np

import angiosim
from angiosim import dynamics
from angiosim.grid import build_grid


def test_every_module_export_resolves():
    # a name left in __all__ after its definition went would only fail on a
    # user's star import; catch it here
    modules = sorted(m.name for m in pkgutil.iter_modules(angiosim.__path__))
    assert {"grid", "elliptic", "dynamics", "functionals", "harness"} <= set(modules)
    for name in modules:
        mod = importlib.import_module(f"angiosim.{name}")
        missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
        assert missing == [], f"angiosim.{name}.__all__ names {missing}"


def test_package_exports_are_the_modules_all_lists():
    modules = ("grid", "elliptic", "functionals", "dynamics", "thresholds", "config", "harness")
    declared = set()
    for name in modules:
        declared.update(importlib.import_module(f"angiosim.{name}").__all__)
    public = {name for name, value in vars(angiosim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == declared


ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path):
    """Each name the module at path imports and never reads, as "file:line name";
    a star import or a __future__ feature binds no name to read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            read.update(ast.literal_eval(node.value))  # a name exported is a name used
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted((ROOT / "src" / "angiosim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 15
    assert [entry for path in paths for entry in unused_imports(path)] == []


TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def traced_targets():
    """The (owner, name) of every patch(owner, "name", ...) call in the benchmark's
    tracer, owner as its source text, e.g. "dynamics.Stepper"."""
    targets = []
    for node in ast.walk(ast.parse(TRACED_CLI.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "patch":
            owner, name = node.args[:2]
            targets.append((ast.unparse(owner), name.value))
    return targets


def test_every_traced_name_resolves_and_a_step_calls_each_once(monkeypatch):
    # the benchmark's tracer wraps these names from outside the package and
    # only reports one it cannot find; a rename or an inlining fails here
    targets = traced_targets()
    assert ("dynamics", "stable_dt") in targets and ("dynamics.Stepper", "step") in targets
    for owner, name in targets:
        head, *rest = owner.split(".")
        obj = functools.reduce(getattr, rest, importlib.import_module(f"angiosim.{head}"))
        assert callable(getattr(obj, name, None)), f"{owner}.{name}"

    calls = collections.Counter()

    def counting(name):
        original = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, wrapper)

    names = ("stable_dt", "_face_speeds", "solve_neumann_poisson")
    for name in names:
        counting(name)
    g = build_grid(1, 1.0, 16)
    p = dynamics.ModelParams(chi=0.5, xi1=0.5, xi2=0.5, d=1.0, a=1.0, mu=1.0, theta=1.0, n_dim=1)
    stepper = dynamics.Stepper(g, [p, dataclasses.replace(p, chi=0.25)],
                               dynamics.SolverConfig(dt=1e-3, t_end=1.0))
    uv = np.ones((4, 16))
    uv[:, :8] = 1.5
    stepper.step(0.0, uv, np.zeros((2, 16)))
    assert calls == {name: 1 for name in names}


def test_ab_reports_every_metric_and_exits_1_when_outputs_differ(tmp_path):
    # the change tree runs the same code on a sweep config with another chi,
    # so its outputs differ from the base's
    change = tmp_path / "change"
    for sub in ("src", "configs"):
        shutil.copytree(ROOT / sub, change / sub, ignore=shutil.ignore_patterns("__pycache__"))
    cfg = change / "configs" / "sweep_chi_mu.cfg"
    cfg.write_text(cfg.read_text().replace("chi = 0.25,", "chi = 0.3,"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(change),
                           "--workload", "sweep", "--pairs", "2"], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[2:6]] == ["wall_s", "setup_s", "steps_per_s",
                                                        "peak_rss_mb"]
    assert all(re.search(r" [012]/2( +gain)?$", line) for line in lines[2:6])
    assert lines[6:] == ["outputs differ from the base's first run: change: full, change: setup"]
