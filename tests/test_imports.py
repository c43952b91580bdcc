"""Each module of the package uses every name it imports, and every
function and class the package exports has a docstring of its own.

The checks read the source with `ast`: a name bound by an import
statement must appear as a name somewhere else in the module.  It keeps
an import from outliving the code that used it.  A dataclass without a
docstring still has a ``__doc__`` (its generated signature), so the
export check looks for the docstring in the definition itself.

The per-layer benchmark trace (``bench/tracing.py``) times the layers by
rebinding module-level names through which they call each other; a
binding that is renamed away makes its metric read 0 without an error,
so the names are pinned here as well.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gyrotrack"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nimport numpy as np\n"
                      "from math import pi, tau\n\nprint(np.pi, tau)\n")
    assert unused_imports(module) == ["os", "pi"]


def undocumented_exports():
    """Names `gyrotrack/__init__.py` imports whose function or class
    definition has no docstring; a name bound any other way counts
    unless it is an upper-case constant."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in init.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ast.parse((SRC / f"{node.module}.py").read_text(
            encoding="utf-8"))
        defs = {d.name: d for d in module.body
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
        for alias in node.names:
            if alias.name in defs:
                if ast.get_docstring(defs[alias.name]) is None:
                    missing.append(alias.name)
            elif not alias.name.isupper():
                missing.append(alias.name)
    return sorted(missing)


def test_every_export_is_documented():
    assert undocumented_exports() == []


# (module, attribute) of every binding the benchmark tracer wraps: its
# spans, then the hot counters of the integrator step and the kernels
TRACED_BINDINGS = (
    ("cli", "cmd_simulate"), ("cli", "cmd_plot"), ("cli", "load_config"),
    ("scenario", "run_closed_loop"), ("cli", "write_svg"),
    ("scenario", "rotor_accels"), ("scenario", "_loop_kernel"),
    ("integrators", "step_lie"),
)


@pytest.mark.parametrize("module, name", TRACED_BINDINGS)
def test_traced_binding_exists(module, name):
    assert callable(getattr(importlib.import_module(f"gyrotrack.{module}"),
                            name, None))



def test_closed_loop_step_calls_the_traced_bindings(monkeypatch):
    # the trace's per-step counts (4 field evaluations, each one control
    # kernel and one block solve per body) are calls through these
    # bindings, so a kernel inlined past them fails here instead of
    # reading 0; with the reference body in this process, both bodies'
    # steps are counted: 10 steps each, 8 block solves and 4 control
    # kernels per closed-loop step.  In process the reference body steps
    # inside the plant's step that first asks for its stage values, so a
    # call counts while any step is in progress, by depth
    from gyrotrack import integrators, scenario, stream
    counts = {"step_lie": 0, "rotor_accels": 0, "_loop_kernel": 0}
    depth = [0]   # the run's post-pass calls the loop outside a step
    step_lie = integrators.step_lie

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += depth[0] > 0
            return fn(*args)
        return wrapper

    def counted_step(*args, **kwargs):
        counts["step_lie"] += 1
        depth[0] += 1
        try:
            return step_lie(*args, **kwargs)
        finally:
            depth[0] -= 1

    for name in ("rotor_accels", "_loop_kernel"):
        monkeypatch.setattr(scenario, name,
                            counted(name, getattr(scenario, name)))
    monkeypatch.setattr(integrators, "step_lie", counted_step)
    monkeypatch.setattr(stream, "can_fork", lambda: False)
    scenario.run_closed_loop(scenario.benchmark_config(
        "sinusoid", gains=scenario.certified_gains(), duration=0.01))
    assert counts == {"step_lie": 20, "rotor_accels": 80, "_loop_kernel": 40}
