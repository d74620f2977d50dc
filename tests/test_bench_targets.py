"""Every function the benchmark tracer wraps must exist where it is looked up.

``bench/tracing.py`` replaces each ``(module, name)`` in ``TARGETS`` by a
timing wrapper.  A name that the package stops importing would otherwise
only show when the benchmark is run, and so would a data path the
wrappers no longer see.  The harness's own smoke check runs here as well.
"""

import importlib
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_tracing().TARGETS
    assert targets
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in targets
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, f"names the tracer wraps but the package lacks: {missing}"


def test_tracer_sees_one_data_evaluation_per_level():
    from pnpfem.manufactured import scheme_config, transient_problem
    from pnpfem.mesh import build_box_mesh
    from pnpfem.timestepper import run_transient

    tracing = load_tracing()
    mesh = build_box_mesh(2, (-0.5,) * 3, (0.5,) * 3)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = run_transient(mesh, scheme_config("supg"), transient_problem(T=0.02, tau=0.01))
    assert tracing.installed_wrappers() == []
    assert len(result.reports) == 2
    spans = Counter(s.name for s in tracer.spans)
    # the source fields are integrated once per run, outside the traced load
    # and element-integral functions, so no level calls them; the boundary
    # data is bound once per run, so neither source_terms nor exact_eval is called
    assert (spans["assemble_load"], spans["element_integrals"]) == (0, 0)
    assert (spans["source_terms"], spans["exact_eval"]) == (0, 0)


def test_harness_smoke_exits_zero():
    # a change that breaks bench/run.py fails here, not only in a benchmark run
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"], cwd=TRACING.parent.parent,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_sees_every_potential_solve_start_exact():
    from pnpfem.manufactured import scheme_config, transient_problem
    from pnpfem.mesh import build_box_mesh
    from pnpfem.timestepper import run_transient

    tracing = load_tracing()
    mesh = build_box_mesh(4, (-0.5,) * 3, (0.5,) * 3)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = run_transient(mesh, scheme_config("fem"), transient_problem(T=0.125, tau=0.0625))
    counts = [s.count for s in tracer.spans if s.name == "solve_spd"]
    # the t = 0 solve, then one per sweep and the refresh of every step, each
    # verified by CG at its start, the exact grid guess
    assert counts == [(0, "cg")] * (1 + sum(r.iterations + 1 for r in result.reports))
