"""Every function the benchmark tracer wraps must exist where it is looked up.

``bench/tracing.py`` replaces each ``(module, name)`` in ``TARGETS`` by a
timing wrapper.  A name that the package stops importing would otherwise
only show when the benchmark is run.
"""

import importlib
import importlib.util
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
