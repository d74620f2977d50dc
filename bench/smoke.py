"""Fast check of the benchmark harness: n = 4, two steps, every scheme.

    python3 bench/smoke.py

Runs the timed and the traced path of ``run.py`` on tiny cells and checks
that every metric is measured under a valid name listed in BENCHMARK.json,
that the results pass the benchmark's own checks, and that no wrapper stays
installed after a traced run.  Exits non-zero on the first failure.
"""

import re
import sys
import tempfile
from pathlib import Path

import run
import tracing

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def main() -> int:
    run.SETUP_SECONDS = 0.0  # the n = 4 set-up takes milliseconds
    spec = run.load_spec()
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                sys.exit(f"smoke: invalid {kind} metric {m}")
    originals = {t: getattr(sys.modules[t[0]], t[1]) for t in tracing.TARGETS}
    try:
        with tracing.Tracer().installed():
            raise RuntimeError("abort inside a traced block")
    except RuntimeError:
        if tracing.installed_wrappers():
            sys.exit("smoke: wrappers left installed after an aborted traced block")
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for scheme in ("fem", "supg", "eafe"):
            wl = run.Workload(f"smoke-{scheme}", scheme, 4, 1.0, 2, None)
            for trace in (0, 1):
                if trace:
                    outcome = run.measure_traced(wl, spec, Path(tmp))
                else:
                    outcome = run.measure(wl, 0.0, spec, Path(tmp))
                line = run.report(spec, trace, outcome)
                if not line["correct"]:
                    sys.exit(f"smoke: {wl.name} trace {trace}: {outcome['failures'] + outcome['problems']}")
                left = [t for t, fn in originals.items() if getattr(sys.modules[t[0]], t[1]) is not fn]
                if left or tracing.installed_wrappers():
                    sys.exit(f"smoke: wrappers left installed after {wl.name}: {left}")
                print(f"smoke: {wl.name} trace {trace}: {len(line['metrics'])} metrics ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
