"""pnpfem benchmark: transient cells timed end to end, or traced by module.

Run from the root of a checkout:

    python3 bench/run.py --workload eafe-n16 --seed 1 --seconds 30 --trace 0

It drives the library the way a user does: build a box mesh, march the
manufactured problem with ``run_transient``, write ``history.csv`` with
``write_history`` and score the final state with ``error_norms``.

``--trace 0`` repeats the set-up for a few seconds and then the transient for
about ``--seconds`` seconds, and reports the end-to-end metrics (medians).
``--trace 1`` makes one plain run and then one run with spans around the
package's public functions, and reports the per-layer metrics; the
difference of the two run times is the tracing overhead.

The workloads are deterministic (closed-form data, fixed Kuhn meshes, no
random draws), so ``--seed`` is recorded but selects nothing.  The last line
of standard output is one JSON object; details of the run, the machine and
its settings go to ``.bench_out/<workload>/``.
"""

import os

# One thread per process: BLAS threads would make the timings depend on what
# else runs on the machine.  Must be set before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Import the package from this checkout only, never from an installed copy.
if not (SRC / "pnpfem" / "__init__.py").is_file():
    sys.exit(f"bench: no pnpfem sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from pnpfem import (  # noqa: E402
    NonConvergenceError,
    TransientAbortError,
    assemble_stiffness,
    build_box_mesh,
    run_transient,
    write_history,
)
from pnpfem.gummel import contraction_stats  # noqa: E402
from pnpfem.manufactured import error_norms, scheme_config, transient_problem  # noqa: E402

LO, HI = (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)
# Set-up repeats at least SETUP_MIN_REPEATS times and for SETUP_SECONDS, so
# the median of the short n = 16 set-up spans more than a burst of noise.
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 3.0
FAILURES = (TransientAbortError, NonConvergenceError)


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    n: int
    tau_h2: float                 # tau = tau_h2 * h^2
    steps: int | None             # None marches to T = 0.25
    reference_err: dict | None    # L2 errors at t = T measured at the seed

    @property
    def tau(self) -> float:
        return self.tau_h2 / self.n**2

    @property
    def T(self) -> float:
        return 0.25 if self.steps is None else self.steps * self.tau


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eafe-n16", "eafe", 16, 1.0, None, {
            "err_l2_u": 0.0010520555601049985,
            "err_l2_p": 0.02443652333679368,
            "err_l2_n": 0.04509110406004922,
        }),
        Workload("supg-n16-4h2", "supg", 16, 4.0, None, {
            "err_l2_u": 0.0009259442740038428,
            "err_l2_p": 0.026439337053047907,
            "err_l2_n": 0.03921596470008559,
        }),
        # a full-T run at n = 32 takes about 15 minutes, so only 4 steps
        Workload("fem-n32", "fem", 32, 1.0, 4, {
            "err_l2_u": 6.085290927527868e-06,
            "err_l2_p": 0.00011106876861394579,
            "err_l2_n": 0.0002214247082787644,
        }),
    )
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def set_up(wl: Workload):
    """Mesh, first geometry and first stiffness (the pattern workspace).

    Returns the mesh, the stiffness matrix and the three part times.
    """
    t0 = perf_counter()
    mesh = build_box_mesh(wl.n, LO, HI)
    t1 = perf_counter()
    mesh.geometry
    t2 = perf_counter()
    stiffness = assemble_stiffness(mesh)
    t3 = perf_counter()
    return mesh, stiffness, (t1 - t0, t2 - t1, t3 - t2)


def repeated_set_up(wl: Workload):
    """Set up repeatedly; keep the last mesh, report median part and total times."""
    parts = []
    start = perf_counter()
    while len(parts) < SETUP_MIN_REPEATS or perf_counter() - start < SETUP_SECONDS:
        mesh, stiffness, times = set_up(wl)
        parts.append(times)
    medians = [statistics.median(p) for p in zip(*parts)]
    total = statistics.median(sum(p) for p in parts)
    return mesh, stiffness, medians, total


def transient(mesh, wl: Workload):
    """One run_transient of the workload; returns the result and its wall time."""
    cfg = scheme_config(wl.scheme)
    tc = transient_problem(T=wl.T, tau=wl.tau)
    t0 = perf_counter()
    result = run_transient(mesh, cfg, tc)
    return result, perf_counter() - t0


def run_problems(wl: Workload, result) -> list[str]:
    """Checks every run must pass: all steps converged, EAFE stays monotone."""
    problems = []
    steps = round(wl.T / wl.tau)
    if len(result.reports) != steps:
        problems.append(f"{len(result.reports)} steps recorded, expected {steps}")
    bad = [i for i, r in enumerate(result.reports) if not r.converged]
    if bad:
        problems.append(f"steps {bad} did not converge")
    if len(result.diagnostics) != steps:
        problems.append(f"{len(result.diagnostics)} diagnostics records, expected {steps}")
    if wl.scheme == "eafe":
        bad = [d.step for d in result.diagnostics if not d.mmatrix_ok]
        if bad:
            problems.append(f"eafe steps {bad} failed the column M-matrix check")
    return problems


def save_history(result, path: Path) -> tuple[str, int]:
    """Write history.csv; return its sha256 and size in bytes."""
    write_history(result, path)
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def score(mesh, result) -> dict:
    s = result.state
    return {
        f"err_l2_{field}": float(error_norms(mesh, dofs, field, s.t)[0])
        for field, dofs in (("u", s.phi), ("p", s.p1), ("n", s.p2))
    }


def error_problems(wl: Workload, errs: dict, spec: dict) -> list[str]:
    """Errors must be finite and within the metric's bound of the seed value."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for name, value in errs.items():
        if not math.isfinite(value):
            problems.append(f"{name} = {value} is not finite")
        elif wl.reference_err is not None:
            ref = wl.reference_err[name]
            if abs(value - ref) > bounds[name] * ref:
                problems.append(f"{name} = {value:.6g} is not within {bounds[name]:.0%} of {ref:.6g}")
    return problems


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def measure(wl: Workload, seconds: float, spec: dict, out_dir: Path) -> dict:
    """End-to-end metrics: median set-up, then transients for about `seconds`."""
    mesh, _, _, setup_s = repeated_set_up(wl)
    start = perf_counter()
    run_times, hashes, problems, failures = [], set(), [], []
    result = None
    while True:
        t0 = perf_counter()
        try:
            res, run_s = transient(mesh, wl)
        except FAILURES as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        else:
            run_times.append(run_s)
            problems += run_problems(wl, res)
            hashes.add(save_history(res, out_dir / "history.csv")[0])
            result = res
        # stop when another run like the last one would overrun the budget
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    attempted = len(run_times) + len(failures)
    if len(hashes) > 1:
        problems.append(f"repeated runs wrote {len(hashes)} different histories")
    metrics = {"setup_s": setup_s}
    if result is not None:
        errs = score(mesh, result)
        problems += error_problems(wl, errs, spec)
        metrics["run_s"] = statistics.median(run_times)
        metrics["peak_rss_mb"] = peak_rss_mib()  # the whole process, scoring included
        metrics.update(errs)
    return {
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "details": {"run_times_s": run_times, "history_sha256": sorted(hashes)},
    }


def measure_traced(wl: Workload, spec: dict, out_dir: Path) -> dict:
    """Per-layer metrics from one plain run and one run with spans."""
    mesh, stiffness, (build_s, geometry_s, workspace_s), _ = repeated_set_up(wl)
    problems, failures = [], []
    try:
        plain, plain_s = transient(mesh, wl)
    except FAILURES as exc:
        failures.append(f"untraced {type(exc).__name__}: {exc}")
        plain = None
    else:
        plain_sha, _ = save_history(plain, out_dir / "history.csv")

    tracer = tracing.Tracer()
    traced = None
    with tracer.installed():
        try:
            with tracer.span("run_transient") as run_span:
                traced, _ = transient(mesh, wl)
        except FAILURES as exc:
            failures.append(f"traced {type(exc).__name__}: {exc}")
        else:
            with tracer.span("write_history") as history_span:
                traced_sha, history_bytes = save_history(traced, out_dir / "history-traced.csv")
            with tracer.span("error_norms") as score_span:
                errs = score(mesh, traced)
    left = tracing.installed_wrappers()
    if left:
        problems.append(f"wrappers still installed after the traced run: {left}")
    tracer.write(out_dir / "spans.csv")

    metrics = {
        "mesh.build_s": build_s,
        "mesh.geometry_s": geometry_s,
        "mesh.nodes": mesh.n_nodes,
        "mesh.tets": mesh.n_tets,
        "assembly.workspace_s": workspace_s,
        "assembly.pattern_nnz": stiffness.nnz,
        "assembly.pattern_zero_frac": float(np.mean(stiffness.data == 0.0)),
    }
    if plain is None or traced is None:
        return {"attempted": 2, "failures": failures, "problems": problems, "metrics": metrics}

    problems += run_problems(wl, traced) + error_problems(wl, errs, spec)
    if traced_sha != plain_sha:
        problems.append("the traced run wrote a different history than the untraced run")
    metrics.update(layer_metrics(tracer.spans, traced))
    metrics.update({
        "manufactured.error_norms_s": score_span.seconds,
        "timestepper.run_s_traced": run_span.seconds,
        "timestepper.history_s": history_span.seconds,
        "timestepper.history_bytes": history_bytes,
        "trace.overhead_s": run_span.seconds - plain_s,
    })
    return {
        "attempted": 2,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "details": {"history_sha256": traced_sha, "untraced_run_s": plain_s},
    }


def layer_metrics(spans, result) -> dict:
    """Counts and times by module from the traced run's spans.

    Times are inclusive span durations (``assemble_load`` contains
    ``source_terms``, ``assemble_np`` contains ``bernoulli``, the solvers
    contain ``spmv``); ``*.self_s`` subtract the wrapped children.
    """
    g = tracing.totals(spans)
    t = lambda key: g.get(key, tracing.Totals())  # noqa: E731
    cg, bicg, spmv = t("solve_spd"), t("solve_general"), t("spmv")
    stats = contraction_stats(result.reports)
    sweeps = sum(r.iterations for r in result.reports)
    diagnose = t("assemble_np/diag").seconds + t("interior_submatrix").seconds + t("column_mmatrix_check").seconds
    return {
        "assembly.np_solve_calls": t("assemble_np/solve").calls,
        "assembly.np_solve_s": t("assemble_np/solve").seconds,
        "assembly.np_diag_calls": t("assemble_np/diag").calls,
        "assembly.np_diag_s": t("assemble_np/diag").seconds,
        "assembly.bernoulli_calls": t("bernoulli").calls,
        "assembly.bernoulli_evals": sum(t("bernoulli").counts),
        "assembly.bernoulli_s": t("bernoulli").seconds,
        "assembly.load_calls": t("assemble_load").calls,
        "assembly.load_s": t("assemble_load").seconds,
        "assembly.elem_int_calls": t("element_integrals").calls,
        "assembly.elem_int_s": t("element_integrals").seconds,
        "manufactured.source_calls": t("source_terms").calls,
        "manufactured.source_points": sum(t("source_terms").counts),
        "manufactured.source_s": t("source_terms").seconds,
        "manufactured.exact_calls": t("exact_eval").calls,
        "manufactured.exact_s": t("exact_eval").seconds,
        "linalg.cg_calls": cg.calls,
        "linalg.cg_iters": sum(c[0] for c in cg.counts),
        "linalg.cg_s": cg.seconds,
        "linalg.bicgstab_calls": bicg.calls,
        "linalg.bicgstab_iters": sum(c[0] for c in bicg.counts),
        "linalg.bicgstab_s": bicg.seconds,
        "linalg.dense_fallbacks": sum(c[1] == "dense" for c in cg.counts + bicg.counts),
        "linalg.solve_failures": sum(e == "NonConvergenceError" for e in cg.errors + bicg.errors),
        "linalg.spmv_calls": spmv.calls,
        "linalg.spmv_s": spmv.seconds,
        "linalg.spmv_flops": sum(c[0] for c in spmv.counts),
        "linalg.spmv_bytes_computed": sum(c[1] for c in spmv.counts),
        "linalg.mmatrix_check_calls": t("column_mmatrix_check").calls,
        "linalg.mmatrix_check_s": t("column_mmatrix_check").seconds,
        "linalg.mmatrix_violations": sum(t("column_mmatrix_check").counts),
        "linalg.submatrix_s": t("interior_submatrix").seconds,
        "gummel.steps": len(result.reports),
        "gummel.sweeps": sweeps,
        "gummel.sweeps_per_step": sweeps / len(result.reports),
        "gummel.alpha_bar": stats.alpha_bar,
        "gummel.max_ratio": stats.max_ratio,
        "gummel.solve_s": t("gummel_solve").seconds,
        "gummel.sweep_s": t("gummel_step").seconds / max(t("gummel_step").calls, 1),
        "gummel.self_s": t("gummel_solve").self_seconds + t("gummel_step").self_seconds,
        "timestepper.self_s": t("run_transient").self_seconds,
        "timestepper.diagnose_s": diagnose,
    }


def machine_info() -> dict:
    """Interpreter, numpy/BLAS, thread settings, cores, CPU model and caches."""
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # not Linux: the fields above keep their portable values
    return info


def report(spec: dict, trace: int, outcome: dict) -> dict:
    """The result line: every metric of the requested kind with its unit."""
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = outcome["metrics"]
    problems = list(outcome["problems"])
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in listed})
    if missing:
        problems.append(f"metrics not measured: {missing}")
    if extra:
        problems.append(f"metrics missing from BENCHMARK.json: {extra}")
    out = {}
    for m in listed:
        if m["name"] in metrics:
            value = metrics[m["name"]]
            value = int(value) if isinstance(value, (int, np.integer)) else float(value)
            if not math.isfinite(value):
                problems.append(f"{m['name']} = {value} is not finite")
                value = None
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    outcome["problems"] = problems
    return {
        "correct": not problems and not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": out,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="recorded; the workloads draw nothing")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    wl = WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        outcome = measure_traced(wl, spec, out_dir)
    else:
        outcome = measure(wl, args.seconds, spec, out_dir)
    line = report(spec, args.trace, outcome)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        **outcome,
        "result": line,
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {wl.name}: {wl.scheme}, n = {wl.n}, tau = {wl.tau_h2:g} h^2, "
          f"T = {wl.T:g}, seed {args.seed} (unused: inputs are deterministic)")
    for message in outcome["failures"] + outcome["problems"]:
        print(f"FAIL {message}")
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
