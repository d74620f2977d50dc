"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

The heavy benchmark runs (h = 1/16, three schemes, three step sizes) are
computed once and shared across criteria, with inner linear solves at
``linear_tol = 1e-12``.

Criterion 1 is expected to fail.  Each of its two clauses fails for its own
cause (measurements in CHANGES.md):

* Values within 30% of the published table.  With resolved linear solves
  the mean contraction factor is 0.97-1.18 tau; the table gives
  10.4-11.5 tau.  The gap, a factor 9.8-10.8, is nearly the same for every
  step size and scheme.  The program implements the model as printed (unit
  charges, drift 0.179, closed-form sources checked by a finite-difference
  residual test), and no document here says which coupling constant or
  norm the table used.  The table and the band stay as published.
* Halving rates in [1.7, 2.1].  At 1e-12 they are fem 2.25/1.93,
  supg 2.25/1.75, eafe 1.87/2.00.  This part is a fault of the program: the
  concentration solves take their residual target relative to the norm of
  a right-hand side that is 2,200-3,500 times its norm over the free rows
  (the rest sits in the Dirichlet rows), so late iterates freeze and
  alpha_bar moves with the tolerance (fem, tau = h^2: 3.73e-3 at 1e-12,
  4.28e-3 at 1e-13, 4.82e-3 at 1e-14).  With the target taken on the free
  rows, every rate is 1.86-1.88 / 1.77-1.78.
"""

import numpy as np

import oracles
from oracles import to_dense
from pnpfem import assembly
from pnpfem.assembly import bernoulli
from pnpfem.gummel import contraction_stats
from pnpfem.linalg import column_mmatrix_check
from pnpfem.manufactured import error_norms, scheme_config, transient_problem
from pnpfem.mesh import BoxMesh, build_box_mesh, mesh_quality_report
from pnpfem.timestepper import run_transient

BOX = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
SCHEMES = ("fem", "supg", "eafe")

PAPER_ALPHA = {
    "fem": {4.0: 1.63e-1, 2.0: 8.55e-2, 1.0: 4.49e-2},
    "supg": {4.0: 1.62e-1, 2.0: 8.52e-2, 1.0: 4.47e-2},
    "eafe": {4.0: 1.63e-1, 2.0: 8.53e-2, 1.0: 4.48e-2},
}

_cache = {}


def benchmark_run(scheme: str, n: int, mult: float):
    """One benchmark transient, cached across criteria."""
    key = (scheme, n, mult)
    if key not in _cache:
        tau = mult * (1.0 / n) ** 2
        mesh = build_box_mesh(n, *BOX)
        scfg = scheme_config(scheme, linear_tol=1e-12)
        tc = transient_problem(T=0.25, tau=tau, eps=1e-6, max_iter=500)
        _cache[key] = (mesh, run_transient(mesh, scfg, tc))
    return _cache[key]


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


# -------------------------------------------------------------- criterion 1

def test_criterion_1_contraction_table():
    measured = {}
    for scheme in SCHEMES:
        for mult in (4.0, 2.0, 1.0):
            _, result = benchmark_run(scheme, 16, mult)
            measured[(scheme, mult)] = contraction_stats(result.reports).alpha_bar

    rate_ok = True
    rate_detail = []
    for scheme in SCHEMES:
        r1 = measured[(scheme, 4.0)] / measured[(scheme, 2.0)]
        r2 = measured[(scheme, 2.0)] / measured[(scheme, 1.0)]
        rate_detail.append(f"{scheme}: {r1:.2f}/{r2:.2f}")
        rate_ok &= 1.7 <= r1 <= 2.1 and 1.7 <= r2 <= 2.1

    value_ok = True
    value_detail = []
    for scheme in SCHEMES:
        for mult in (4.0, 2.0, 1.0):
            got = measured[(scheme, mult)]
            want = PAPER_ALPHA[scheme][mult]
            value_detail.append(f"{scheme}@{mult:g}h2: {got:.3e} vs {want:.3e}")
            value_ok &= abs(got - want) <= 0.30 * want

    print("[acceptance] criterion 1 measured alpha_bar: " + "; ".join(value_detail))
    print(f"[acceptance] criterion 1 clause (values within 30%): "
          f"{'PASS' if value_ok else 'FAIL'}")
    print(f"[acceptance] criterion 1 clause (halving rates in [1.7, 2.1]): "
          f"{'PASS' if rate_ok else 'FAIL'} " + "; ".join(rate_detail))
    report(
        "criterion 1 (published contraction table reproduced)",
        value_ok and rate_ok,
        "the printed benchmark model contracts ~10x faster than the published "
        "table (resolved alpha_bar ~1.0-1.2 tau vs 10.4-11.5 tau, nearly the "
        "same factor for every tau and scheme), which points to a scale of the "
        "paper's experiment that is not known; each clause's verdict is printed "
        "above, and the value gap is ROADMAP item 2",
    )


# -------------------------------------------------------------- criterion 2

def test_criterion_2_convergence_orders():
    ok = True
    details = []
    for scheme in SCHEMES:
        errs = {}
        for n in (4, 8, 16):
            mesh, result = benchmark_run(scheme, n, 1.0)
            state = result.state
            errs[n] = [
                *error_norms(mesh, state.phi, "u", state.t),
                *error_norms(mesh, state.p1, "p", state.t),
                *error_norms(mesh, state.p2, "n", state.t),
            ]
        for pair in ((4, 8), (8, 16)):
            coarse, fine = (np.array(errs[n]) for n in pair)
            rates = np.log2(coarse / fine)
            l2 = rates[[0, 2, 4]]
            h1 = rates[[1, 3, 5]]
            details.append(
                f"{scheme} h=1/{pair[0]}->1/{pair[1]}: "
                f"L2 {np.array2string(l2, precision=2)} H1 {np.array2string(h1, precision=2)}"
            )
            ok &= bool((l2 >= 1.5).all() and (l2 <= 2.5).all())
            ok &= bool((h1 >= 0.6).all() and (h1 <= 1.4).all())
    report("criterion 2 (L2 orders in [1.5,2.5], H1 orders in [0.6,1.4])", ok,
           "; ".join(details))


# -------------------------------------------------------------- criterion 3

def _candidate_meshes():
    regular = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    return {
        "kuhn-n1": build_box_mesh(1, *BOX),
        "kuhn-n2": build_box_mesh(2, *BOX),
        "kuhn-n3": build_box_mesh(3, *BOX),
        "kuhn-stretched": build_box_mesh(2, (0, 0, 0), (10, 1, 1)),
        "regular-tet": BoxMesh.from_cells(regular, [[0, 1, 3, 2]]),
    }


def test_criterion_3_mmatrix_suite():
    rng = np.random.default_rng(2024)
    ok = True
    details = []
    checked = 0
    for name, mesh in _candidate_meshes().items():
        quality = mesh_quality_report(mesh)
        if not (quality.nonnegative and quality.tet_has_positive_edge):
            details.append(f"{name}: skipped (weights not weakly positive)")
            continue
        checked += 1
        tau = 0.01
        eafe_unit = assembly.SchemeConfig(scheme="eafe", drift=(1.0, -1.0))
        worst_inverse = 0.0
        all_pass = True
        for _ in range(100):
            phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
            system = assembly.assemble_np(mesh, phi, eafe_unit, tau)[0]
            verdict = column_mmatrix_check(system.matrix).verdict
            all_pass &= verdict
            inv = np.linalg.inv(to_dense(system.matrix))
            worst_inverse = min(worst_inverse, float(inv.min()))
        details.append(f"{name}: check={all_pass}, min inverse entry={worst_inverse:.2e}")
        ok &= all_pass and worst_inverse >= -1e-10
    ok &= checked >= 3
    report("criterion 3 (column M-matrix + nonnegative inverse, 100 potentials)",
           ok, "; ".join(details))


# -------------------------------------------------------------- criterion 4

def test_criterion_4_oracle_equivalence():
    mesh = build_box_mesh(2, *BOX)  # 48 tets
    rng = np.random.default_rng(7)
    tau = 0.01
    worst = {s: 0.0 for s in SCHEMES}
    for trial in range(20):
        phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        for scheme in SCHEMES:
            cfg = scheme_config(scheme)
            ours = to_dense(assembly.assemble_np(mesh, phi, cfg, tau)[0].matrix)
            ref = oracles.oracle_np_matrix(mesh, phi, cfg.drift[0], tau, scheme)
            worst[scheme] = max(worst[scheme], float(np.abs(ours - ref).max()))
    ok = all(v < 1e-10 for v in worst.values())
    report("criterion 4 (assemblers vs brute-force quadrature, 20 potentials)",
           ok, "; ".join(f"{s}: {v:.2e}" for s, v in worst.items()))


# -------------------------------------------------------------- criterion 5

def test_criterion_5_reduction_identities():
    def drift_cfg(scheme):
        return assembly.SchemeConfig(scheme=scheme, drift=(0.179, -0.179))

    details = []
    ok = True
    for n, lo, hi in ((2, BOX[0], BOX[1]), (3, (0, 0, 0), (1, 1, 1))):
        mesh = build_box_mesh(n, lo, hi)
        zero = np.zeros(mesh.n_nodes)
        tau = 0.01
        eafe = assembly.assemble_np(oracles.unconstrained(mesh), zero, drift_cfg("eafe"), tau)[0]
        target = np.diag(assembly.lumped_volumes(mesh) / 4.0) \
            + tau * to_dense(assembly.assemble_stiffness(mesh))
        gap_eafe = float(np.abs(to_dense(eafe.matrix) - target).max())
        fem = assembly.assemble_np(mesh, zero, drift_cfg("fem"), tau)[0]
        supg = assembly.assemble_np(mesh, zero, drift_cfg("supg"), tau)[0]
        supg_equal = bool(np.array_equal(fem.matrix.data, supg.matrix.data))
        details.append(f"n={n}: |EAFE(0)-(M+tauA)|={gap_eafe:.1e}, SUPG(0)==FEM(0): {supg_equal}")
        ok &= gap_eafe < 1e-13 and supg_equal

    ts = np.logspace(-10, np.log10(50.0), 500)
    gap = np.abs(bernoulli(-ts) - bernoulli(ts) - ts)
    # relative to the identity's scale: both sides are O(max(1, t))
    bern_ok = bool((gap <= 1e-12 * np.maximum(ts, 1.0)).all())
    strict = ts >= 1e-3
    bern_ok &= bool((gap[strict] <= 1e-12 * ts[strict]).all())
    details.append(f"bernoulli identity max gap {gap.max():.1e}")
    ok &= bern_ok
    report("criterion 5 (reduction identities + bernoulli identity)", ok,
           "; ".join(details))


# -------------------------------------------------------------- criterion 6

def test_criterion_6_positivity_scenario():
    from pnpfem.timestepper import TransientConfig

    mesh = build_box_mesh(4, *BOX)
    quality = mesh_quality_report(mesh)
    assert quality.nonnegative and quality.tet_has_positive_edge
    interior = ~mesh.boundary
    zero = lambda pts: lambda t: np.zeros((3, len(pts)))
    no_sources = (lambda t: np.zeros((3, 1)), lambda pts: np.zeros((1, len(pts))))
    rng = np.random.default_rng(99)
    tau = 1e-3
    ok = True
    worst = np.inf
    for trial in range(10):
        vals = rng.uniform(0.25, 2.0, (2, mesh.n_nodes))
        tc = TransientConfig(
            T=50 * tau, tau=tau,
            initial=lambda pts, v=vals: v,
            boundary=zero, sources=no_sources,
        )
        result = run_transient(mesh, scheme_config("eafe"), tc)
        assert len(result.reports) == 50
        # zero load: reported critical step is infinite, tau is below it
        assert all(d.tau_star == np.inf for d in result.diagnostics)
        mins = [min(d.min_p1, d.min_p2) for d in result.diagnostics]
        worst = min(worst, min(mins))
        ok &= min(mins) > 0.0
    report("criterion 6 (positivity over 50 steps, 10 trials)", ok,
           f"worst interior minimum {worst:.3e}")
    del interior


# -------------------------------------------------------------- criterion 7

def test_criterion_7_gummel_robustness():
    ok = True
    details = []
    max_ratio = 0.0
    for scheme in SCHEMES:
        for n, mult in ((16, 4.0), (16, 2.0), (16, 1.0), (8, 1.0), (4, 1.0)):
            _, result = benchmark_run(scheme, n, mult)
            its = [r.iterations for r in result.reports]
            conv = all(r.converged for r in result.reports)
            stats = contraction_stats(result.reports)
            max_ratio = max(max_ratio, stats.max_ratio)
            ok &= conv and max(its) <= 500 and stats.max_ratio < 1.0
        details.append(f"{scheme}: all steps converged")
    report("criterion 7 (convergence within 500 sweeps, all ratios < 1)", ok,
           f"max ratio {max_ratio:.3f}; " + "; ".join(details))
