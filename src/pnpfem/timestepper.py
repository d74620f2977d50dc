"""Implicit (backward-Euler) transient driver with positivity diagnostics.

Every step freezes the time level, builds the loads and boundary data at the
new time, forms the concentration right-hand sides

    F = tau * load + mass * previous_concentrations

and hands the step to the decoupling iteration.  After convergence the
potential is refreshed once against the accepted concentrations so the
recorded state satisfies its own discrete potential equation at solver
tolerance, and the step's operators are audited: concentration bounds, the
rhs-positivity constants, the critical step size below which the right-hand
side stays positive, and the column M-matrix verdict of the concentration
matrices (all on interior unknowns, where the homogeneous Dirichlet theory
lives).  The verdict is taken on matrices re-assembled at the refreshed,
accepted potential, not on those of the last sweep, so that it describes
the operator of the recorded state; this costs two assemblies per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import assembly
from .gummel import GummelReport, State, StepProblem, gummel_solve, solve_potential
from .linalg import column_mmatrix_check, interior_submatrix
from .linalg import solve_spd, spmv  # unused here; bench/tracing.py wraps these names

__all__ = [
    "TransientConfig",
    "DiagnosticsRecord",
    "TransientResult",
    "TransientAbortError",
    "bound_constants",
    "run_transient",
    "write_history",
]

FieldFn = Callable[[np.ndarray, float], np.ndarray]


@dataclass
class TransientConfig:
    """Time horizon, step size and the problem data as callables.

    Source and boundary callables take (points, t) with points of shape
    (Q, 3) and return (Q,) values; initial-concentration callables take the
    points only.  The starting potential is obtained from a potential solve
    against the initial concentrations.
    """

    T: float
    tau: float
    initial_p1: Callable[[np.ndarray], np.ndarray]
    initial_p2: Callable[[np.ndarray], np.ndarray]
    g_u: FieldFn
    g_p1: FieldFn
    g_p2: FieldFn
    f: FieldFn
    F1: FieldFn
    F2: FieldFn
    eps: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not (0 < self.tau <= self.T):
            raise ValueError(f"need 0 < tau <= T, got tau={self.tau}, T={self.T}")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    @property
    def n_steps(self) -> int:
        return math.ceil(self.T / self.tau - 1e-12)


@dataclass
class DiagnosticsRecord:
    """Per-step audit of bounds, positivity constants and matrix structure."""

    step: int
    t: float
    min_p1: float
    max_p1: float
    min_p2: float
    max_p2: float
    C_J: float
    C_k: np.ndarray
    tau_star: float
    mmatrix_ok_p1: bool
    mmatrix_ok_p2: bool

    @property
    def mmatrix_ok(self) -> bool:
        return self.mmatrix_ok_p1 and self.mmatrix_ok_p2


@dataclass
class TransientResult:
    """Final state plus the per-step iteration and diagnostics history."""

    state: State
    reports: list[GummelReport] = field(default_factory=list)
    diagnostics: list[DiagnosticsRecord] = field(default_factory=list)
    times: list[float] = field(default_factory=list)


class TransientAbortError(RuntimeError):
    """A step failed to converge; carries the step index and partial history."""

    def __init__(self, message: str, step: int, partial: TransientResult):
        super().__init__(message)
        self.step = step
        self.partial = partial


def bound_constants(f_vec, omega_volumes, g_next, c_floor):
    """Positivity constants of one step's right-hand side.

    ``f_vec`` and ``g_next`` stack both species over the audited nodes;
    ``omega_volumes`` are the per-node support volumes |Omega_k| and
    ``c_floor`` is the (positive) floor of the previous concentrations.
    Returns (C_J, C_k, tau_star) with C_J the total of ``f_vec``, C_k the
    per-node bound 4 C_J / |Omega_k| and tau_star the critical step below
    which the right-hand side stays positive (+inf when the load vanishes).
    """
    f_vec = np.asarray(f_vec, dtype=float)
    omega_volumes = np.asarray(omega_volumes, dtype=float)
    g_next = np.asarray(g_next, dtype=float)
    if np.any(omega_volumes <= 0.0):
        raise ValueError("support volumes must be strictly positive")
    if not c_floor > 0:
        raise ValueError("concentration floor must be strictly positive")
    c_j = float(f_vec.sum())
    c_k = 4.0 * c_j / omega_volumes
    g_max = float(np.abs(g_next).max()) if g_next.size else 0.0
    if g_max == 0.0:
        tau_star = float("inf")
    else:
        tau_star = c_floor * float(omega_volumes.min()) / (4.0 * g_max)
    return c_j, c_k, tau_star


def _boundary_values(mesh, fn: FieldFn, t: float) -> np.ndarray:
    out = np.zeros(mesh.n_nodes)
    mask = mesh.boundary
    if mask.any():
        out[mask] = np.asarray(fn(mesh.nodes[mask], t), dtype=float)
    return out


def run_transient(mesh, scheme_cfg, transient_cfg) -> TransientResult:
    """March the coupled system from t = 0 to t = T.

    Returns the full history; a non-converged step aborts with the step
    index and the partial history attached to the exception.
    """
    cfg = scheme_cfg
    tc = transient_cfg
    bmask = mesh.boundary
    interior = ~bmask

    a_bc = assembly.apply_dirichlet_rows(assembly.assemble_stiffness(mesh), bmask)
    omega_vol = assembly.lumped_volumes(mesh)
    mass = omega_vol / 4.0

    p1 = np.asarray(tc.initial_p1(mesh.nodes), dtype=float)
    p2 = np.asarray(tc.initial_p2(mesh.nodes), dtype=float)
    phi = solve_potential(
        mesh, cfg, a_bc, assembly.assemble_load(mesh, tc.f, 0.0), mass,
        _boundary_values(mesh, tc.g_u, 0.0), (p1, p2), np.zeros(mesh.n_nodes),
    )
    state = State(phi, p1, p2, 0.0)

    result = TransientResult(state=state)
    t = 0.0
    for step in range(tc.n_steps):
        t_next = min((step + 1) * tc.tau, tc.T)
        tau_n = t_next - t
        g_phi = assembly.assemble_load(mesh, tc.f, t_next)
        g1 = assembly.assemble_load(mesh, tc.F1, t_next)
        g2 = assembly.assemble_load(mesh, tc.F2, t_next)
        f_np = np.stack(
            (
                tau_n * g1 + mass * state.p1,
                tau_n * g2 + mass * state.p2,
            )
        )
        bc_p = np.stack(
            (
                _boundary_values(mesh, tc.g_p1, t_next),
                _boundary_values(mesh, tc.g_p2, t_next),
            )
        )
        source_elem = None
        if cfg.scheme == "supg":
            source_elem = np.stack(
                (
                    assembly.element_integrals(mesh, tc.F1, t_next),
                    assembly.element_integrals(mesh, tc.F2, t_next),
                )
            )
        problem = StepProblem(
            mesh=mesh,
            cfg=cfg,
            tau=tau_n,
            t_next=t_next,
            poisson_matrix=a_bc,
            g_phi=g_phi,
            bc_phi=_boundary_values(mesh, tc.g_u, t_next),
            f_np=f_np,
            bc_p=bc_p,
            p_level=state.concentrations(),
            mass=mass,
            source_elem_int=source_elem,
        )
        new_state, report = gummel_solve(problem, state, tc.eps, tc.max_iter)
        result.reports.append(report)
        if not report.converged:
            result.times.append(t_next)
            raise TransientAbortError(
                f"gummel iteration did not converge at step {step} (t = {t_next:g}): "
                f"final increment {report.final_increment:g} > eps {tc.eps:g}",
                step=step,
                partial=result,
            )

        # refresh the potential against the accepted concentrations so the
        # stored state satisfies its own potential equation
        new_state.phi = solve_potential(
            mesh, cfg, a_bc, g_phi, mass, problem.bc_phi,
            (new_state.p1, new_state.p2), new_state.phi,
        )

        if interior.any():
            result.diagnostics.append(
                _diagnose(
                    mesh, cfg, step, t_next, tau_n, state, new_state,
                    f_np, g1, g2, omega_vol, interior,
                )
            )
        state = new_state
        result.state = state
        result.times.append(t_next)
        t = t_next
    return result


def _diagnose(
    mesh, cfg, step, t_next, tau_n, old_state, new_state, f_np, g1, g2, omega_vol, interior
) -> DiagnosticsRecord:
    f_int = np.concatenate((f_np[0][interior], f_np[1][interior]))
    g_int = np.concatenate((g1[interior], g2[interior]))
    floor = min(
        float(old_state.p1[interior].min()), float(old_state.p2[interior].min())
    )
    c_j, c_k, tau_star = bound_constants(
        f_int, omega_vol[interior], g_int, max(floor, 1e-12)
    )
    verdicts = []
    for i in range(2):
        system = assembly.assemble_np(mesh, new_state.phi, cfg, i, tau_n)
        sub = interior_submatrix(system.matrix, interior)
        verdicts.append(column_mmatrix_check(sub).verdict)
    return DiagnosticsRecord(
        step=step,
        t=t_next,
        min_p1=float(new_state.p1[interior].min()),
        max_p1=float(new_state.p1[interior].max()),
        min_p2=float(new_state.p2[interior].min()),
        max_p2=float(new_state.p2[interior].max()),
        C_J=c_j,
        C_k=c_k,
        tau_star=tau_star,
        mmatrix_ok_p1=verdicts[0],
        mmatrix_ok_p2=verdicts[1],
    )


def write_history(result: TransientResult, target, config_hash: str | None = None):
    """History CSV: one row per completed step plus a config-hash trailer."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w") if own else target
    diag_by_step = {d.step: d for d in result.diagnostics}
    try:
        fh.write("step,t,gummel_iterations,alpha_bar,min_p1,min_p2,C_J,tau_star,mmatrix_ok\n")
        for step, (t, rep) in enumerate(zip(result.times, result.reports)):
            d = diag_by_step.get(step)
            cells = [
                str(step),
                repr(float(t)),
                str(rep.iterations),
                repr(float(rep.alpha_bar)),
                repr(float(d.min_p1)) if d else "nan",
                repr(float(d.min_p2)) if d else "nan",
                repr(float(d.C_J)) if d else "nan",
                repr(float(d.tau_star)) if d else "nan",
                ("1" if d.mmatrix_ok else "0") if d else "",
            ]
            fh.write(",".join(cells) + "\n")
        if config_hash is not None:
            fh.write(f"# config-hash {config_hash}\n")
    finally:
        if own:
            fh.close()
