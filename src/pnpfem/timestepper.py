"""Implicit (backward-Euler) transient driver with positivity diagnostics.

Every step freezes the time level, evaluates the data once at the new time
(the boundary function bound and the source fields integrated once per run,
the latter weighted by the time coefficients), forms the right-hand sides

    F = tau * load + mass * previous_concentrations

(for supg also the per-element integrals of previous_concentrations +
tau * source, from which its one extra load is built) and hands the step to
the decoupling iteration; every potential solve uses the mesh's one
operator, ``assembly.potential_system``.  After convergence
the potential is refreshed once against the accepted concentrations so the
recorded state satisfies its own discrete potential equation at solver
tolerance, and the step's operators are audited: concentration bounds, the
rhs-positivity constants, the critical step size below which the right-hand
side stays positive, and the column M-matrix verdict of the concentration
matrices (all on interior unknowns, where the homogeneous Dirichlet theory
lives).  The verdict is taken on matrices re-assembled at the refreshed,
accepted potential, not on those of the last sweep, so that it describes
the operator of the recorded state; this costs one assembly of both
species' systems per step.
``write_csv`` is the one CSV writer, of the history and of the CLI studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import assembly
from .gummel import GummelReport, State, StepProblem, gummel_solve, solve_potential
from .linalg import NonConvergenceError, column_mmatrix_check
from .linalg import interior_submatrix, solve_spd, spmv  # unused; bench/tracing.py wraps them

__all__ = [
    "TransientConfig",
    "DiagnosticsRecord",
    "TransientResult",
    "TransientAbortError",
    "bound_constants",
    "run_transient",
    "write_csv",
    "write_history",
]


@dataclass
class TransientConfig:
    """Time horizon, step size and the problem data, one callable per kind.

    ``initial(points)`` returns the starting concentrations (p1, p2), ``boundary(points)``
    a function of t giving the Dirichlet data (u, p1, p2), three (Q,) fields for points
    (Q, 3), and ``sources`` = (coefficients, fields) the right-hand sides (f, F1, F2) =
    ``coefficients(t)`` (3, K) @ ``fields(points)`` (K, Q).  ``run_transient`` binds
    ``boundary`` to the boundary nodes and integrates ``fields`` once per run
    (``assembly.integrate_fields``), calls ``boundary`` and ``coefficients`` at t = 0
    and once per step and solves for the initial potential.
    """

    T: float
    tau: float
    initial: Callable[[np.ndarray], tuple]
    boundary: Callable[[np.ndarray], Callable[[float], tuple]]
    sources: tuple[Callable[[float], np.ndarray], Callable[[np.ndarray], np.ndarray]]
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
    min_p2: float
    C_J: float
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
    """A step did not converge or a linear solve failed; carries step and partial history."""

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


def _boundary_values(mesh, boundary_at, t: float) -> np.ndarray:
    """(u, p1, p2) data of the bound boundary function at time t, zero off the boundary: (3, N)."""
    out = np.zeros((3, mesh.n_nodes))
    out[:, mesh.boundary] = np.asarray(boundary_at(t), dtype=float)
    return out


def run_transient(mesh, scheme_cfg, transient_cfg) -> TransientResult:
    """March the coupled system from t = 0 to t = T, the source fields integrated once.

    Returns the full history; a failed step (no convergence, or a failed
    linear solve as the cause) aborts with its index and the partial history.
    A failed t = 0 potential solve aborts as step 0 with no reports.
    """
    cfg = scheme_cfg
    tc = transient_cfg
    mass = assembly.lumped_mass(mesh)
    coefficients, fields = tc.sources
    field_loads, field_ints = assembly.integrate_fields(mesh, fields, cfg.scheme == "supg")
    boundary_at = tc.boundary(mesh.nodes[mesh.boundary])
    p1, p2 = (np.asarray(c, dtype=float) for c in tc.initial(mesh.nodes))
    state = State(np.zeros(mesh.n_nodes), p1, p2, 0.0)
    result, buffers = TransientResult(state=state), {}   # buffers: the sweeps' assemble_np arrays
    t = 0.0
    step, where = 0, "initial potential (t = 0)"
    try:
        state.phi = solve_potential(
            mesh, cfg, np.asarray(coefficients(0.0), dtype=float)[0] @ field_loads,
            _boundary_values(mesh, boundary_at, 0.0)[0], (p1, p2), state.phi,
        )
        for step in range(tc.n_steps):
            t_next = min((step + 1) * tc.tau, tc.T)
            where = f"step {step} (t = {t_next:g})"
            tau_n = t_next - t
            coef = np.asarray(coefficients(t_next), dtype=float)             # (3, K)
            loads = coef @ field_loads                                         # f, F1, F2
            f_np = tau_n * loads[1:] + mass * state.concentrations()
            stab_int = None
            if cfg.scheme == "supg":   # int_K (p^n_h + tau F); int_K psi_j = vol / 4
                p_int = 0.25 * mesh.geometry.volumes * state.concentrations()[:, mesh.tets].sum(-1)
                stab_int = p_int + tau_n * (coef[1:] @ field_ints)
            problem = StepProblem(mesh, cfg, tau_n, t_next, g_phi=loads[0], f_np=f_np,
                                  bc=_boundary_values(mesh, boundary_at, t_next),
                                  p_tau_f_elem_int=stab_int, buffers=buffers)
            new_state, report = gummel_solve(problem, state, tc.eps, tc.max_iter)
            if report.converged:
                # refresh the potential against the accepted concentrations so
                # the stored state satisfies its own potential equation
                new_state.phi = solve_potential(
                    mesh, cfg, problem.g_phi, problem.bc[0], (new_state.p1, new_state.p2),
                    new_state.phi,
                )
            result.reports.append(report)
            if not report.converged:
                result.times.append(t_next)
                raise TransientAbortError(
                    f"gummel iteration did not converge at step {step} (t = {t_next:g}): "
                    f"final increment {report.final_increment:g} > eps {tc.eps:g}",
                    step=step,
                    partial=result,
                )

            if not mesh.boundary.all():
                result.diagnostics.append(
                    _diagnose(mesh, cfg, step, t_next, tau_n, state, new_state, f_np, loads[1:],
                              buffers)
                )
            state = new_state
            result.state = state
            result.times.append(t_next)
            t = t_next
    except NonConvergenceError as exc:
        raise TransientAbortError(f"{where}: {exc}", step, result) from exc
    return result


def _diagnose(
    mesh, cfg, step, t_next, tau_n, old_state, new_state, f_np, g_np, buffers
) -> DiagnosticsRecord:
    interior = ~mesh.boundary
    f_int = f_np[:, interior].ravel()
    g_int = g_np[:, interior].ravel()
    floor = min(
        float(old_state.p1[interior].min()), float(old_state.p2[interior].min())
    )
    c_j, _, tau_star = bound_constants(
        f_int, 4.0 * assembly.lumped_mass(mesh)[interior], g_int, max(floor, 1e-12)
    )
    verdicts = [column_mmatrix_check(system.matrix, keep=interior).verdict
                for system in assembly.assemble_np(mesh, new_state.phi, cfg, tau_n, buffers)]
    return DiagnosticsRecord(
        step=step,
        t=t_next,
        min_p1=float(new_state.p1[interior].min()),
        min_p2=float(new_state.p2[interior].min()),
        C_J=c_j,
        tau_star=tau_star,
        mmatrix_ok_p1=verdicts[0],
        mmatrix_ok_p2=verdicts[1],
    )


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows, config_hash: str | None = None) -> None:
    """CSV at ``path``: floats by repr, bools as 1/0, then a config-hash trailer if given."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")
        if config_hash is not None:
            fh.write(f"# config-hash {config_hash}\n")


def write_history(result: TransientResult, path, config_hash: str | None = None) -> None:
    """History CSV: one row per completed step; NaN columns where no diagnostics exist."""
    header = ["step", "t", "gummel_iterations", "alpha_bar",
              "min_p1", "min_p2", "C_J", "tau_star", "mmatrix_ok"]
    diag_by_step = {d.step: d for d in result.diagnostics}
    rows = []
    for step, (t, rep) in enumerate(zip(result.times, result.reports)):
        d = diag_by_step.get(step)
        audit = ([d.min_p1, d.min_p2, d.C_J, d.tau_star, d.mmatrix_ok] if d
                 else [math.nan] * 4 + [""])
        rows.append([step, float(t), rep.iterations, float(rep.alpha_bar), *audit])
    write_csv(path, header, rows, config_hash)
