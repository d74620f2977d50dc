"""Command-line front end: study drivers over the built-in benchmark.

Subcommands:
  converge   errors and observed orders over a list of mesh sizes
  contract   mean contraction factors of the decoupling iteration per scheme
             and step size, with the halving rate
  audit      per-step M-matrix / positivity audit of one transient run
  run        single transient with the per-step history dump
  mesh       write the mesh in plain text

Every CSV ends with a '# config-hash <hex>' trailer; identical
configurations produce byte-identical files at a fixed BLAS thread count (the
solvers' dot products and norms run through BLAS, which threads long vectors).
Exit codes: 0 success, 2 configuration error, 3 solver non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

from . import manufactured
from .gummel import contraction_stats
from .mesh import build_box_mesh, dump_mesh, mesh_quality_report
from .timestepper import TransientAbortError, run_transient, write_csv, write_history

__all__ = [
    "RunConfig",
    "ConfigError",
    "run_convergence_study",
    "run_contraction_study",
    "run_mmatrix_audit",
    "main",
]

BOX_LO = (-0.5, -0.5, -0.5)
BOX_HI = (0.5, 0.5, 0.5)


class ConfigError(ValueError):
    """Invalid configuration (bad flag value, config file entry, ...)."""


# numeric RunConfig keys and the type of their value (or of each of its items)
_NUMBER_KEYS = {
    "n": Integral, "max_iter": Integral, "sizes": Integral,
    "T": Real, "epsilon": Real, "supg_scale": Real, "multipliers": Real,
}


@dataclass
class RunConfig:
    """One study cell: scheme, resolution, step rule and solver settings."""

    scheme: str = "fem"
    n: int = 8
    tau_rule: str = "h2"
    T: float = 0.25
    epsilon: float = 1e-6
    max_iter: int = 500
    supg_scale: float = 1.0
    out: str = "."
    sizes: tuple[int, ...] = (4, 8, 16)
    multipliers: tuple[float, ...] = (4.0, 2.0, 1.0)

    def validate(self):
        if self.scheme not in ("fem", "supg", "eafe"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        for key, kind in _NUMBER_KEYS.items():
            value = getattr(self, key)
            items = value if key in ("sizes", "multipliers") else (value,)
            if not isinstance(items, (tuple, list)) or not all(
                isinstance(v, kind) and not isinstance(v, bool)
                and (kind is Integral or math.isfinite(v))
                for v in items
            ):
                what = "integer" if kind is Integral else "finite real number"
                raise ConfigError(f"{key}: expected {what} values, got {value!r}")
            if not all(v > 0 for v in items):
                raise ConfigError(f"{key} must be positive, got {value!r}")
        self.resolve_tau(self.n)

    def resolve_tau(self, n: int) -> float:
        h = 1.0 / n
        rule = self.tau_rule.strip().lower()
        named = {"h2": h * h, "2h2": 2 * h * h, "4h2": 4 * h * h}
        if rule in named:
            return named[rule]
        try:
            tau = float(rule)
        except ValueError as exc:
            raise ConfigError(
                f"tau must be a number or one of h2/2h2/4h2, got {self.tau_rule!r}"
            ) from exc
        if not tau > 0:
            raise ConfigError("tau must be positive")
        return tau


def _parse_scalar(raw: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def load_config_file(path: str) -> dict:
    """Flat key=value configuration, '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key in ("sizes", "multipliers"):
                values[key] = tuple(_parse_scalar(v) for v in raw.split(","))
            elif key in ("scheme", "tau_rule", "out"):
                values[key] = raw.strip()
            else:
                values[key] = _parse_scalar(raw)
    return values


def config_hash(cfg: RunConfig, extra: dict | None = None) -> str:
    # the output directory does not influence results, so it stays out of
    # the hash: the hash identifies the study, not its location
    items = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "out"}
    if extra:
        items.update(extra)
    canon = "\n".join(f"{k}={items[k]!r}" for k in sorted(items))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _run_cell(mesh, scheme: str, tau: float, cfg: RunConfig, linear_tol: float | None = None):
    """Run one transient of the benchmark on ``mesh``; a bad cell is a ConfigError."""
    overrides = {"supg_scale": cfg.supg_scale}
    if linear_tol is not None:
        overrides["linear_tol"] = linear_tol
    scfg = manufactured.scheme_config(scheme, **overrides)
    try:
        tc = manufactured.transient_problem(
            T=cfg.T, tau=tau, eps=cfg.epsilon, max_iter=cfg.max_iter
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return run_transient(mesh, scfg, tc)


def run_convergence_study(cfg: RunConfig, sizes=None, out_path=None):
    """Errors at t = T and observed orders over successive mesh halvings."""
    sizes = tuple(sizes if sizes is not None else cfg.sizes)
    if len(sizes) < 2:
        raise ConfigError("convergence study needs at least two mesh sizes")
    out_path = out_path or os.path.join(cfg.out, "errors.csv")
    header = [
        "scheme", "h", "tau",
        "L2_u", "H1_u", "L2_p", "H1_p", "L2_n", "H1_n",
        "rate_L2_u", "rate_H1_u", "rate_L2_p", "rate_H1_p", "rate_L2_n", "rate_H1_n",
    ]
    hash_hex = config_hash(cfg, {"study": "converge", "sizes": sizes})
    rows = []
    failure = None
    prev = None
    for n in sizes:
        tau = cfg.resolve_tau(n)
        mesh = build_box_mesh(n, BOX_LO, BOX_HI)
        try:
            result = _run_cell(mesh, cfg.scheme, tau, cfg)
        except TransientAbortError as exc:
            failure = exc
            break
        errs = []
        for fieldname, dofs in (
            ("u", result.state.phi),
            ("p", result.state.p1),
            ("n", result.state.p2),
        ):
            errs.extend(manufactured.error_norms(mesh, dofs, fieldname, result.state.t))
        rates = [""] * 6
        if prev is not None:
            rates = [
                math.log2(prev_e / e) if e > 0 and prev_e > 0 else float("nan")
                for prev_e, e in zip(prev, errs)
            ]
        rows.append([cfg.scheme, 1.0 / n, tau, *errs, *rates])
        prev = errs
    write_csv(out_path, header, rows, hash_hex)
    if failure is not None:
        raise failure
    return rows


def run_contraction_study(cfg: RunConfig, multipliers=None, out_path=None):
    """Mean contraction factor per scheme and step size, plus halving rates."""
    multipliers = tuple(multipliers if multipliers is not None else cfg.multipliers)
    if not multipliers:
        raise ConfigError("contraction study needs at least one tau multiplier")
    out_path = out_path or os.path.join(cfg.out, "contraction.csv")
    header = ["scheme", "tau", "alpha_bar", "rate"]
    hash_hex = config_hash(cfg, {"study": "contract", "multipliers": multipliers})
    rows = []
    failure = None
    h2 = (1.0 / cfg.n) ** 2
    mesh = build_box_mesh(cfg.n, BOX_LO, BOX_HI)
    for scheme in ("fem", "supg", "eafe"):
        prev_alpha = None
        for mult in multipliers:
            tau = mult * h2
            try:
                # tight inner solves; the trailing ratios still sit at the
                # solver's resolution (see the gummel module docstring)
                result = _run_cell(mesh, scheme, tau, cfg, linear_tol=1e-12)
            except TransientAbortError as exc:
                failure = exc
                break
            alpha = contraction_stats(result.reports).alpha_bar
            rate = prev_alpha / alpha if prev_alpha is not None and alpha > 0 else ""
            rows.append([scheme, tau, alpha, rate])
            prev_alpha = alpha
        if failure is not None:
            break
    write_csv(out_path, header, rows, hash_hex)
    if failure is not None:
        raise failure
    return rows


def run_mmatrix_audit(cfg: RunConfig, out_path=None):
    """Per-step, per-species matrix structure audit of one transient run."""
    out_path = out_path or os.path.join(cfg.out, "audit.csv")
    header = [
        "step", "t", "species",
        "omega_positive_fraction", "omega_strict", "omega_weak",
        "mmatrix_ok", "tau_star",
    ]
    tau = cfg.resolve_tau(cfg.n)
    hash_hex = config_hash(cfg, {"study": "audit", "tau": tau})
    mesh = build_box_mesh(cfg.n, BOX_LO, BOX_HI)
    quality = mesh_quality_report(mesh)
    rows = []
    failure = None
    try:
        diagnostics = _run_cell(mesh, cfg.scheme, tau, cfg).diagnostics
    except TransientAbortError as exc:
        failure = exc
        diagnostics = exc.partial.diagnostics
    for d in diagnostics:
        for species, ok in ((1, d.mmatrix_ok_p1), (2, d.mmatrix_ok_p2)):
            rows.append(
                [
                    d.step, d.t, species,
                    quality.positive_fraction,
                    quality.all_strictly_positive,
                    quality.weak_condition,
                    ok, d.tau_star,
                ]
            )
    write_csv(out_path, header, rows, hash_hex)
    if failure is not None:
        raise failure
    return rows


def _cmd_run(cfg: RunConfig) -> int:
    tau = cfg.resolve_tau(cfg.n)
    hash_hex = config_hash(cfg, {"study": "run", "tau": tau})
    out_path = os.path.join(cfg.out, "history.csv")
    try:
        result = _run_cell(build_box_mesh(cfg.n, BOX_LO, BOX_HI), cfg.scheme, tau, cfg)
    except TransientAbortError as exc:
        write_history(exc.partial, out_path, hash_hex)
        raise
    write_history(result, out_path, hash_hex)
    return 0


def _cmd_mesh(cfg: RunConfig) -> int:
    mesh = build_box_mesh(cfg.n, BOX_LO, BOX_HI)
    dump_mesh(mesh, os.path.join(cfg.out, "mesh.txt"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpfem",
        description="Coupled potential/carrier transport studies on the built-in benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("converge", "mesh-refinement error study"),
        ("contract", "contraction factor study over step sizes"),
        ("audit", "M-matrix and positivity audit"),
        ("run", "single transient run with history dump"),
        ("mesh", "write the mesh as plain text"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--scheme", choices=("fem", "supg", "eafe"))
        p.add_argument("--n", type=int, help="subdivisions per axis (h = 1/n)")
        p.add_argument("--tau", dest="tau_rule", help="time step: number or h2/2h2/4h2")
        p.add_argument("--T", type=float, help="final time")
        p.add_argument("--eps", dest="epsilon", type=float, help="iteration tolerance")
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--supg-scale", dest="supg_scale", type=float)
        p.add_argument("--out", help="output directory")
        if name == "converge":
            p.add_argument("--sizes", type=int, nargs="+", help="mesh sizes (>= 2)")
        if name == "contract":
            p.add_argument(
                "--multipliers", type=float, nargs="+", help="tau multipliers of h^2"
            )
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        file_values = load_config_file(args.config)
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **file_values)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            if f.name in ("sizes", "multipliers"):
                value = tuple(value)
            cfg = replace(cfg, **{f.name: value})
    try:
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        os.makedirs(cfg.out, exist_ok=True)
        if args.command == "converge":
            run_convergence_study(cfg)
        elif args.command == "contract":
            run_contraction_study(cfg)
        elif args.command == "audit":
            run_mmatrix_audit(cfg)
        elif args.command == "run":
            _cmd_run(cfg)
        elif args.command == "mesh":
            _cmd_mesh(cfg)
        return 0
    except ConfigError as exc:
        print(f"pnpfem: configuration error: {exc}", file=sys.stderr)
        return 2
    except TransientAbortError as exc:
        print(f"pnpfem: solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"pnpfem: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
