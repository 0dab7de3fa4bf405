"""Command-line front end: solve, verify, propagate, gradcheck, catalog.

Exit codes: 0 on success (solve requires convergence), 2 when the solver
stops without converging, 1 on any configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import problems, reporting
from . import transcription as tr
from .errors import (
    DomainError, EmptyEnsembleError, ParameterError, PropagationError, ShapeMismatchError,
)
from .grids import control_times, uniform_plan
from .integrators import StepScheme
from .models import (
    ChebyshevReactionDiffusion,
    FixedWingUav,
    UgvBicycle,
    UgvDifferentialDrive,
)
from .pontryagin import verify
from .sampling import (
    Dirac, Normal, RandomInputSpec, SphericalShell, Uniform, _seeded_generator,
)
from .solver import SolveStatus, SolverConfig, solve
from .transcription import CostSpec, OcProblem, PathBound


class ConfigError(ValueError):
    pass


_MODEL_BUILDERS = {
    "ugv_differential_drive": lambda p: UgvDifferentialDrive(
        random_radius=bool(p.get("random_radius", False)),
        radius=float(p.get("radius", 1.25)),
    ),
    "ugv_bicycle": lambda p: UgvBicycle(wheelbase=float(p.get("wheelbase", 1.0))),
    "fixed_wing_uav": lambda p: FixedWingUav(),
    "chebyshev_reaction_diffusion": lambda p: ChebyshevReactionDiffusion(
        n_nodes=int(p.get("n_nodes", 64))
    ),
}

_DISTRIBUTIONS = {
    "dirac": lambda d: Dirac(float(d["value"])),
    "uniform": lambda d: Uniform(float(d["lo"]), float(d["hi"])),
    "normal": lambda d: Normal(float(d["mean"]), float(d["stddev"])),
    "spherical_shell": lambda d: SphericalShell(float(d["r_max"])),
}


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return mapping[key]


def load_problem_file(path) -> OcProblem:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read problem file {path}: {err}") from err

    model_doc = _require(doc, "model", "problem file")
    model_type = _require(model_doc, "type", "model")
    if model_type not in _MODEL_BUILDERS:
        raise ConfigError(f"model.type {model_type!r} unknown")
    model = _MODEL_BUILDERS[model_type](model_doc)

    try:
        plan = uniform_plan(
            float(_require(doc, "t_f", "problem file")),
            int(doc.get("segments", 1)),
            float(_require(doc, "dt", "problem file")),
        )
        scheme = StepScheme(str(doc.get("scheme", "rk4")))
        comps = []
        for i, d in enumerate(_require(doc, "initial", "problem file")):
            dist = _require(d, "dist", f"initial[{i}]")
            if dist not in _DISTRIBUTIONS:
                raise ConfigError(f"initial[{i}].dist {dist!r} unknown")
            comps.append(_DISTRIBUTIONS[dist](d))
        cost_doc = _require(doc, "cost", "problem file")
        cost = CostSpec(
            terminal_weights=np.asarray(_require(cost_doc, "terminal_weights", "cost"), float),
            terminal_target=np.asarray(_require(cost_doc, "terminal_target", "cost"), float),
            control_energy=float(cost_doc.get("control_energy", 0.0)),
            running_weights=(
                np.asarray(cost_doc["running_weights"], float)
                if cost_doc.get("running_weights") is not None
                else None
            ),
        )
        bounds_doc = _require(doc, "control_bounds", "problem file")
        path_bounds = tuple(
            PathBound(int(_require(b, "state_index", "path_bounds")),
                      float(b.get("lo", -np.inf)), float(b.get("hi", np.inf)))
            for b in doc.get("path_bounds", [])
        )
        return OcProblem(
            model=model,
            plan=plan,
            scheme=scheme,
            initial=RandomInputSpec(tuple(comps)),
            M=int(doc.get("M", 1)),
            cost=cost,
            control_lo=np.asarray(_require(bounds_doc, "lo", "control_bounds"), float),
            control_hi=np.asarray(_require(bounds_doc, "hi", "control_bounds"), float),
            path_bounds=path_bounds,
            seed=int(doc.get("seed", 0)),
        )
    except KeyError as err:
        raise ConfigError(f"missing required key {err.args[0]!r}") from err
    except (ParameterError, ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err


def _build_problem(args) -> tuple[OcProblem, str]:
    if bool(args.problem) == bool(args.problem_file):
        raise ConfigError("exactly one of --problem or --problem-file is required")
    if args.problem_file:
        fixed = [
            flag
            for flag, value in (("--dt", args.dt), ("--segments", args.segments),
                                ("--t-f", args.t_f), ("--n-nodes", args.n_nodes))
            if value is not None
        ]
        if fixed:
            raise ConfigError(
                f"{', '.join(fixed)} cannot override a --problem-file problem; "
                "set the grid in the file"
            )
        problem = load_problem_file(args.problem_file)
        source = str(args.problem_file)
        if args.M is not None:
            problem = problem.replace(M=args.M)
        if args.seed is not None:
            problem = problem.replace(seed=args.seed)
        return problem, source
    problem = problems.build(
        args.problem,
        M=args.M,
        seed=args.seed if args.seed is not None else 0,
        dt=args.dt,
        segments=args.segments,
        t_f=args.t_f,
        n_nodes=args.n_nodes,
    )
    return problem, args.problem


def _solver_config(args) -> SolverConfig:
    kw = {}
    if args.tol is not None:
        kw["inner_tol"] = args.tol
        kw["outer_tol"] = args.tol
    if args.max_iters is not None:
        kw["max_inner"] = args.max_iters
    return SolverConfig(**kw)


def _read_controls(path, plan):
    """The --controls schedule; I/O and shape errors are named apart."""
    try:
        return reporting.read_controls_csv(path, plan)
    except OSError as err:
        raise ConfigError(f"cannot read controls file {path}: {err}") from err
    except Exception as err:
        raise ConfigError(
            f"controls file does not match the plan "
            f"(expected {plan.total_steps} rows): {err}"
        ) from err


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    problem, source = _build_problem(args)
    config = _solver_config(args)
    out = _outdir(args)
    log_lines = []
    report = solve(problem, config=config, log=log_lines.append)
    schedule = report.point.schedule(problem.plan)
    reporting.write_controls_csv(out / "controls.csv", problem.plan, schedule)
    segs = tr.forward_pass(problem, report.point)
    reporting.write_ensemble_stats_csv(out / "ensemble_stats.csv", problem.plan, segs)
    reporting.write_report_json(out / "report.json", report, problem, source)
    (out / "solve_log.txt").write_text("\n".join(log_lines) + "\n")
    print(
        f"status={report.status.value} objective={report.objective:.6g} "
        f"continuity={report.continuity_residual:.3e} "
        f"iterations={report.inner_iterations}"
    )
    return 0 if report.status == SolveStatus.converged else 2


def cmd_verify(args) -> int:
    problem, _ = _build_problem(args)
    schedule = _read_controls(args.controls, problem.plan)
    out = _outdir(args)
    report = verify(problem, schedule, M_verify=args.M, seed=args.seed)
    report.to_csv(out / "pmp_report.csv")
    with open(out / "pmp_summary.json", "w") as fh:
        json.dump(report.summary(), fh, indent=2)
        fh.write("\n")
    print(
        f"max_discrepancy={report.max_discrepancy:.6g} "
        f"mean_discrepancy={report.mean_discrepancy:.6g} passed={report.passed}"
    )
    return 0


def cmd_propagate(args) -> int:
    problem, _ = _build_problem(args)
    schedule = _read_controls(args.controls, problem.plan) if args.controls else None
    out = _outdir(args)
    point = tr.default_start(problem, schedule)
    segs = tr.forward_pass(problem, point)
    reporting.write_ensemble_stats_csv(out / "ensemble_stats.csv", problem.plan, segs)
    value = tr.evaluate_objective(problem, point, segs)
    print(f"objective={value:.9g}")
    return 0


def cmd_gradcheck(args) -> int:
    problem, _ = _build_problem(args)
    out = _outdir(args)
    rng = _seeded_generator(problem.seed)
    lo = np.where(np.isfinite(problem.control_lo), problem.control_lo, -1.0)
    hi = np.where(np.isfinite(problem.control_hi), problem.control_hi, 1.0)
    blocks = tuple(
        rng.uniform(lo, hi, size=(seg.steps, problem.model.m))
        for seg in problem.plan.segments
    )
    schedule = tr.ControlSchedule(problem.plan, blocks)
    point = tr.NlpPoint(blocks, tr.default_start(problem, schedule).interface_states)
    _, grad = tr.objective_gradient(problem, point)
    fd = tr.fd_objective_gradient(problem, point)
    exact = np.concatenate([g.ravel() for g in grad.controls])
    approx = np.concatenate([g.ravel() for g in fd.controls])
    err = np.abs(exact - approx)
    times = control_times(problem.plan)
    m = problem.model.m
    rows = []
    for c in range(err.size):
        j, ch = divmod(c, m)
        rows.append([times[j], ch + 1, exact[c], approx[c], err[c]])
    reporting._write_rows(
        out / "gradcheck.csv", ["t", "channel", "backward", "fd", "abs_error"], rows
    )
    summary = {
        "max_abs_error": float(err.max()),
        "n_coordinates": int(err.size),
        "tolerance": 1e-5,
        "passed": bool(err.max() <= 1e-5),
    }
    with open(out / "gradcheck_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"max_abs_error={summary['max_abs_error']:.3e} passed={summary['passed']}")
    return 0 if summary["passed"] else 2


def cmd_catalog(_args) -> int:
    for pid, desc in problems.catalog().items():
        print(f"{pid:16s} {desc}")
    return 0


def _add_common(p: argparse.ArgumentParser, need_out=True):
    p.add_argument("--problem", help="catalog problem id")
    p.add_argument("--problem-file", help="path to a JSON problem definition")
    p.add_argument("--M", type=int, default=None, help="override sample count")
    p.add_argument("--seed", type=int, default=None, help="override seed")
    p.add_argument("--dt", type=float, default=None, help="override step size")
    p.add_argument("--segments", type=int, default=None, help="override segment count")
    p.add_argument("--t-f", dest="t_f", type=float, default=None, help="override horizon length")
    p.add_argument("--n-nodes", type=int, default=None, help="override spatial nodes (pde problems)")
    p.add_argument("--tol", type=float, default=None, help="solver tolerance")
    p.add_argument("--max-iters", type=int, default=None, help="max inner iterations per outer round")
    if need_out:
        p.add_argument("--out", required=True, help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ensemble-oc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem and export artifacts")
    _add_common(p_solve)

    p_verify = sub.add_parser("verify", help="minimum-principle check of a solved control")
    _add_common(p_verify)
    p_verify.add_argument("--controls", required=True, help="controls.csv from a prior solve")

    p_prop = sub.add_parser("propagate", help="propagate the ensemble and export statistics")
    _add_common(p_prop)
    p_prop.add_argument("--controls", default=None, help="controls.csv to apply (default zero)")

    p_grad = sub.add_parser("gradcheck", help="backward-vs-finite-difference gradient table")
    _add_common(p_grad)

    p_cat = sub.add_parser("catalog", help="list built-in problems")
    p_cat.set_defaults(func=cmd_catalog)

    p_solve.set_defaults(func=cmd_solve)
    p_verify.set_defaults(func=cmd_verify)
    p_prop.set_defaults(func=cmd_propagate)
    p_grad.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, PropagationError, DomainError,
            ShapeMismatchError, EmptyEnsembleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
