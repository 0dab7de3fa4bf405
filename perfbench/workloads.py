"""The benchmark's workloads: what each one sets up, runs and checks.

A workload is a `setup(seed, size)` that builds its problems and inputs, and
a `run_round(state, rec)` that runs its phases once, in order, through the
round recorder `rec`. Every solve, verify, exact gradient and
finite-difference check is one operation; it fails when it raises or misses
its correctness check.

Every library call goes through a module attribute (`solver.solve`, not a
name imported into this file), so that the tracer's wrappers see it.

The solves run on a fixed iteration budget: a converged vehicle study takes
60-80 s on a 2-core machine, several times a benchmark run. The budget keeps
every solver stage (barrier rounds, penalty updates, polish) and the step
counts, so each workload keeps the layer that dominates it.
"""

from __future__ import annotations

import numpy as np

from ensemble_oc import pontryagin, problems, reporting, solver
from ensemble_oc import transcription as tr
from ensemble_oc.grids import ControlSchedule
from ensemble_oc.integrators import StepScheme

FD_TOL = 1e-5  # criterion 1, also used as the relative bound of directional checks
RATIO_TOL = 0.8  # criterion 4: optimized over nominal-control terminal cost
DETECT_TOL = 0.4  # criterion 5: a perturbed control must show this discrepancy

SIZES = {
    "ugv-study": {
        "full": dict(M=20, dt=None, max_inner=10, max_outer=1, polish_max_inner=15),
        "tiny": dict(M=3, dt=0.25, max_inner=10, max_outer=1, polish_max_inner=15),
    },
    "pde-field": {
        "full": dict(n_nodes=16, M=25, dt=0.002, t_f=None, max_inner=3),
        "tiny": dict(n_nodes=8, M=4, dt=0.002, t_f=0.4, max_inner=2),
    },
    "gradient-suite": {
        "full": dict(bicycle_t_f=None, uav_M=50, uav_t_f=None, pde_M=12,
                     pde_t_f=0.8, ab2_M=5000),
        "tiny": dict(bicycle_t_f=5.0, uav_M=4, uav_t_f=3.0, pde_M=3,
                     pde_t_f=0.008, ab2_M=50),
    },
}

# the acceptance tests' seeds: criteria 4/5, criterion 7 companion, criterion 1
DEFAULT_SEEDS = {"ugv-study": 42, "pde-field": 9, "gradient-suite": 11}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _unit_direction(rng, size):
    d = rng.standard_normal(size)
    return d / np.linalg.norm(d)


def _terminal_cost(problem, point):
    """Ensemble-mean squared distance to the target (3, 3), as in criterion 4."""
    terminal = tr.forward_pass(problem, point)[-1][-1]
    return float(np.mean((terminal[:, 0] - 3.0) ** 2 + (terminal[:, 1] - 3.0) ** 2))


# ---------------------------------------------------------------------------
# operations shared by the workloads
# ---------------------------------------------------------------------------


def solve_op(rec, name, problem, start, config, extra_check=None):
    """One solve; it must end without a failure status and lower the objective.

    extra_check(op, report) adds the caller's own checks to the operation.
    """
    with rec.op("solve", name) as op:
        report = rec.timed("solve", solver.solve, problem, initial_guess=start, config=config)
        start_value = tr.evaluate_objective(problem, start)
        op.fact(status=report.status.value, objective=report.objective,
                inner=report.inner_iterations, outer=report.outer_iterations)
        op.check(report.status in (solver.SolveStatus.converged,
                                   solver.SolveStatus.iteration_limit),
                 f"status {report.status.value}")
        op.check(report.objective < start_value,
                 f"objective {report.objective!r} not below its start {start_value!r}")
        if extra_check is not None:
            extra_check(op, report)
    return report


def verify_op(rec, name, problem, values, detect=False):
    """One minimum-principle verification of the stacked controls `values`.

    The report must be finite, its minimizer inside the control box, and its
    discrepancy the distance between candidate and minimizer. With `detect`
    the candidate is a perturbed control and must show a max discrepancy of
    at least DETECT_TOL.
    """
    schedule = ControlSchedule.from_stacked(problem.plan, values)
    with rec.op("verify", name) as op:
        pmp = rec.timed("verify", pontryagin.verify, problem, schedule)
        op.fact(mean_discrepancy=pmp.mean_discrepancy, max_discrepancy=pmp.max_discrepancy)
        op.check(bool(np.all(np.isfinite(pmp.minimizer))), "non-finite minimizer")
        op.check(bool(np.all(pmp.minimizer >= problem.control_lo)
                      and np.all(pmp.minimizer <= problem.control_hi)),
                 "minimizer outside the control box")
        op.check(np.array_equal(pmp.candidate, values), "candidate rows differ from the input")
        gap = np.max(np.abs(pmp.candidate - pmp.minimizer), axis=1)
        op.check(np.array_equal(gap, pmp.discrepancy), "discrepancy is not |candidate - minimizer|")
        if detect:
            op.check(pmp.max_discrepancy >= DETECT_TOL,
                     f"perturbation not detected: max discrepancy {pmp.max_discrepancy:.3f}")
    return pmp


def gradient_op(rec, name, problem, point, expected_value=None):
    """One exact objective gradient; finite, and at a solved point its value
    must equal the solve's objective."""
    with rec.op("gradient", name) as op:
        value, grad = rec.timed("gradient", tr.objective_gradient, problem, point)
        flat = grad.to_vector()
        op.fact(value=value, grad_norm=float(np.linalg.norm(flat)))
        op.check(bool(np.all(np.isfinite(flat))), "non-finite gradient")
        if expected_value is not None:
            op.check(abs(value - expected_value) <= 1e-12 * abs(expected_value),
                     f"objective {value!r} != solve objective {expected_value!r}")
    return grad


def directional_fd_op(rec, name, problem, point, grad, direction):
    """Two-point central difference along a seeded unit direction d.

    The error |fd - <g, d>| is taken relative to |g| |d|, the largest
    directional derivative, so a direction nearly orthogonal to g does not
    inflate it.
    """
    x = point.to_vector()
    g = grad.to_vector()
    h = 1e-5 * (1.0 + float(np.max(np.abs(x))))

    def objective(v):
        return tr.evaluate_objective(problem, tr.NlpPoint.from_vector(problem, v))

    with rec.op("fd_check", name) as op:
        plus = rec.timed("fd_check", objective, x + h * direction)
        minus = rec.timed("fd_check", objective, x - h * direction)
        fd = (plus - minus) / (2.0 * h)
        err = abs(fd - float(g @ direction)) / float(np.linalg.norm(g))
        op.fact(directional_fd=fd, rel_error=err)
        op.check(err <= FD_TOL, f"directional derivative off by {err:.2e} relative")


def export(rec, problem, report, source):
    """The artifacts `ensemble-oc solve` writes, through `reporting`."""
    out = rec.artifact_dir
    schedule = report.point.schedule(problem.plan)
    reporting.write_controls_csv(out / "controls.csv", problem.plan, schedule)
    reporting.write_ensemble_stats_csv(
        out / "ensemble_stats.csv", problem.plan, tr.forward_pass(problem, report.point)
    )
    reporting.write_report_json(out / "report.json", report, problem, source)


# ---------------------------------------------------------------------------
# ugv-study: the vehicle study pipeline
# ---------------------------------------------------------------------------


def ugv_setup(seed, size):
    stochastic = problems.build("ugv-stochastic", M=size["M"], seed=seed, dt=size["dt"])
    config = solver.SolverConfig(
        inner_tol=1e-6, outer_tol=1e-6, max_inner=size["max_inner"],
        max_outer=size["max_outer"], polish_max_inner=size["polish_max_inner"],
    )
    return {
        "nominal": problems.build("ugv-nominal", dt=size["dt"]),
        "stochastic": stochastic,
        "config": config,
        "direction": _unit_direction(_rng(seed, 1), tr.nlp_dimension(stochastic)),
    }


def ugv_round(st, rec):
    nominal_problem, problem, config = st["nominal"], st["stochastic"], st["config"]
    nominal = solve_op(rec, "ugv-nominal", nominal_problem,
                       tr.default_start(nominal_problem), config)
    guess = tr.default_start(problem, nominal.point.schedule(nominal_problem.plan))

    def improves_on_nominal(op, report):
        ratio = _terminal_cost(problem, report.point) / _terminal_cost(problem, guess)
        op.fact(terminal_cost_ratio=ratio)
        op.check(ratio <= RATIO_TOL, f"terminal-cost ratio {ratio:.3f} > {RATIO_TOL}")

    report = solve_op(rec, "ugv-stochastic", problem, guess, config, improves_on_nominal)

    values = report.point.schedule(problem.plan).stacked()
    verify_op(rec, "ugv-stochastic", problem, values)
    perturbed = values.copy()
    perturbed[: perturbed.shape[0] // 2, 0] += 0.5
    verify_op(rec, "ugv-stochastic perturbed", problem, perturbed, detect=True)

    grad = gradient_op(rec, "ugv-stochastic", problem, report.point, report.objective)
    directional_fd_op(rec, "ugv-stochastic", problem, report.point, grad, st["direction"])
    export(rec, problem, report, "ugv-stochastic")


# ---------------------------------------------------------------------------
# pde-field: the Chebyshev reaction-diffusion field
# ---------------------------------------------------------------------------


def pde_setup(seed, size):
    problem = problems.build("pde-stochastic", n_nodes=size["n_nodes"], M=size["M"],
                             dt=size["dt"], t_f=size["t_f"], seed=seed)
    return {
        "problem": problem,
        "start": tr.default_start(problem),
        # one outer round at the study's tolerance: the budget binds first
        "config": solver.SolverConfig(inner_tol=1e-5, outer_tol=1e-5,
                                      max_inner=size["max_inner"], max_outer=1),
        "direction": _unit_direction(_rng(seed, 1), tr.nlp_dimension(problem)),
    }


def pde_round(st, rec):
    problem = st["problem"]
    report = solve_op(rec, "pde-stochastic", problem, st["start"], st["config"])
    verify_op(rec, "pde-stochastic", problem, report.point.schedule(problem.plan).stacked())
    grad = gradient_op(rec, "pde-stochastic", problem, report.point, report.objective)
    directional_fd_op(rec, "pde-stochastic", problem, report.point, grad, st["direction"])
    export(rec, problem, report, "pde-stochastic")


# ---------------------------------------------------------------------------
# gradient-suite: one exact gradient per model and scheme, no solver
# ---------------------------------------------------------------------------


def gradient_setup(seed, size):
    """Cases as (name, problem, point, check): check is "batched" for the
    coordinate-wise FD of criterion 1, "directional" otherwise, and
    "directional+verify" where the minimum-principle sweep also runs."""
    cases = []

    bicycle = problems.build("ugv-bicycle", seed=seed, t_f=size["bicycle_t_f"])
    rng = np.random.Generator(np.random.Philox(bicycle.seed))  # criterion 1 controls
    controls = rng.uniform(-1.0, 1.0, (bicycle.plan.total_steps, 2))
    cases.append(("ugv-bicycle", bicycle, tr.NlpPoint((controls,), ()), "batched"))

    uav = problems.build("uav-stochastic", M=size["uav_M"], seed=seed, t_f=size["uav_t_f"])
    # zero control: random controls inside the box can drive |gamma| past pi/2
    cases.append(("uav-stochastic", uav, tr.default_start(uav), "directional+verify"))

    pde = problems.build("pde-stochastic", n_nodes=32, M=size["pde_M"], dt=1.6e-4,
                         t_f=size["pde_t_f"], seed=seed)
    u = _rng(seed, 2).uniform(-1.0, 1.0, (pde.plan.total_steps, 1))
    cases.append(("pde-stochastic-32", pde,
                  tr.default_start(pde, ControlSchedule.from_stacked(pde.plan, u)),
                  "directional"))

    ab2 = problems.build("ugv-stochastic", M=size["ab2_M"], seed=seed).replace(
        scheme=StepScheme("ab2"))
    u = _rng(seed, 3).uniform(-0.5, 0.5, (ab2.plan.total_steps, 2))
    cases.append(("ugv-stochastic-ab2", ab2,
                  tr.default_start(ab2, ControlSchedule.from_stacked(ab2.plan, u)),
                  "directional"))

    directions = [_unit_direction(_rng(seed, 10 + k), tr.nlp_dimension(case[1]))
                  for k, case in enumerate(cases)]
    return {"cases": cases, "directions": directions}


def gradient_round(st, rec):
    for (name, problem, point, check), direction in zip(st["cases"], st["directions"]):
        grad = gradient_op(rec, name, problem, point)
        if check == "batched":
            with rec.op("fd_check", name) as op:
                fd = rec.timed("fd_check", tr.fd_objective_gradient, problem, point)
                err = float(np.max(np.abs(grad.controls[0] - fd.controls[0])))
                op.fact(max_abs_error=err)
                op.check(err <= FD_TOL, f"max |exact - fd| = {err:.2e} > {FD_TOL}")
        else:
            directional_fd_op(rec, name, problem, point, grad, direction)
        if check.endswith("+verify"):
            verify_op(rec, name, problem, point.schedule(problem.plan).stacked())
        reporting.write_controls_csv(
            rec.artifact_dir / f"{name}_gradient.csv", problem.plan, grad.schedule(problem.plan)
        )


WORKLOADS = {
    "ugv-study": (ugv_setup, ugv_round),
    "pde-field": (pde_setup, pde_round),
    "gradient-suite": (gradient_setup, gradient_round),
}


def problems_of(state) -> list:
    """Every problem a workload state holds, for wrapping their models."""
    if "cases" in state:
        return [case[1] for case in state["cases"]]
    return [v for v in state.values() if isinstance(v, tr.OcProblem)]
