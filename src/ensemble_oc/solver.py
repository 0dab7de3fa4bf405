"""Constrained minimization of the transcribed program.

Inequalities (control boxes, ensemble-mean path bounds) enter through a
logarithmic barrier with a shrinking coefficient; the aggregated continuity
equality enters through an augmented quadratic penalty. One outer loop runs
the barrier/penalty rounds for every merit: the multi-shooting program, the
single-shooting polish (one round on the reduced merit) and `minimize_box`.
Inner iterations are limited-memory quasi-Newton steps with Armijo
backtracking and a fraction-to-boundary cap that keeps every iterate
strictly inside the bounds. Each trial point costs one forward pass; the
accepted trial's gradient is one backward sweep over the trajectory that
pass stored, so no point is propagated twice. The polish evaluates points
without interface states, which the transcription reads as the continuous
trajectory; the merit code is the same for both layouts. `SolverConfig`
holds the tolerances and iteration budgets; the barrier, penalty and
line-search constants are fixed at module level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError, PropagationError, ShapeMismatchError
from . import transcription as tr
from .transcription import NlpPoint, OcProblem


class BarrierInfeasible(ValueError):
    """Point touches or crosses a barrier bound; the caller shortens the step."""


def barrier_value_and_gradient(x: np.ndarray, lo, hi, mu: float):
    """Log-barrier -mu * sum(log(x - lo) + log(hi - x)) over finite bound sides."""
    x = np.asarray(x, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    value = 0.0
    grad = np.zeros_like(x)
    fin_lo = np.isfinite(lo)
    fin_hi = np.isfinite(hi)
    if np.any(fin_lo):
        d = x[fin_lo] - lo[fin_lo]
        if np.any(d <= 0):
            raise BarrierInfeasible("lower bound touched")
        value -= mu * float(np.log(d).sum())
        grad[fin_lo] -= mu / d
    if np.any(fin_hi):
        d = hi[fin_hi] - x[fin_hi]
        if np.any(d <= 0):
            raise BarrierInfeasible("upper bound touched")
        value -= mu * float(np.log(d).sum())
        grad[fin_hi] += mu / d
    return value, grad


class SolveStatus(str, Enum):
    converged = "Converged"
    iteration_limit = "IterationLimit"
    line_search_failure = "LineSearchFailure"


# barrier coefficient mu: first value, factor per round, floor
_BARRIER_MU0 = 1.0
_BARRIER_REDUCTION = 0.1
_MU_MIN = 1e-10
# continuity penalty rho: first value, growth while the residual stalls, cap
_PENALTY_RHO0 = 10.0
_PENALTY_GROWTH = 10.0
_PENALTY_RHO_MAX = 1e8
# the inner tolerance of a round is at least this multiple of its mu
_INNER_TOL_SCALE = 0.1
# L-BFGS pairs kept, Armijo constant, backtracking factor, trials per step,
# and the share of the distance to the nearest bound a step may take
_MEMORY = 20
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_MAX_LINESEARCH = 40
_BOUNDARY_FRACTION = 0.995


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration budgets. polish_max_inner budgets the final
    controls-only round along continuous propagation, which restores exact
    interface continuity and tightens control stationarity."""

    inner_tol: float = 1e-6
    outer_tol: float = 1e-6
    max_inner: int = 120
    max_outer: int = 12
    polish_max_inner: int = 400

    def __post_init__(self):
        for name in ("inner_tol", "outer_tol"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.max_outer < 1:
            raise ParameterError("max_outer must be at least 1")


@dataclass(frozen=True)
class OuterRecord:
    outer: int
    mu: float
    rho: float
    nu: float
    merit: float
    objective: float
    continuity: float
    grad_inf: float
    inner_iterations: int


@dataclass(frozen=True)
class SolveReport:
    point: NlpPoint
    objective: float
    continuity_residual: float
    max_bound_violation: float
    grad_inf: float
    outer_iterations: int
    inner_iterations: int
    status: SolveStatus
    history: tuple[OuterRecord, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# L-BFGS inner loop
# ---------------------------------------------------------------------------


def _two_loop(grad, mem):
    q = grad.copy()
    alphas = []
    for s, y, r in reversed(mem):
        a = r * np.dot(s, q)
        q -= a * y
        alphas.append(a)
    if mem:
        s, y, _ = mem[-1]
        q *= np.dot(s, y) / np.dot(y, y)
    for (s, y, r), a in zip(mem, reversed(alphas)):
        b = r * np.dot(y, q)
        q += (a - b) * s
    return q


def _max_step(x, d, lo, hi, frac):
    alpha = math.inf
    up = (d > 0) & np.isfinite(hi)
    if np.any(up):
        alpha = min(alpha, frac * np.min((hi[up] - x[up]) / d[up]))
    dn = (d < 0) & np.isfinite(lo)
    if np.any(dn):
        alpha = min(alpha, frac * np.min((lo[dn] - x[dn]) / d[dn]))
    return alpha


def _lbfgs_inner(value, gradient, x, lo, hi, tol, cfg, log=None, label="", extra=None):
    """Minimize a smooth merit inside the box; returns the final iterate.

    value(x) -> (merit, evaluation) runs at each trial point and gradient(
    evaluation) -> (grad, objective, residual) only at the accepted one.
    Every accepted step satisfies the Armijo sufficient-decrease condition,
    and the fraction-to-boundary cap keeps iterates strictly interior.
    """
    f, ev = value(x)
    if not np.isfinite(f):
        raise ParameterError("merit not finite at the inner start point")
    g, obj, cres = gradient(ev)
    ev = None  # an evaluation holds a trajectory: release each once spent
    mem: list[tuple[np.ndarray, np.ndarray, float]] = []
    iters = 0
    status = "maxiter"
    for _ in range(cfg.max_inner):
        ginf = float(np.max(np.abs(g))) if g.size else 0.0
        if ginf <= tol:
            status = "converged"
            break
        d = -_two_loop(g, mem)
        slope = float(np.dot(g, d))
        if slope >= 0.0:
            d = -g
            slope = -float(np.dot(g, g))
            mem.clear()
        alpha = min(1.0, _max_step(x, d, lo, hi, _BOUNDARY_FRACTION))
        accepted = False
        for _ in range(_MAX_LINESEARCH):
            trial = x + alpha * d
            f_trial, ev = value(trial)
            if np.isfinite(f_trial) and f_trial <= f + _ARMIJO * alpha * slope:
                accepted = True
                break
            ev = None
            alpha *= _BACKTRACK
        iters += 1
        if not accepted:
            status = "linesearch"
            break
        g_new, obj, cres = gradient(ev)
        ev = None
        s = trial - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            mem.append((s, y, 1.0 / sy))
            if len(mem) > _MEMORY:
                mem.pop(0)
        x, f, g = trial, f_trial, g_new
        if log is not None:
            gi = float(np.max(np.abs(g))) if g.size else 0.0
            tail = f"  {extra(obj, cres)}" if extra is not None else ""
            log(f"{label}inner {iters:4d}  merit={f: .9e}  grad_inf={gi:.3e}  step={alpha:.3e}{tail}")
    return x, f, g, status, iters, obj, cres


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    grad_inf: float
    status: SolveStatus
    inner_iterations: int
    outer_iterations: int


def minimize_box(func, x0, lo=None, hi=None, config: SolverConfig | None = None, log=None):
    """Barrier-path minimization of func(x) -> (value, grad) inside a box.

    func plus the box barrier is one merit of the outer loop that `solve`
    runs; with no finite bounds each round is a quasi-Newton restart.
    """
    cfg = config or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    lo = np.full_like(x, -np.inf) if lo is None else np.broadcast_to(
        np.asarray(lo, float), x.shape
    ).copy()
    hi = np.full_like(x, np.inf) if hi is None else np.broadcast_to(
        np.asarray(hi, float), x.shape
    ).copy()
    # the log barrier has no interior when lo == hi
    shut = np.flatnonzero(lo >= hi)
    if shut.size:
        raise ParameterError(f"box bounds need lo < hi, not so at index {shut.tolist()}")
    ev = _BoxMerit(func, lo, hi)
    mu = _BARRIER_MU0 if ev.has_ineq else 0.0
    x, status, history, _, _ = _outer_loop(
        ev, _pull_interior(x, lo, hi), mu, 0.0, 0.0, cfg, log, "", None
    )
    last = history[-1]
    inner = sum(r.inner_iterations for r in history)
    return MinimizeResult(x, last.merit, last.grad_inf, status, inner, len(history))


def _pull_interior(x, lo, hi, frac=1e-6):
    """Nudge coordinates off their bounds so barrier terms stay finite."""
    x = np.clip(x, lo, hi)
    both = np.isfinite(lo) & np.isfinite(hi)
    width = np.where(both, hi - lo, 1.0)
    pad = frac * np.where(both, width, 1.0)
    x = np.where(np.isfinite(lo) & (x - lo < pad), lo + pad, x)
    x = np.where(np.isfinite(hi) & (hi - x < pad), hi - pad, x)
    return x


# ---------------------------------------------------------------------------
# Transcribed-problem merit
# ---------------------------------------------------------------------------


def _path_barrier_terms(problem: OcProblem, means, mu: float):
    """Barrier value over ensemble-mean path bounds plus d(barrier)/d(mean)
    coefficients at every stored grid node."""
    value = 0.0
    coefs = [np.zeros_like(mn) for mn in means]
    for pb in problem.path_bounds:
        for k, mn in enumerate(means):
            v = mn[:, pb.state_index]
            if np.isfinite(pb.lo):
                d = v - pb.lo
                if np.any(d <= 0):
                    raise BarrierInfeasible(f"path bound lo on state {pb.state_index}")
                value -= mu * float(np.log(d).sum())
                coefs[k][:, pb.state_index] -= mu / d
            if np.isfinite(pb.hi):
                d = pb.hi - v
                if np.any(d <= 0):
                    raise BarrierInfeasible(f"path bound hi on state {pb.state_index}")
                value -= mu * float(np.log(d).sum())
                coefs[k][:, pb.state_index] += mu / d
    return value, coefs


class _MeritEvaluator:
    """Value and gradient of objective + path barrier + continuity penalty.

    `value` is one forward pass; `gradient` combines all seeds of that pass
    into a single backward sweep per segment (`transcription.merit_gradient`).

    The multi-shooting layout iterates over the controls and the interface
    states, in scaled coordinates: interface-state entries carry a sqrt(M)
    factor, which undoes the 1/M Monte Carlo weighting of their curvature
    and keeps the quasi-Newton conditioning independent of the sample count.
    The reduced layout (`reduced`) iterates over the controls only, as
    points without interface states.
    """

    reduced = False

    def __init__(self, problem: OcProblem):
        self.problem = problem
        plan = problem.plan
        lo_parts = [np.tile(problem.control_lo, (s.steps, 1)).ravel() for s in plan.segments]
        hi_parts = [np.tile(problem.control_hi, (s.steps, 1)).ravel() for s in plan.segments]
        n_iface = 0 if self.reduced else (plan.n_segments - 1) * problem.M * problem.model.n
        self.lo_vec = np.concatenate(lo_parts + [np.full(n_iface, -np.inf)])
        self.hi_vec = np.concatenate(hi_parts + [np.full(n_iface, np.inf)])
        self.n_controls = plan.total_steps * problem.model.m
        self.scale = np.ones(self.n_controls + n_iface)
        self.scale[self.n_controls :] = np.sqrt(problem.M)
        self.has_ineq = (
            bool(np.any(np.isfinite(self.lo_vec[: self.n_controls])))
            or bool(np.any(np.isfinite(self.hi_vec[: self.n_controls])))
            or bool(problem.path_bounds)
        )

    def to_scaled(self, x_phys: np.ndarray) -> np.ndarray:
        return x_phys / self.scale

    def to_physical(self, z: np.ndarray) -> np.ndarray:
        return z * self.scale

    def point(self, x_phys: np.ndarray) -> NlpPoint:
        if not self.reduced:
            return NlpPoint.from_vector(self.problem, x_phys)
        m = self.problem.model.m
        ends = np.cumsum([seg.steps * m for seg in self.problem.plan.segments])[:-1]
        return NlpPoint(tuple(b.reshape(-1, m) for b in np.split(x_phys, ends)), ())

    def evaluate(self, z: np.ndarray, mu: float, nu: float, rho: float):
        """One forward pass at the scaled point z: (merit, evaluation), where
        the evaluation holds the trajectory and seeds `gradient` needs.
        Raises when z does not propagate or crosses a barrier."""
        problem = self.problem
        point = self.point(self.to_physical(z))
        segs = tr.forward_pass(problem, point)
        gaps = tr.continuity_gaps(problem, point, segs)
        obj = tr.evaluate_objective(problem, point, segs)
        cres = sum(float(np.sum(g * g)) for g in gaps) / problem.M
        merit = obj + nu * cres + 0.5 * rho * cres * cres
        path_coefs = bar_grad = None
        if problem.path_bounds and mu > 0.0:
            path_value, path_coefs = _path_barrier_terms(problem, tr.segment_means(segs), mu)
            merit += path_value
        if mu > 0.0:
            u_flat = point.to_vector()[: self.n_controls]
            bar_value, bar_grad = barrier_value_and_gradient(
                u_flat, self.lo_vec[: self.n_controls], self.hi_vec[: self.n_controls], mu
            )
            merit += bar_value
        return merit, (point, segs, obj, cres, nu + rho * cres, path_coefs, bar_grad)

    def value(self, z: np.ndarray, mu: float, nu: float = 0.0, rho: float = 0.0):
        """`evaluate`, with (inf, None) where z does not propagate or crosses
        a barrier: a rejected trial."""
        try:
            return self.evaluate(z, mu, nu, rho)
        except (PropagationError, DomainError, BarrierInfeasible):
            return math.inf, None

    def gradient(self, evaluation):
        """(scaled gradient, objective, residual) of an evaluation, from one
        backward sweep per segment over its stored trajectory."""
        point, segs, obj, cres, gap_weight, path_coefs, bar_grad = evaluation
        grad = tr.merit_gradient(
            self.problem, point, segs, gap_weight=gap_weight, path_coefs=path_coefs
        ).to_vector()
        if bar_grad is not None:
            grad[: self.n_controls] += bar_grad
        return grad * self.scale, obj, cres

    def bound_violation(self, x: np.ndarray) -> float:
        viol = 0.0
        fin = np.isfinite(self.lo_vec)
        if np.any(fin):
            viol = max(viol, float(np.max(self.lo_vec[fin] - x[fin])))
        fin = np.isfinite(self.hi_vec)
        if np.any(fin):
            viol = max(viol, float(np.max(x[fin] - self.hi_vec[fin])))
        for pv in tr.path_constraint_values(self.problem, self.point(x)):
            viol = max(viol, pv.lo - pv.value, pv.value - pv.hi)
        return max(viol, 0.0)


class _ReducedEvaluator(_MeritEvaluator):
    """Controls-only merit along continuous propagation.

    The interface states are eliminated by propagation, so the continuity
    residual is identically zero and the control gradient is the exact
    single-shooting gradient obtained by chaining the per-segment sweeps.
    """

    reduced = True
    # bound here as well, so that a wrapper installed on the base class's
    # `value` (a profiler's trial counter) is not inherited and run twice
    value = _MeritEvaluator.value


class _BoxMerit:
    """func(x) -> (value, grad) plus the log-barrier of a box, as a merit of
    the outer loop; it has no equality residual."""

    reduced = True  # no interface block: the inner log shows no residual

    def __init__(self, func, lo, hi):
        self.func, self.lo_vec, self.hi_vec = func, lo, hi
        self.has_ineq = bool(np.any(np.isfinite(lo)) or np.any(np.isfinite(hi)))

    def value(self, z, mu, nu, rho):
        """(merit, evaluation) with one call of func; (inf, None) where func
        fails or z crosses the box."""
        try:
            v, g = self.func(z)
            if mu > 0.0:
                bv, bg = barrier_value_and_gradient(z, self.lo_vec, self.hi_vec, mu)
                return v + bv, (g + bg, v, 0.0)
            return v, (g, v, 0.0)
        except (PropagationError, DomainError, BarrierInfeasible):
            return math.inf, None

    @staticmethod
    def gradient(evaluation):
        return evaluation


def _outer_loop(ev, x, mu, nu, rho, cfg, log, label, summary):
    """Barrier and augmented-penalty rounds over one merit (Nocedal & Wright,
    ch. 17-19).

    Each round minimizes ev's merit at fixed (mu, nu, rho) with the
    quasi-Newton inner loop, starting from the previous round's iterate.
    Between rounds the multiplier estimate takes nu += rho * c, the penalty
    rho grows while the residual c stalls above tolerance, and the barrier
    mu shrinks. A round's objective and residual are those of the inner
    loop's last gradient, taken at the iterate it returns.
    label prefixes the inner log lines and summary, when given, formats the
    round's log line; both are format strings over the round's record.

    Returns (x, status, per-round records, final mu, final nu).
    """
    history: list[OuterRecord] = []
    status = SolveStatus.iteration_limit
    prev_cres = None
    for outer in range(1, cfg.max_outer + 1):
        tol = max(cfg.inner_tol, _INNER_TOL_SCALE * mu)
        x, merit, g, inner_status, iters, obj, cres = _lbfgs_inner(
            functools.partial(ev.value, mu=mu, nu=nu, rho=rho), ev.gradient,
            x, ev.lo_vec, ev.hi_vec, tol, cfg, log=log, label=label.format(outer=outer),
            extra=None if ev.reduced else (lambda obj, cres: f"cres={cres:.3e}"),
        )
        ginf = float(np.max(np.abs(g))) if g.size else 0.0
        record = OuterRecord(outer, mu, rho, nu, merit, obj, cres, ginf, iters)
        history.append(record)
        if log is not None and summary is not None:
            log(summary.format(**vars(record)))

        mu_done = mu <= max(_MU_MIN, cfg.outer_tol) * (1.0 + 1e-9) or not ev.has_ineq
        if ginf <= cfg.outer_tol and cres <= cfg.outer_tol and mu_done:
            status = SolveStatus.converged
            break
        if inner_status == "linesearch" and ginf > tol:
            status = SolveStatus.line_search_failure
            break
        nu += rho * cres
        # stiffen the penalty only while the residual stalls above tolerance
        if rho > 0.0 and cres > cfg.outer_tol and (prev_cres is None or cres > 0.25 * prev_cres):
            rho = min(rho * _PENALTY_GROWTH, _PENALTY_RHO_MAX)
        prev_cres = cres
        if ev.has_ineq:
            mu = max(mu * _BARRIER_REDUCTION, _MU_MIN)
    return x, status, history, mu, nu


_ROUND_LINE = (
    "outer {outer:3d}  mu={mu:.1e} rho={rho:.1e}  J={objective:.9e} "
    "c={continuity:.3e} grad_inf={grad_inf:.3e} inner={inner_iterations}"
)
_POLISH_LINE = (
    "polish  mu={mu:.1e}  J={objective:.9e} grad_inf={grad_inf:.3e} inner={inner_iterations}"
)


def solve(
    problem: OcProblem,
    initial_guess: NlpPoint | None = None,
    config: SolverConfig | None = None,
    log=None,
) -> SolveReport:
    """Minimize the transcribed program from the given starting point.

    The multi-shooting program runs the barrier/penalty outer loop; the
    polish is one more round of the same loop on the reduced merit. The
    merit value decreases monotonically across accepted inner steps; the
    report carries per-outer-iteration history and the final residuals.
    """
    cfg = config or SolverConfig()
    ev = _MeritEvaluator(problem)
    point = initial_guess if initial_guess is not None else tr.default_start(problem)
    x = point.to_vector()
    if len(point.interface_states) != problem.n_segments - 1 or x.size != ev.lo_vec.size:
        raise ShapeMismatchError(
            f"initial guess has {x.size} values and {len(point.interface_states)} interface "
            f"states; the program has {ev.lo_vec.size} and {problem.n_segments - 1}"
        )
    x = ev.to_scaled(_pull_interior(x, ev.lo_vec, ev.hi_vec))
    mu = _BARRIER_MU0 if ev.has_ineq else 0.0
    rho = _PENALTY_RHO0 if problem.n_segments > 1 else 0.0

    try:
        first = ev.evaluate(x, mu, 0.0, rho)[0]
    except PropagationError as err:  # its text names the sample and step
        raise ParameterError(f"initial guess does not propagate: {err}") from err
    except DomainError as err:
        raise ParameterError(
            f"initial guess does not propagate (sample {err.sample_index}, "
            f"step {err.step_index}): {err}"
        ) from err
    except BarrierInfeasible:
        first = math.inf
    if not np.isfinite(first):
        raise ParameterError(
            "objective is not finite at the initial guess (propagation diverged "
            "or an ensemble path bound is violated; barrier stages need a "
            "path-feasible start)"
        )

    x, status, history, mu, nu = _outer_loop(
        ev, x, mu, 0.0, rho, cfg, log, "[outer {outer}] ", _ROUND_LINE
    )
    outer = len(history)
    x_phys = ev.to_physical(x)
    final = NlpPoint.from_vector(problem, x_phys)

    if problem.n_segments > 1:
        red = _ReducedEvaluator(problem)
        z = _pull_interior(x_phys[: ev.n_controls].copy(), red.lo_vec, red.hi_vec)
        mu_polish = min(mu, cfg.outer_tol) if ev.has_ineq else 0.0
        polish_cfg = replace(
            cfg, max_outer=1, max_inner=cfg.polish_max_inner, inner_tol=cfg.outer_tol
        )
        try:
            z, polish_status, rows, _, _ = _outer_loop(
                red, z, mu_polish, nu, 0.0, polish_cfg, log, "[polish] ", _POLISH_LINE
            )
        except ParameterError:
            # continuous propagation from the multi-shooting point can start
            # outside a binding path bound; keep the staged solution then
            if log is not None:
                log("polish  skipped: start point infeasible for the reduced merit")
        else:
            status = polish_status
            history.append(replace(rows[0], outer=outer + 1))
            # the polish iterate is strictly inside the box, so the clip of
            # default_start leaves it unchanged
            final = tr.default_start(problem, red.point(z).schedule(problem.plan))
            x_phys = final.to_vector()

    last = history[-1]  # the polish round reports a zero residual
    return SolveReport(
        point=final,
        objective=float(last.objective),
        continuity_residual=float(last.continuity),
        max_bound_violation=ev.bound_violation(x_phys),
        grad_inf=last.grad_inf,
        outer_iterations=outer,
        inner_iterations=sum(r.inner_iterations for r in history),
        status=status,
        history=tuple(history),
    )
