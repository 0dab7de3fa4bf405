"""Constrained minimization of the transcribed program.

Inequalities (control boxes, ensemble-mean path bounds) enter through a
logarithmic barrier with a shrinking coefficient; the aggregated continuity
equality enters through an augmented quadratic penalty. Inner iterations are
limited-memory quasi-Newton steps with Armijo backtracking and a
fraction-to-boundary cap that keeps every iterate strictly inside the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError, PropagationError
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
    propagation_failure = "PropagationFailure"


@dataclass(frozen=True)
class SolverConfig:
    barrier_mu0: float = 1.0
    barrier_reduction: float = 0.1
    penalty_rho0: float = 10.0
    penalty_growth: float = 10.0
    penalty_rho_max: float = 1e8
    inner_tol: float = 1e-6
    outer_tol: float = 1e-6
    max_inner: int = 120
    max_outer: int = 12
    memory: int = 20
    armijo: float = 1e-4
    backtrack: float = 0.5
    boundary_fraction: float = 0.995
    max_linesearch: int = 40
    mu_min: float = 1e-10
    inner_tol_scale: float = 0.1  # inner tolerance floor tied to the current mu
    # final controls-only stage along continuous propagation; restores exact
    # interface continuity and tightens control stationarity
    polish: bool = True
    polish_max_inner: int = 400

    def __post_init__(self):
        if not (0.0 < self.barrier_reduction < 1.0):
            raise ParameterError("barrier_reduction must lie in (0, 1)")
        if not self.penalty_growth > 1.0:
            raise ParameterError("penalty_growth must exceed 1")
        if not (0.0 < self.backtrack < 1.0):
            raise ParameterError("backtrack factor must lie in (0, 1)")
        for name in ("inner_tol", "outer_tol"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")


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


def _lbfgs_inner(value_grad, value_only, x, lo, hi, tol, cfg, log=None, label="", extra=None):
    """Minimize a smooth merit inside the box; returns the final iterate.

    Every accepted step satisfies the Armijo sufficient-decrease condition,
    and the fraction-to-boundary cap keeps iterates strictly interior.
    """
    f, g = value_grad(x)
    if not np.isfinite(f):
        raise ParameterError("merit not finite at the inner start point")
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
        alpha = min(1.0, _max_step(x, d, lo, hi, cfg.boundary_fraction))
        accepted = False
        for _ in range(cfg.max_linesearch):
            trial = x + alpha * d
            f_trial = value_only(trial)
            if np.isfinite(f_trial) and f_trial <= f + cfg.armijo * alpha * slope:
                accepted = True
                break
            alpha *= cfg.backtrack
        iters += 1
        if not accepted:
            status = "linesearch"
            break
        f_new, g_new = value_grad(trial)
        s = trial - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            mem.append((s, y, 1.0 / sy))
            if len(mem) > cfg.memory:
                mem.pop(0)
        x, f, g = trial, f_new, g_new
        if log is not None:
            gi = float(np.max(np.abs(g))) if g.size else 0.0
            tail = f"  {extra()}" if extra is not None else ""
            log(f"{label}inner {iters:4d}  merit={f: .9e}  grad_inf={gi:.3e}  step={alpha:.3e}{tail}")
    return x, f, g, status, iters


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

    With no finite bounds this reduces to a single quasi-Newton run.
    """
    cfg = config or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    lo = np.full_like(x, -np.inf) if lo is None else np.broadcast_to(
        np.asarray(lo, float), x.shape
    ).copy()
    hi = np.full_like(x, np.inf) if hi is None else np.broadcast_to(
        np.asarray(hi, float), x.shape
    ).copy()
    if np.any(lo > hi):
        raise ParameterError("box bounds need lo <= hi")
    x = _pull_interior(x, lo, hi)
    has_barrier = bool(np.any(np.isfinite(lo)) or np.any(np.isfinite(hi)))
    mu = cfg.barrier_mu0 if has_barrier else 0.0

    total_inner = 0
    status = SolveStatus.iteration_limit
    f = math.nan
    ginf = math.inf
    outer = 0
    for outer in range(1, cfg.max_outer + 1):

        def value_grad(z):
            v, g = func(z)
            if mu > 0.0:
                try:
                    bv, bg = barrier_value_and_gradient(z, lo, hi, mu)
                except BarrierInfeasible:
                    return math.inf, np.zeros_like(z)
                v, g = v + bv, g + bg
            return v, g

        def value_only(z):
            try:
                v, _ = func(z)
                if mu > 0.0:
                    v += barrier_value_and_gradient(z, lo, hi, mu)[0]
                return v
            except BarrierInfeasible:
                return math.inf

        tol = max(cfg.inner_tol, cfg.inner_tol_scale * mu)
        x, f, g, inner_status, it = _lbfgs_inner(
            value_grad, value_only, x, lo, hi, tol, cfg, log=log
        )
        total_inner += it
        ginf = float(np.max(np.abs(g))) if g.size else 0.0
        if inner_status == "linesearch" and ginf > tol:
            status = SolveStatus.line_search_failure
            break
        if ginf <= cfg.outer_tol and mu <= max(cfg.mu_min, cfg.outer_tol) * (1.0 + 1e-9):
            status = SolveStatus.converged
            break
        if mu == 0.0:
            status = (
                SolveStatus.converged if ginf <= cfg.outer_tol else SolveStatus.iteration_limit
            )
            break
        mu = max(mu * cfg.barrier_reduction, cfg.mu_min)
    return MinimizeResult(x, f, ginf, status, total_inner, outer)


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

    One forward pass per evaluation; all gradient seeds are combined into a
    single backward sweep per segment.

    The solver iterates in scaled coordinates: interface-state entries carry
    a sqrt(M) factor, which undoes the 1/M Monte Carlo weighting of their
    curvature and keeps the quasi-Newton conditioning independent of the
    sample count.
    """

    def __init__(self, problem: OcProblem, workers: int = 1):
        self.problem = problem
        self.workers = workers
        m = problem.model.m
        plan = problem.plan
        lo_parts = [np.tile(problem.control_lo, (s.steps, 1)).ravel() for s in plan.segments]
        hi_parts = [np.tile(problem.control_hi, (s.steps, 1)).ravel() for s in plan.segments]
        n_iface = (plan.n_segments - 1) * problem.M * problem.model.n
        self.lo_vec = np.concatenate(lo_parts + [np.full(n_iface, -np.inf)])
        self.hi_vec = np.concatenate(hi_parts + [np.full(n_iface, np.inf)])
        self.n_controls = plan.total_steps * m
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

    def _path_terms(self, means, mu):
        return _path_barrier_terms(self.problem, means, mu)

    def components(self, point: NlpPoint, mu: float, nu: float, rho: float):
        segs = tr.forward_pass(self.problem, point)
        obj = tr.evaluate_objective(self.problem, point, segs)
        gaps = tr.continuity_gaps(self.problem, point, segs)
        cres = sum(float(np.sum(g * g)) for g in gaps) / self.problem.M
        merit = obj + nu * cres + 0.5 * rho * cres * cres
        path_value = 0.0
        means = None
        if self.problem.path_bounds and mu > 0.0:
            means = tr.segment_means(segs)
            path_value, _ = self._path_terms(means, mu)
            merit += path_value
        if mu > 0.0:
            u_flat = point.to_vector()[: self.n_controls]
            merit += barrier_value_and_gradient(
                u_flat, self.lo_vec[: self.n_controls], self.hi_vec[: self.n_controls], mu
            )[0]
        return merit, obj, cres, segs, gaps

    def value(self, z: np.ndarray, mu: float, nu: float, rho: float) -> float:
        try:
            point = NlpPoint.from_vector(self.problem, self.to_physical(z))
            merit, *_ = self.components(point, mu, nu, rho)
            return merit
        except (PropagationError, DomainError, BarrierInfeasible):
            return math.inf

    def value_grad(self, z: np.ndarray, mu: float, nu: float, rho: float):
        x = self.to_physical(z)
        point = NlpPoint.from_vector(self.problem, x)
        merit, obj, cres, segs, gaps = self.components(point, mu, nu, rho)
        problem = self.problem
        M = problem.M

        terminal, running = tr.objective_seeds(problem, segs)
        w_eq = nu + rho * cres
        for k, gap in enumerate(gaps):
            terminal[k] = terminal[k] + (2.0 * w_eq / M) * gap
        if problem.path_bounds and mu > 0.0:
            means = tr.segment_means(segs)
            _, coefs = self._path_terms(means, mu)
            for k, coef in enumerate(coefs):
                if running[k] is None:
                    running[k] = np.zeros_like(segs[k])
                running[k] = running[k] + coef[:, None, :] / M

        du, dx0 = tr.sweep_gradient(
            problem, point, segs, terminal, running, workers=self.workers
        )
        q = problem.cost.control_energy
        for k, seg in enumerate(problem.plan.segments):
            if q != 0.0:
                du[k] = du[k] + q * seg.dt * point.controls[k]
        iface = []
        for k in range(1, problem.n_segments):
            g = dx0[k]
            if k - 1 < len(gaps):
                g = g - (2.0 * w_eq / M) * gaps[k - 1]
            iface.append(g)
        grad = NlpPoint(tuple(du), tuple(iface)).to_vector()
        if mu > 0.0:
            _, bg = barrier_value_and_gradient(
                x[: self.n_controls], self.lo_vec[: self.n_controls], self.hi_vec[: self.n_controls], mu
            )
            grad[: self.n_controls] += bg
        return merit, grad * self.scale, obj, cres

    def bound_violation(self, x: np.ndarray) -> float:
        viol = 0.0
        fin = np.isfinite(self.lo_vec)
        if np.any(fin):
            viol = max(viol, float(np.max(self.lo_vec[fin] - x[fin])))
        fin = np.isfinite(self.hi_vec)
        if np.any(fin):
            viol = max(viol, float(np.max(x[fin] - self.hi_vec[fin])))
        point = NlpPoint.from_vector(self.problem, x)
        for pv in tr.path_constraint_values(self.problem, point):
            viol = max(viol, pv.lo - pv.value, pv.value - pv.hi)
        return max(viol, 0.0)


class _ReducedEvaluator:
    """Controls-only merit along continuous propagation.

    The interface states are eliminated by propagation, so the continuity
    residual is identically zero and the control gradient is the exact
    single-shooting gradient obtained by chaining the per-segment sweeps.
    """

    def __init__(self, problem: OcProblem, workers: int = 1):
        self.problem = problem
        self.workers = workers
        plan = problem.plan
        self.lo_vec = np.concatenate(
            [np.tile(problem.control_lo, (s.steps, 1)).ravel() for s in plan.segments]
        )
        self.hi_vec = np.concatenate(
            [np.tile(problem.control_hi, (s.steps, 1)).ravel() for s in plan.segments]
        )

    def _blocks(self, z):
        blocks, pos = [], 0
        m = self.problem.model.m
        for seg in self.problem.plan.segments:
            blocks.append(z[pos : pos + seg.steps * m].reshape(seg.steps, m))
            pos += seg.steps * m
        return tuple(blocks)

    def _merit_parts(self, blocks, mu):
        segs = tr.continuous_forward(self.problem, blocks)
        point = NlpPoint(blocks, ())
        obj = tr.evaluate_objective(self.problem, point, segs)
        merit = obj
        path_coefs = None
        if self.problem.path_bounds and mu > 0.0:
            means = tr.segment_means(segs)
            path_value, path_coefs = _path_barrier_terms(self.problem, means, mu)
            merit += path_value
        return merit, obj, segs, path_coefs

    def value(self, z, mu):
        try:
            blocks = self._blocks(z)
            merit, *_ = self._merit_parts(blocks, mu)
            if mu > 0.0:
                merit += barrier_value_and_gradient(z, self.lo_vec, self.hi_vec, mu)[0]
            return merit
        except (PropagationError, DomainError, BarrierInfeasible):
            return math.inf

    def value_grad(self, z, mu):
        blocks = self._blocks(z)
        merit, obj, segs, path_coefs = self._merit_parts(blocks, mu)
        problem = self.problem
        _, running = tr.objective_seeds(problem, segs)
        terminal = problem.cost.terminal_grad(segs[-1][-1]) / problem.M
        if path_coefs is not None:
            for k, coef in enumerate(path_coefs):
                if running[k] is None:
                    running[k] = np.zeros_like(segs[k])
                running[k] = running[k] + coef[:, None, :] / problem.M
        du, _ = tr.continuous_gradient(
            problem, blocks, segs, terminal, running, workers=self.workers
        )
        q = problem.cost.control_energy
        if q != 0.0:
            for k, seg in enumerate(problem.plan.segments):
                du[k] = du[k] + q * seg.dt * blocks[k]
        grad = np.concatenate([g.ravel() for g in du])
        if mu > 0.0:
            bv, bg = barrier_value_and_gradient(z, self.lo_vec, self.hi_vec, mu)
            merit += bv
            grad += bg
        return merit, grad, obj, segs


def solve(
    problem: OcProblem,
    initial_guess: NlpPoint | None = None,
    config: SolverConfig | None = None,
    log=None,
    workers: int = 1,
) -> SolveReport:
    """Minimize the transcribed program from the given starting point.

    The merit value decreases monotonically across accepted inner steps; the
    report carries per-outer-iteration history and the final residuals.
    """
    cfg = config or SolverConfig()
    ev = _MeritEvaluator(problem, workers=workers)
    point = initial_guess if initial_guess is not None else tr.default_start(problem)
    x = ev.to_scaled(_pull_interior(point.to_vector(), ev.lo_vec, ev.hi_vec))

    mu = cfg.barrier_mu0 if ev.has_ineq else 0.0
    nu = 0.0
    rho = cfg.penalty_rho0 if problem.n_segments > 1 else 0.0

    def components_at(z, mu, nu, rho):
        return ev.components(NlpPoint.from_vector(problem, ev.to_physical(z)), mu, nu, rho)

    try:
        first = components_at(x, mu, nu, rho)[0]
    except (PropagationError, DomainError) as err:
        raise ParameterError(
            f"initial guess does not propagate (sample {err.sample_index}): {err}"
        ) from err
    except BarrierInfeasible:
        first = math.inf
    if not np.isfinite(first):
        raise ParameterError(
            "objective is not finite at the initial guess (propagation diverged "
            "or an ensemble path bound is violated; barrier stages need a "
            "path-feasible start)"
        )

    history: list[OuterRecord] = []
    total_inner = 0
    status = SolveStatus.iteration_limit
    obj = cres = math.nan
    ginf = math.inf
    outer = 0
    prev_cres = None
    last_cres = [math.nan]
    for outer in range(1, cfg.max_outer + 1):
        cur_mu, cur_nu, cur_rho = mu, nu, rho

        def value_grad(z):
            try:
                merit, grad, _, c = ev.value_grad(z, cur_mu, cur_nu, cur_rho)
                last_cres[0] = c
                return merit, grad
            except (PropagationError, DomainError, BarrierInfeasible):
                return math.inf, np.zeros_like(z)

        def value_only(z):
            return ev.value(z, cur_mu, cur_nu, cur_rho)

        tol = max(cfg.inner_tol, cfg.inner_tol_scale * mu)
        x, merit, g, inner_status, iters = _lbfgs_inner(
            value_grad, value_only, x, ev.lo_vec, ev.hi_vec, tol, cfg,
            log=log, label=f"[outer {outer}] ",
            extra=lambda: f"cres={last_cres[0]:.3e}",
        )
        total_inner += iters
        ginf = float(np.max(np.abs(g))) if g.size else 0.0
        # forward-only: the round's objective and residual need no sweep
        obj, cres = components_at(x, mu, nu, rho)[1:3]
        history.append(
            OuterRecord(outer, mu, rho, nu, merit, obj, cres, ginf, iters)
        )
        if log is not None:
            log(
                f"outer {outer:3d}  mu={mu:.1e} rho={rho:.1e}  J={obj:.9e} "
                f"c={cres:.3e} grad_inf={ginf:.3e} inner={iters}"
            )

        mu_done = mu <= max(cfg.mu_min, cfg.outer_tol) * (1.0 + 1e-9) or not ev.has_ineq
        if ginf <= cfg.outer_tol and cres <= cfg.outer_tol and mu_done:
            status = SolveStatus.converged
            break
        if inner_status == "linesearch" and ginf > tol:
            status = SolveStatus.line_search_failure
            break
        nu += rho * cres
        # stiffen the penalty only while the residual stalls above tolerance
        if (
            problem.n_segments > 1
            and cres > cfg.outer_tol
            and (prev_cres is None or cres > 0.25 * prev_cres)
        ):
            rho = min(rho * cfg.penalty_growth, cfg.penalty_rho_max)
        prev_cres = cres
        if ev.has_ineq:
            mu = max(mu * cfg.barrier_reduction, cfg.mu_min)

    x_phys = ev.to_physical(x)
    final = NlpPoint.from_vector(problem, x_phys)

    if cfg.polish and problem.n_segments > 1 and status != SolveStatus.propagation_failure:
        red = _ReducedEvaluator(problem, workers=workers)
        z2 = _pull_interior(x_phys[: ev.n_controls].copy(), red.lo_vec, red.hi_vec)
        mu2 = min(mu, cfg.outer_tol) if ev.has_ineq else 0.0

        def vg2(z):
            try:
                merit2, grad2, *_ = red.value_grad(z, mu2)
                return merit2, grad2
            except (PropagationError, DomainError, BarrierInfeasible):
                return math.inf, np.zeros_like(z)

        try:
            z2, merit2, g2, st2, it2 = _lbfgs_inner(
                vg2,
                lambda z: red.value(z, mu2),
                z2,
                red.lo_vec,
                red.hi_vec,
                cfg.outer_tol,
                replace(cfg, max_inner=cfg.polish_max_inner),
                log=log,
                label="[polish] ",
            )
        except ParameterError:
            # continuous propagation from the multi-shooting point can start
            # outside a binding path bound; keep the staged solution then
            z2 = None
            if log is not None:
                log("polish  skipped: start point infeasible for the reduced merit")
        if z2 is None:
            return SolveReport(
                point=final,
                objective=float(obj),
                continuity_residual=float(cres),
                max_bound_violation=ev.bound_violation(x_phys),
                grad_inf=ginf,
                outer_iterations=outer,
                inner_iterations=total_inner,
                status=status,
                history=tuple(history),
            )
        total_inner += it2
        ginf = float(np.max(np.abs(g2))) if g2.size else 0.0
        blocks = tuple(b.copy() for b in red._blocks(z2))
        segs = tr.continuous_forward(problem, blocks)
        final = NlpPoint(
            blocks, tuple(segs[k][-1].copy() for k in range(problem.n_segments - 1))
        )
        x_phys = final.to_vector()
        obj = tr.evaluate_objective(problem, final, segs)
        cres = 0.0  # interface states are the propagated endpoints
        if ginf <= cfg.outer_tol:
            status = SolveStatus.converged
        elif st2 == "linesearch":
            status = SolveStatus.line_search_failure
        else:
            status = SolveStatus.iteration_limit
        history.append(
            OuterRecord(outer + 1, mu2, 0.0, nu, merit2, obj, cres, ginf, it2)
        )
        if log is not None:
            log(f"polish  mu={mu2:.1e}  J={obj:.9e} grad_inf={ginf:.3e} inner={it2}")

    return SolveReport(
        point=final,
        objective=float(obj),
        continuity_residual=float(cres),
        max_bound_violation=ev.bound_violation(x_phys),
        grad_inf=ginf,
        outer_iterations=outer,
        inner_iterations=total_inner,
        status=status,
        history=tuple(history),
    )
