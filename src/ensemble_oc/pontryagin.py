"""Verification of candidate controls through the sampled minimum principle.

Workflow: propagate a fresh ensemble forward under the fixed candidate
(as a transcription point without interface states, which propagates
continuously), integrate the costates backward with the exact discrete
adjoint of the same scheme (the gradient engine's `backward_gradient`, which
records the costate at every node; Runge-Kutta and Adams-Bashforth schemes
alike), then minimize the sample-mean Hamiltonian pointwise in time and
report how far the candidate sits from that minimizer. Small discrepancy
means the candidate satisfies the necessary optimality conditions; it is not
a proof of optimality.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .gradients import backward_gradient
from .grids import ControlSchedule, EnsembleTrajectory, ShootingPlan
from .integrators import StepScheme
from .models import DynamicsModel
from .transcription import NlpPoint, OcProblem, forward_pass


def hamiltonian(model: DynamicsModel, u, x, lam, q: float):
    """H = (q / 2) |u|^2 + lam . f(x, u); batched inputs give per-sample values."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    energy = 0.5 * q * np.sum(u * u, axis=-1)
    return energy + np.sum(lam * model.rhs(x, u), axis=-1)


def mean_hamiltonian(model, u, states, costates, q: float) -> float:
    """Sample average of the Hamiltonian at a shared control."""
    return float(np.mean(hamiltonian(model, u, states, costates, q)))


@dataclass(frozen=True)
class AdjointTrajectory:
    """Costates on the same grid as the state trajectory, (N_k + 1, M, n) each."""

    plan: ShootingPlan
    segments: tuple[np.ndarray, ...]

    @property
    def terminal(self) -> np.ndarray:
        return self.segments[-1][-1]

    @property
    def initial(self) -> np.ndarray:
        return self.segments[0][0]


def adjoint_sweep(
    scheme: StepScheme,
    model: DynamicsModel,
    trajectory: EnsembleTrajectory,
    controls: ControlSchedule,
    terminal_grad: np.ndarray,
    running_seed=None,
) -> AdjointTrajectory:
    """Backward costate integration from lambda(t_f) = terminal_grad rows.

    Runs `backward_gradient` over the segments from last to first, recording
    the costate at every node and carrying it across each interface, so the
    sweep is the exact discrete adjoint of the forward map, Adams-Bashforth
    schemes included. The trajectory must come from a continuous forward
    propagation under the same controls.
    running_seed(k, j) may inject per-node d(cost)/dx contributions when the
    functional carries a state-dependent running term; the last node of a
    segment receives none.
    """
    lam = np.asarray(terminal_grad, dtype=float)
    if lam.shape != trajectory.terminal.shape:
        raise ShapeMismatchError(
            f"terminal gradient shape {lam.shape} != {trajectory.terminal.shape}"
        )
    plan = trajectory.plan
    out = [np.empty_like(states) for states in trajectory.segments]
    for k in range(plan.n_segments - 1, -1, -1):

        def seed_at(j, k=k):
            if running_seed is None or j == plan.segments[k].steps:
                return None
            return running_seed(k, j)

        _, lam = backward_gradient(
            scheme.with_dt(plan.segments[k].dt), model, trajectory.segments[k],
            controls.values[k], lam, running_seed=seed_at, costates=out[k],
        )
    return AdjointTrajectory(plan, tuple(out))


def _golden_min(func, lo: float, hi: float, tol: float = 1e-10) -> float:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = func(c), func(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = func(d)
    return 0.5 * (a + b)


def ensemble_argmin_control(
    model: DynamicsModel,
    states: np.ndarray,
    costates: np.ndarray,
    q: float,
    lo,
    hi,
    return_flag: bool = False,
):
    """Minimizer of the sample-mean Hamiltonian inside the control box.

    Control-affine dynamics with quadratic energy admit the closed form
    u* = clip(-a / q) with a_c the sample mean of lam . df/du_c; with q = 0
    the minimizer is the bound-selecting (bang-bang) control and the optional
    flag reports it. Non-affine channels are handled by coordinate descent
    with golden-section line minimization.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    costates = np.atleast_2d(np.asarray(costates, dtype=float))
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (model.m,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (model.m,))
    bang = False
    if model.control_affine:
        b_mats = model.jac_u(states, np.zeros(model.m))
        a_vec = np.einsum("mr,mrc->c", costates, b_mats) / states.shape[0]
        if q > 0.0:
            u_star = np.clip(-a_vec / q, lo, hi)
        else:
            bang = True
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ParameterError("bang-bang minimizer needs finite control bounds")
            u_star = np.where(a_vec > 0.0, lo, np.where(a_vec < 0.0, hi, 0.0))
    else:
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ParameterError("coordinate search needs finite control bounds")
        u_star = 0.5 * (lo + hi)
        for _ in range(60):
            u_prev = u_star.copy()
            for c in range(model.m):
                def channel(val, c=c):
                    u_try = u_star.copy()
                    u_try[c] = val
                    return mean_hamiltonian(model, u_try, states, costates, q)

                u_star[c] = _golden_min(channel, lo[c], hi[c])
            if np.max(np.abs(u_star - u_prev)) < 1e-9:
                break
    return (u_star, bang) if return_flag else u_star


# a candidate passes when its mean and its largest discrepancy stay within
# these shares of the control range
_MEAN_TOL_FRAC = 0.05
_MAX_TOL_FRAC = 0.15


@dataclass(frozen=True)
class OptimalityReport:
    """Pointwise comparison of a candidate against the Hamiltonian minimizer."""

    times: np.ndarray
    candidate: np.ndarray
    minimizer: np.ndarray
    discrepancy: np.ndarray  # per grid point, max over channels
    max_discrepancy: float
    mean_discrepancy: float
    fraction_within: float
    control_range: float
    mean_tol_frac: float
    max_tol_frac: float
    passed: bool
    bang_bang: bool
    note: str = (
        "Necessary-condition check: the pointwise minimizer is computed along "
        "the candidate's own trajectories, so small discrepancy supports but "
        "does not prove optimality."
    )

    def summary(self) -> dict:
        return {
            "max_discrepancy": float(self.max_discrepancy),
            "mean_discrepancy": float(self.mean_discrepancy),
            "fraction_within": float(self.fraction_within),
            "control_range": float(self.control_range),
            "mean_tol_frac": self.mean_tol_frac,
            "max_tol_frac": self.max_tol_frac,
            "passed": bool(self.passed),
            "bang_bang": bool(self.bang_bang),
            "note": self.note,
        }

    def to_csv(self, path):
        m = self.candidate.shape[1]
        header = (
            ["t"]
            + [f"u_hat_{c + 1}" for c in range(m)]
            + [f"u_star_{c + 1}" for c in range(m)]
            + [f"discrepancy_{c + 1}" for c in range(m)]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in range(self.times.size):
                cells = [self.times[row]]
                cells += list(self.candidate[row])
                cells += list(self.minimizer[row])
                cells += list(np.abs(self.candidate[row] - self.minimizer[row]))
                writer.writerow([f"{v:.17g}" for v in cells])


def verify(
    problem: OcProblem,
    candidate: ControlSchedule,
    M_verify: int | None = None,
    seed: int | None = None,
) -> OptimalityReport:
    """Forward-backward sweep plus pointwise Hamiltonian minimization."""
    if candidate.plan.total_steps != problem.plan.total_steps or len(
        candidate.values
    ) != problem.n_segments:
        raise ShapeMismatchError("candidate control grid does not match the problem plan")
    fresh = problem.replace(
        M=problem.M if M_verify is None else int(M_verify),
        seed=problem.seed if seed is None else int(seed),
    )
    model, cost = problem.model, problem.cost
    segs = forward_pass(fresh, NlpPoint(candidate.values, ()))
    trajectory = EnsembleTrajectory(problem.plan, tuple(segs))

    terminal_grad = cost.terminal_grad(trajectory.terminal)
    running = None
    if cost.has_running:

        def running(k, j):
            return problem.plan.segments[k].dt * cost.running_grad(segs[k][j])

    adjoint = adjoint_sweep(
        problem.scheme, model, trajectory, candidate, terminal_grad, running_seed=running
    )

    q = cost.control_energy
    rows_u, rows_star, times = [], [], []
    bang = False
    for k, seg in enumerate(problem.plan.segments):
        for j in range(seg.steps):
            u_star, flag = ensemble_argmin_control(
                model,
                segs[k][j],
                adjoint.segments[k][j],
                q,
                problem.control_lo,
                problem.control_hi,
                return_flag=True,
            )
            bang = bang or flag
            rows_star.append(u_star)
            rows_u.append(candidate.values[k][j])
            times.append(seg.t_start + j * seg.dt)

    candidate_arr = np.asarray(rows_u)
    minimizer = np.asarray(rows_star)
    disc = np.max(np.abs(candidate_arr - minimizer), axis=1)
    widths = problem.control_hi - problem.control_lo
    finite = np.isfinite(widths)
    if np.any(finite):
        rng_ref = float(np.max(widths[finite]))
    else:
        rng_ref = max(1.0, float(np.ptp(candidate_arr)))
    mean_disc = float(disc.mean())
    max_disc = float(disc.max())
    return OptimalityReport(
        times=np.asarray(times),
        candidate=candidate_arr,
        minimizer=minimizer,
        discrepancy=disc,
        max_discrepancy=max_disc,
        mean_discrepancy=mean_disc,
        fraction_within=float(np.mean(disc <= _MEAN_TOL_FRAC * rng_ref)),
        control_range=rng_ref,
        mean_tol_frac=_MEAN_TOL_FRAC,
        max_tol_frac=_MAX_TOL_FRAC,
        passed=(mean_disc <= _MEAN_TOL_FRAC * rng_ref) and (max_disc <= _MAX_TOL_FRAC * rng_ref),
        bang_bang=bang,
    )
