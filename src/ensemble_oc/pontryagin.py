"""Verification of candidate controls through the sampled minimum principle.

Workflow: propagate a fresh ensemble forward under the fixed candidate
(as a transcription point without interface states, which propagates
continuously), integrate the costates backward with the exact discrete
adjoint of the same scheme (the gradient engine's `backward_gradient`, which
records the costate at every node; Runge-Kutta and Adams-Bashforth schemes
alike), then minimize the sample-mean Hamiltonian pointwise in time and
report how far the candidate sits from that minimizer. The minimization
takes a block of nodes per call, sized like the sweep's sample batches, so
no array of a whole segment's control Jacobians is formed; each node's
minimizer equals the one a call on that node alone returns. Small discrepancy
means the candidate satisfies the necessary optimality conditions; it is not
a proof of optimality.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeMismatchError
from .gradients import _BATCH_TARGET_FLOATS, backward_gradient
from .grids import ControlSchedule, EnsembleTrajectory, ShootingPlan, control_times
from .integrators import StepScheme
from .models import DynamicsModel
from .reporting import _write_rows
from .transcription import NlpPoint, OcProblem, forward_pass


def hamiltonian(model: DynamicsModel, u, x, lam, q: float):
    """H = (q / 2) |u|^2 + lam . f(x, u); batched inputs give per-sample values."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    energy = 0.5 * q * np.sum(u * u, axis=-1)
    return energy + np.sum(lam * model.rhs(x, u), axis=-1)


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


def _golden_min(func, lo: float, hi: float, nodes: int, tol: float = 1e-10) -> np.ndarray:
    """Golden-section minima of func on [lo, hi], one search per node, run in
    lock-step: func maps (nodes,) points to (nodes,) values. Each node stops
    once its own bracket is no wider than tol, as the widths can round
    differently from node to node; a stopped node's probes are not used."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.full(nodes, lo), np.full(nodes, hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = func(c), func(d)
    live = b - a > tol
    while np.any(live):
        lower = fc < fd
        left, right = live & lower, live & ~lower  # keep [a, d] or [c, b]
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        c, d = (
            np.where(left, b - inv_phi * (b - a), np.where(right, d, c)),
            np.where(left, c, np.where(right, a + inv_phi * (b - a), d)),
        )
        f = func(np.where(left, c, d))
        fc, fd = (
            np.where(left, f, np.where(right, fd, fc)),
            np.where(left, fc, np.where(right, f, fd)),
        )
        live = b - a > tol
    return 0.5 * (a + b)


# einsum sums a lone output element in chunks of this many products, and a
# block of nodes would chunk its rows differently; nodes larger than one chunk
# are therefore contracted one at a time, which keeps every sum bit-equal
_EINSUM_CHUNK = 8192


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

    states and costates are one node's (M, n) ensemble, giving an (m,)
    control, or a block of nodes (B, M, n), giving (B, m): each node's
    minimizer is the one its own 2-D call returns. Control-affine dynamics
    with quadratic energy admit the closed form u* = clip(-a / q) with a_c
    the sample mean of lam . df/du_c; with q = 0 the minimizer is the
    bound-selecting (bang-bang) control and the optional flag reports it.
    Non-affine channels are handled by coordinate descent with golden-section
    line minimization, run for all nodes of the block in lock-step.
    """
    states = np.asarray(states, dtype=float)
    costates = np.asarray(costates, dtype=float)
    single = states.ndim < 3
    if single:
        states = np.atleast_2d(states)[None]
        costates = np.atleast_2d(costates)[None]
    nodes, samples = states.shape[:2]
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (model.m,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (model.m,))
    bang = False
    if model.control_affine:
        b_mats = model.jac_u(states, np.zeros(model.m))
        if b_mats[0].size > _EINSUM_CHUNK:
            a_vec = np.stack(
                [np.einsum("mr,mrc->c", lam, b) for lam, b in zip(costates, b_mats)]
            )
        else:
            a_vec = np.einsum("bmr,bmrc->bc", costates, b_mats)
        a_vec = a_vec / samples
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
        u_star = np.tile(0.5 * (lo + hi), (nodes, 1))
        todo = np.ones(nodes, dtype=bool)  # nodes whose sweeps still move
        for _ in range(60):
            u_prev = u_star.copy()
            for c in range(model.m):
                def channel(val, c=c):
                    u_try = u_star.copy()
                    u_try[:, c] = val
                    try:
                        h = hamiltonian(model, u_try[:, None], states, costates, q)
                    except DomainError as err:
                        # a probed control, shared by all samples of a node:
                        # the block's leading axis indexes nodes, not samples
                        raise DomainError(str(err)) from err
                    return h.mean(axis=1)

                u_star[todo, c] = _golden_min(channel, lo[c], hi[c], nodes)[todo]
            todo &= ~(np.max(np.abs(u_star - u_prev), axis=1) < 1e-9)
            if not np.any(todo):
                break
    if single:
        u_star = u_star[0]
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
        gap = np.abs(self.candidate - self.minimizer)
        rows = np.column_stack([self.times, self.candidate, self.minimizer, gap])
        _write_rows(path, header, rows)


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

    # a block of nodes: its jac_u, and its running seeds, hold at most the
    # sweep's batch target of floats
    per_block = max(1, _BATCH_TARGET_FLOATS // (fresh.M * model.n * model.m))

    terminal_grad = cost.terminal_grad(trajectory.terminal)
    running = None
    if cost.has_running:

        @functools.lru_cache(maxsize=1)
        def block_seeds(k, start):
            rows = segs[k][start : start + per_block]
            return problem.plan.segments[k].dt * cost.running_grad(rows)

        def running(k, j):
            return block_seeds(k, j - j % per_block)[j % per_block]

    adjoint = adjoint_sweep(
        problem.scheme, model, trajectory, candidate, terminal_grad, running_seed=running
    )

    q = cost.control_energy
    blocks = []
    bang = False
    for k, seg in enumerate(problem.plan.segments):
        for j in range(0, seg.steps, per_block):
            end = min(j + per_block, seg.steps)
            u_star, flag = ensemble_argmin_control(
                model,
                segs[k][j:end],
                adjoint.segments[k][j:end],
                q,
                problem.control_lo,
                problem.control_hi,
                return_flag=True,
            )
            bang = bang or flag
            blocks.append(u_star)

    candidate_arr = candidate.stacked()
    minimizer = np.concatenate(blocks)
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
        times=control_times(problem.plan),
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
