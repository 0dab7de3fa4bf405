"""Discrete ensemble optimal-control program over (controls, interface states).

The decision vector couples the piecewise-constant control values with the
per-sample states at interior segment interfaces. Segment 1 always starts
from the fixed seeded ensemble; continuity across interfaces is enforced
through a single aggregated sum-of-squares residual. Objective, continuity
and ensemble-mean path quantities all share one forward pass. Their
gradients come from one seed assembler, `merit_gradient`, and one backward
sweep per segment (`sweep_gradient`); with `chain` the interface states are
eliminated by continuous propagation and the costate is carried across
interfaces, which gives the single-shooting gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .gradients import backward_gradient, fd_gradient
from .grids import ControlSchedule, ShootingPlan, control_times
from .integrators import StepScheme, propagate_segment
from .models import DynamicsModel
from .sampling import RandomInputSpec, sample_initial_ensemble


@dataclass(frozen=True)
class CostSpec:
    """Quadratic cost pieces.

    Terminal cost F(x) = 0.5 * sum_s terminal_weights[s] (x_s - target_s)^2,
    optional running state cost of the same form, and the control energy
    (q / 2) |u|^2 integrated with the rectangle rule on the control grid.
    """

    terminal_weights: np.ndarray
    terminal_target: np.ndarray
    control_energy: float = 0.0
    running_weights: np.ndarray | None = None
    running_target: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "terminal_weights", np.asarray(self.terminal_weights, float))
        object.__setattr__(self, "terminal_target", np.asarray(self.terminal_target, float))
        if self.running_weights is not None:
            object.__setattr__(self, "running_weights", np.asarray(self.running_weights, float))
            target = self.running_target
            if target is None:
                target = np.zeros_like(self.running_weights)
            object.__setattr__(self, "running_target", np.asarray(target, float))
        if self.control_energy < 0:
            raise ParameterError(f"control energy weight must be >= 0, got {self.control_energy}")

    @property
    def has_running(self) -> bool:
        return self.running_weights is not None and np.any(self.running_weights != 0.0)

    def terminal_value(self, x: np.ndarray) -> np.ndarray:
        d = x - self.terminal_target
        return 0.5 * (d * d) @ self.terminal_weights

    def terminal_grad(self, x: np.ndarray) -> np.ndarray:
        return self.terminal_weights * (x - self.terminal_target)

    def running_value(self, x: np.ndarray) -> np.ndarray:
        # in place: x may be a whole trajectory stack, so each temporary
        # would be as large as the stack itself
        d = x - self.running_target
        d *= d
        d *= 0.5
        return d @ self.running_weights

    def running_grad(self, x: np.ndarray) -> np.ndarray:
        return self.running_weights * (x - self.running_target)


@dataclass(frozen=True)
class PathBound:
    """Bounds on the ensemble mean of one state coordinate along the grid."""

    state_index: int
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if self.lo > self.hi:
            raise ParameterError(f"path bound needs lo <= hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class OcProblem:
    """Fully specified ensemble optimal-control instance."""

    model: DynamicsModel
    plan: ShootingPlan
    scheme: StepScheme
    initial: RandomInputSpec
    M: int
    cost: CostSpec
    control_lo: np.ndarray
    control_hi: np.ndarray
    path_bounds: tuple[PathBound, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "control_lo", np.asarray(self.control_lo, float))
        object.__setattr__(self, "control_hi", np.asarray(self.control_hi, float))
        if self.M < 1:
            raise ParameterError(f"sample count must be >= 1, got {self.M}")
        if self.initial.dim != self.model.n:
            raise ParameterError(
                f"initial spec dimension {self.initial.dim} != state dimension {self.model.n}"
            )
        for name in ("control_lo", "control_hi"):
            arr = getattr(self, name)
            if arr.shape != (self.model.m,):
                raise ShapeMismatchError(f"{name} must have shape ({self.model.m},)")
        if np.any(self.control_lo > self.control_hi):
            raise ParameterError("control_bounds: lo must not exceed hi")
        for arr in (self.cost.terminal_weights, self.cost.terminal_target):
            if arr.shape != (self.model.n,):
                raise ShapeMismatchError("cost vectors must match the state dimension")
        if self.cost.running_weights is not None and self.cost.running_weights.shape != (
            self.model.n,
        ):
            raise ShapeMismatchError("running cost weights must match the state dimension")
        for pb in self.path_bounds:
            if not 0 <= pb.state_index < self.model.n:
                raise ParameterError(f"path bound state index {pb.state_index} out of range")

    @property
    def n_segments(self) -> int:
        return self.plan.n_segments

    def segment_scheme(self, k: int) -> StepScheme:
        return self.scheme.with_dt(self.plan.segments[k].dt)

    def replace(self, **kw) -> "OcProblem":
        return replace(self, **kw)


@dataclass(frozen=True)
class NlpPoint:
    """Decision variables: per-segment control blocks plus the per-sample
    states opening each segment after the first."""

    controls: tuple[np.ndarray, ...]
    interface_states: tuple[np.ndarray, ...]

    def to_vector(self) -> np.ndarray:
        parts = [c.ravel() for c in self.controls]
        parts += [s.ravel() for s in self.interface_states]
        return np.concatenate(parts) if parts else np.zeros(0)

    @classmethod
    def from_vector(cls, problem: OcProblem, vec: np.ndarray) -> "NlpPoint":
        vec = np.asarray(vec, dtype=float)
        if vec.size != nlp_dimension(problem):
            raise ShapeMismatchError(
                f"vector length {vec.size} != decision dimension {nlp_dimension(problem)}"
            )
        m, n = problem.model.m, problem.model.n
        controls, pos = [], 0
        for seg in problem.plan.segments:
            size = seg.steps * m
            controls.append(vec[pos : pos + size].reshape(seg.steps, m).copy())
            pos += size
        interfaces = []
        for _ in range(problem.n_segments - 1):
            size = problem.M * n
            interfaces.append(vec[pos : pos + size].reshape(problem.M, n).copy())
            pos += size
        return cls(tuple(controls), tuple(interfaces))

    def schedule(self, plan: ShootingPlan) -> ControlSchedule:
        return ControlSchedule(plan, self.controls)


def nlp_dimension(problem: OcProblem) -> int:
    return (
        problem.model.m * problem.plan.total_steps
        + (problem.n_segments - 1) * problem.M * problem.model.n
    )


def initial_ensemble(problem: OcProblem) -> np.ndarray:
    """The fixed segment-1 samples; data of the program, not variables."""
    return sample_initial_ensemble(problem.initial, problem.M, problem.seed)


def clip_controls(point: NlpPoint, lo, hi) -> NlpPoint:
    """Coordinate-wise projection of every control row onto [lo, hi]."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    return NlpPoint(
        tuple(np.clip(c, lo, hi) for c in point.controls),
        point.interface_states,
    )


def default_start(problem: OcProblem, controls=None) -> NlpPoint:
    """Initial point with interface states filled by forward propagation, so
    the continuity residual starts at zero."""
    if controls is None:
        blocks = tuple(
            np.zeros((seg.steps, problem.model.m)) for seg in problem.plan.segments
        )
    elif isinstance(controls, ControlSchedule):
        blocks = controls.values
    else:
        blocks = ControlSchedule.constant(problem.plan, controls).values
    blocks = tuple(np.clip(b, problem.control_lo, problem.control_hi) for b in blocks)
    interfaces = []
    state = initial_ensemble(problem)
    for k in range(problem.n_segments - 1):
        states = propagate_segment(problem.segment_scheme(k), problem.model, state, blocks[k])
        state = states[-1]
        interfaces.append(state.copy())
    return NlpPoint(blocks, tuple(interfaces))


def forward_pass(problem: OcProblem, point: NlpPoint) -> list[np.ndarray]:
    """Propagate every segment from its own initial ensemble."""
    if len(point.controls) != problem.n_segments:
        raise ShapeMismatchError("point does not match the shooting plan")
    segs = []
    start = initial_ensemble(problem)
    for k in range(problem.n_segments):
        segs.append(
            propagate_segment(problem.segment_scheme(k), problem.model, start, point.controls[k])
        )
        if k < problem.n_segments - 1:
            start = point.interface_states[k]
    return segs


def control_energy_value(problem: OcProblem, point: NlpPoint) -> float:
    q = problem.cost.control_energy
    if q == 0.0:
        return 0.0
    total = 0.0
    for seg, u in zip(problem.plan.segments, point.controls):
        total += 0.5 * q * seg.dt * float(np.sum(u * u))
    return total


def evaluate_objective(problem: OcProblem, point: NlpPoint, segs=None) -> float:
    """Monte Carlo cost estimate at the given decision point."""
    if segs is None:
        segs = forward_pass(problem, point)
    cost = problem.cost
    value = float(cost.terminal_value(segs[-1][-1]).mean())
    if cost.has_running:
        for seg, states in zip(problem.plan.segments, segs):
            value += seg.dt * float(cost.running_value(states[:-1]).mean(axis=1).sum())
    return value + control_energy_value(problem, point)


def objective_seeds(problem: OcProblem, segs):
    """Terminal and running adjoint seeds of the Monte Carlo objective."""
    cost = problem.cost
    M = problem.M
    terminal = [np.zeros_like(seg[-1]) for seg in segs]
    terminal[-1] = cost.terminal_grad(segs[-1][-1]) / M
    running = [None] * len(segs)
    if cost.has_running:
        for k, (seg, states) in enumerate(zip(problem.plan.segments, segs)):
            arr = np.zeros_like(states)
            # running_grad(states[:-1]) * dt / M, built in place in arr
            np.subtract(states[:-1], cost.running_target, out=arr[:-1])
            arr[:-1] *= cost.running_weights
            arr[:-1] *= seg.dt / M
            running[k] = arr
    return terminal, running


def sweep_gradient(
    problem: OcProblem,
    point: NlpPoint,
    segs,
    terminal_seeds,
    running_seeds,
    batch_size: int | None = None,
    workers: int = 1,
    chain: bool = False,
):
    """Per-segment backward sweeps, last first: (control grads, initial-state
    grads). With chain the trajectory is continuous: each segment's
    initial-state gradient is added to the terminal seed of the one before."""
    n_seg = problem.n_segments
    du, dx0 = [None] * n_seg, [None] * n_seg
    for k in range(n_seg - 1, -1, -1):
        seed = terminal_seeds[k]
        if chain and k < n_seg - 1:
            seed = seed + dx0[k + 1]
        du[k], dx0[k] = backward_gradient(
            problem.segment_scheme(k), problem.model, segs[k], point.controls[k], seed,
            running_seed=running_seeds[k], batch_size=batch_size, workers=workers,
        )
    return du, dx0


def continuity_gaps(problem: OcProblem, point: NlpPoint, segs) -> list[np.ndarray]:
    return [
        segs[k][-1] - point.interface_states[k] for k in range(problem.n_segments - 1)
    ]


def merit_gradient(
    problem: OcProblem,
    point: NlpPoint,
    segs,
    objective: bool = True,
    gap_weight: float = 0.0,
    path_coefs=None,
    chain: bool = False,
    workers: int = 1,
) -> NlpPoint:
    """Exact gradient of objective + gap_weight * continuity + path terms,
    from one backward sweep per segment.

    gap_weight scales the residual sum_k mean_i |gap_i|^2 (no gap terms when
    zero); path_coefs[k] is the (N_k + 1, n) derivative of a path term with
    respect to the ensemble mean at every node. With chain the interface
    states are eliminated (segs from `continuous_forward`): the costate is
    carried across interfaces and the result has no interface block.
    """
    M = problem.M
    if objective:
        terminal, running = objective_seeds(problem, segs)
    else:
        terminal, running = [np.zeros_like(seg[-1]) for seg in segs], [None] * len(segs)
    gaps = continuity_gaps(problem, point, segs) if gap_weight != 0.0 else []
    for k, gap in enumerate(gaps):
        terminal[k] = terminal[k] + (2.0 * gap_weight / M) * gap
    if path_coefs is not None:
        for k, coef in enumerate(path_coefs):
            if running[k] is None:
                running[k] = np.zeros_like(segs[k])
            running[k] = running[k] + coef[:, None, :] / M

    du, dx0 = sweep_gradient(
        problem, point, segs, terminal, running, workers=workers, chain=chain
    )
    q = problem.cost.control_energy if objective else 0.0
    if q != 0.0:
        for k, seg in enumerate(problem.plan.segments):
            du[k] = du[k] + q * seg.dt * point.controls[k]
    if chain:
        return NlpPoint(tuple(du), ())
    iface = dx0[1:]
    for k, gap in enumerate(gaps):
        iface[k] = iface[k] - (2.0 * gap_weight / M) * gap
    return NlpPoint(tuple(du), tuple(iface))


def objective_gradient(
    problem: OcProblem, point: NlpPoint, segs=None, workers: int = 1
):
    """Objective value and its exact gradient as an NlpPoint-shaped bundle."""
    if segs is None:
        segs = forward_pass(problem, point)
    value = evaluate_objective(problem, point, segs)
    return value, merit_gradient(problem, point, segs, workers=workers)


def continuity_residual(
    problem: OcProblem, point: NlpPoint, segs=None, workers: int = 1
):
    """Aggregated interface mismatch c = sum_k mean_i |gap_i|^2 and its gradient.

    One scalar for all samples and interfaces; zero exactly when every sample
    is continuous at every interface.
    """
    if problem.n_segments == 1:
        return 0.0, NlpPoint(tuple(np.zeros_like(c) for c in point.controls), ())
    if segs is None:
        segs = forward_pass(problem, point)
    gaps = continuity_gaps(problem, point, segs)
    value = sum(float(np.sum(g * g)) for g in gaps) / problem.M
    return value, merit_gradient(
        problem, point, segs, objective=False, gap_weight=1.0, workers=workers
    )


@dataclass(frozen=True)
class PathValue:
    segment: int
    step: int
    time: float
    state_index: int
    value: float
    lo: float
    hi: float


def segment_means(segs) -> list[np.ndarray]:
    return [states.mean(axis=1) for states in segs]


def path_constraint_values(problem: OcProblem, point: NlpPoint, segs=None):
    """Ensemble mean of every constrained coordinate at every grid node."""
    if not problem.path_bounds:
        return []
    if segs is None:
        segs = forward_pass(problem, point)
    means = segment_means(segs)
    out = []
    for k, (seg, mean) in enumerate(zip(problem.plan.segments, means)):
        times = seg.t_start + seg.dt * np.arange(seg.steps + 1)
        for pb in problem.path_bounds:
            for j in range(seg.steps + 1):
                out.append(
                    PathValue(
                        segment=k,
                        step=j,
                        time=float(times[j]),
                        state_index=pb.state_index,
                        value=float(mean[j, pb.state_index]),
                        lo=pb.lo,
                        hi=pb.hi,
                    )
                )
    return out


def fd_objective_gradient(problem: OcProblem, point: NlpPoint, h=None) -> NlpPoint:
    """Centered finite differences of the objective over the decision vector.

    Single-segment programs batch all control perturbations through one
    vectorized forward run (each perturbed copy of the ensemble rides along
    the sample axis); multi-segment programs fall back to the serial
    coordinate loop.
    """
    if problem.n_segments == 1:
        return _fd_control_gradient_batched(problem, point, h=h)

    def functional(vec):
        return evaluate_objective(problem, NlpPoint.from_vector(problem, vec))

    flat = fd_gradient(functional, point.to_vector(), h=h)
    return NlpPoint.from_vector(problem, flat)


def _fd_control_gradient_batched(problem: OcProblem, point: NlpPoint, h=None) -> NlpPoint:
    base_u = point.controls[0]
    n_steps, m = base_u.shape
    n_pert = n_steps * m
    steps = (
        np.full(n_pert, h)
        if h is not None
        else 1e-6 * (1.0 + np.abs(base_u.ravel()))
    )

    x0 = initial_ensemble(problem)
    M = problem.M
    # samples axis carries perturbation x sample pairs
    x0_full = np.repeat(x0[None, :, :], 2 * n_pert, axis=0).reshape(-1, problem.model.n)

    def control_rows(j):
        # step j of the 2 * n_pert copies, each differing from the base in one entry
        rows = np.tile(base_u[j], (2 * n_pert, 1))
        ch = np.arange(m)
        c = j * m + ch
        rows[2 * c, ch] += steps[c]
        rows[2 * c + 1, ch] -= steps[c]
        return np.repeat(rows, M, axis=0)

    scheme = problem.segment_scheme(0)
    cost = problem.cost
    dt = problem.plan.segments[0].dt
    state = x0_full
    running_acc = np.zeros(x0_full.shape[0])
    from .integrators import step as _step  # local alias, single-step path

    if scheme.ab_steps is not None and scheme.ab_steps > 1:
        u_full = np.stack([control_rows(j) for j in range(n_steps)])
        states = propagate_segment(scheme, problem.model, x0_full, u_full)
        if cost.has_running:
            running_acc = dt * cost.running_value(states[:-1]).sum(axis=0)
        state = states[-1]
    else:
        for j in range(n_steps):
            if cost.has_running:
                running_acc += dt * cost.running_value(state)
            state = _step(scheme, problem.model, state, control_rows(j))

    term = cost.terminal_value(state)
    per_copy = (term + running_acc).reshape(2 * n_pert, M).mean(axis=1)

    q = cost.control_energy
    plus, minus = per_copy[0::2], per_copy[1::2]
    if q != 0.0:
        u0 = base_u.ravel()
        plus = plus + 0.5 * q * dt * ((u0 + steps) ** 2 - u0**2)
        minus = minus + 0.5 * q * dt * ((u0 - steps) ** 2 - u0**2)
    grad = (plus - minus) / (2.0 * steps)
    return NlpPoint((grad.reshape(n_steps, m),), ())


def problem_times(problem: OcProblem) -> np.ndarray:
    """Left-endpoint control times of the whole plan."""
    return control_times(problem.plan)


def continuous_forward(problem: OcProblem, controls: tuple[np.ndarray, ...]):
    """Propagate the whole horizon continuously: each segment starts from the
    previous segment's endpoint, so interface continuity holds exactly."""
    segs = []
    state = initial_ensemble(problem)
    for k in range(problem.n_segments):
        states = propagate_segment(
            problem.segment_scheme(k), problem.model, state, controls[k]
        )
        segs.append(states)
        state = states[-1]
    return segs
