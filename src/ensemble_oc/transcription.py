"""Discrete ensemble optimal-control program over (controls, interface states).

The decision vector couples the piecewise-constant control values with the
per-sample states at interior segment interfaces. Segment 1 always starts
from the fixed seeded ensemble; continuity across interfaces is enforced
through a single aggregated sum-of-squares residual. Objective, continuity
and ensemble-mean path quantities all share one forward pass; an objective
value asked for without a stored trajectory marches the segments and reduces
the running cost as it goes, so it keeps none. Their
gradients come from one seed assembler, `merit_gradient`, and the backward
sweeps of `sweep_gradient`. Given its start states each segment is
independent, so the segments of a point with interface states that share
(dt, steps) march as one stack on a leading segment axis, (K, M, n) states
under (K, 1, m) control rows, and are swept as one stack wherever a sample
batch of the sweep holds all their samples; every result equals, bit for
bit, that of marching and sweeping the segments one at a time. A point
without interface states is the continuous (single-shooting) trajectory:
each segment starts where the one before ends, there are no gaps, and the
sweeps carry the costate across interfaces, one segment after another. The
finite-difference cross-check, `fd_objective_gradient`, runs
each segment once with all its perturbed copies along the sample axis, for
every plan and scheme; each perturbed copy joins the march at the step its
perturbation enters, from the unperturbed rows' state and running cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParameterError, PropagationError, ShapeMismatchError
from .gradients import backward_gradient, _segments_per_sweep
from .grids import ControlSchedule, ShootingPlan
from .integrators import (
    StepScheme, _march, _march_buffer, _segment_inputs, propagate_segment,
)
from .models import DynamicsModel
from .sampling import RandomInputSpec, _check_seed, sample_initial_ensemble


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
        # the log barrier has no interior when lo == hi
        if self.lo >= self.hi:
            raise ParameterError(
                f"path bound on state {self.state_index} needs lo < hi, got ({self.lo}, {self.hi})"
            )


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
        _check_seed(self.seed)  # before any caller writes output
        if self.initial.dim != self.model.n:
            raise ParameterError(
                f"initial spec dimension {self.initial.dim} != state dimension {self.model.n}"
            )
        for name in ("control_lo", "control_hi"):
            arr = getattr(self, name)
            if arr.shape != (self.model.m,):
                raise ShapeMismatchError(f"{name} must have shape ({self.model.m},)")
        # the log barrier has no interior when lo == hi
        shut = np.flatnonzero(self.control_lo >= self.control_hi)
        if shut.size:
            raise ParameterError(
                f"control_bounds: lo must be below hi on channel(s) {shut.tolist()}"
            )
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
    states opening each segment after the first. Without those states the
    point is the continuous trajectory of its controls."""

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
    segs = _shoot(problem, blocks[:-1], ())
    return NlpPoint(blocks, tuple(states[-1].copy() for states in segs))


class _Segments(list):
    """Per-segment (N_k + 1, M, n) state stacks of a forward pass, each a view
    into the (N + 1, K, M, n) stack of the segments it marched with; `stacks`
    pairs each such group's segment indices with that stack."""

    __slots__ = ("stacks",)


def _groups(problem: OcProblem, count: int, continuous: bool) -> list[tuple[int, ...]]:
    """The first `count` segments in groups that march as one stack: those
    with equal (dt, steps), each group in segment order and the groups in the
    order of their first segment. A group holds at most as many segments as
    one sample batch of the sweep has rows for (`_segments_per_sweep`): the
    stack saves per-step call overhead, which at larger ensembles is small
    against the arithmetic, while one large stack allocation raised the peak
    resident memory. A continuous point's segments start where the one
    before ends, so each marches alone."""
    if continuous:
        return [(k,) for k in range(count)]
    model = problem.model
    size = _segments_per_sweep(model.n, model.m, problem.M)
    groups = {}
    for k, seg in enumerate(problem.plan.segments[:count]):
        groups.setdefault((seg.dt, seg.steps), []).append(k)
    return [tuple(group[i : i + size]) for group in groups.values()
            for i in range(0, len(group), size)]


def _control_stack(problem: OcProblem, controls, group) -> np.ndarray:
    """The (N, K, m) stack of the group's control blocks."""
    shape = (problem.plan.segments[group[0]].steps, problem.model.m)
    blocks = [np.asarray(controls[k], dtype=float) for k in group]
    for k, block in zip(group, blocks):
        if block.shape != shape:
            raise ShapeMismatchError(
                f"control block {k} has shape {block.shape}, expected {shape}"
            )
    return np.stack(blocks, axis=1)


def _march_group(problem: OcProblem, controls, starts, group, start, run):
    """run(scheme, stacked start, (N, K, m) controls) for one group.

    A stacked march that fails indexes the stack, so on a `PropagationError`
    or `DomainError` the segments from the group's first on are marched one
    at a time, as a pass segment by segment would, and the error of the first
    one that fails is raised: its sample and step are that segment's own.
    Segments before the group's first have marched already, without error.
    """
    first = group[0]
    try:
        return run(problem.segment_scheme(first), start, _control_stack(problem, controls, group))
    except (PropagationError, DomainError) as err:
        failure = err
    x = start[0]
    for k in range(first, len(controls)):
        if k > first and starts:
            x = starts[k - 1]
        x, u = _segment_inputs(problem.model, x, controls[k])
        for _, states in _march(problem.segment_scheme(k), problem.model, x, u,
                                _march_buffer(x.shape, u.shape[0])):
            pass
        x = states[-1]
    raise failure


def _marched_groups(problem: OcProblem, controls, starts, run):
    """Yield (group, final states, result) for every group of segments, in
    order, where run(scheme, stacked start, (N, K, m) controls) -> (the
    group's (K, M, n) final states, result). Segment k > 0 starts from
    starts[k - 1], or, where starts is empty, from the end of segment k - 1."""
    x0 = initial_ensemble(problem)
    end = x0
    for group in _groups(problem, len(controls), not starts):
        if starts:
            start = np.stack([starts[k - 1] if k else x0 for k in group])
        else:
            start = end[None]
        final, result = _march_group(problem, controls, starts, group, start, run)
        end = final[0]
        yield group, final, result


def _shoot(problem: OcProblem, controls, starts) -> _Segments:
    """Propagate one segment per control block. Segment k > 0 starts from
    starts[k - 1], or, where starts is empty, from the end of segment k - 1.
    Segments with given starts and equal (dt, steps) march as one stack."""
    segs = _Segments([None] * len(controls))
    segs.stacks = []

    def run(scheme, start, u):
        if len(start) == 1:  # one segment, in the layout it has alone
            stack = propagate_segment(scheme, problem.model, start[0], u[:, 0])[:, None]
        else:
            stack = propagate_segment(scheme, problem.model, start, u)
        return stack[-1], stack

    for group, _, stack in _marched_groups(problem, controls, starts, run):
        segs.stacks.append((group, stack))
        for i, k in enumerate(group):
            segs[k] = stack[:, i]
    return segs


def _check_layout(problem: OcProblem, point: NlpPoint):
    n_seg = problem.n_segments
    if len(point.controls) != n_seg or len(point.interface_states) not in (0, n_seg - 1):
        raise ShapeMismatchError(
            f"point with {len(point.controls)} control blocks and {len(point.interface_states)} "
            f"interface states does not match {n_seg} segments ({n_seg - 1} or 0 states)"
        )


def forward_pass(problem: OcProblem, point: NlpPoint) -> list[np.ndarray]:
    """Propagate every segment: from the point's own interface states, or,
    for a point without them, continuously from the end of the one before.

    Returns one (N_k + 1, M, n) state stack per segment. Segments with
    interface states and equal (dt, steps) march together, and their stacks
    are views [:, k] of one (N + 1, K, M, n) array, which the sweeps of
    `sweep_gradient` read whole."""
    _check_layout(problem, point)
    return _shoot(problem, point.controls, point.interface_states)


def control_energy_value(problem: OcProblem, point: NlpPoint) -> float:
    q = problem.cost.control_energy
    if q == 0.0:
        return 0.0
    total = 0.0
    for seg, u in zip(problem.plan.segments, point.controls):
        total += 0.5 * q * seg.dt * float(np.sum(u * u))
    return total


def _marched_costs(problem: OcProblem, point: NlpPoint):
    """(final ensemble, per-segment node means of the running cost) from
    marching the segments as `forward_pass` would, keeping no trajectory.

    The march writes each block of states into one node block, whose
    running cost is reduced at once: each node's mean over the samples lands
    in a per-segment array, as the stored stack would give it. The node
    means are None without a running cost.
    """
    _check_layout(problem, point)
    cost, model = problem.cost, problem.model

    def run(scheme, x, u):
        x, u = _segment_inputs(model, x, u)
        n_steps = u.shape[0]
        march = _march(scheme, model, x, u, _march_buffer(x.shape, n_steps))
        if not cost.has_running:
            for _, nodes in march:
                pass
            return nodes[-1], None
        means = np.empty((x.shape[0], n_steps))
        means[:, :1] = cost.running_value(x[None]).mean(axis=2).T
        for first, nodes in march:
            # nodes first + 1 .. first + count; the last node has no running cost
            count = min(len(nodes), n_steps - 1 - first)
            means[:, first + 1 : first + 1 + count] = (
                cost.running_value(nodes[:count]).mean(axis=2).T
            )
        return nodes[-1], means

    n_seg = len(point.controls)
    finals, node_means = [None] * n_seg, [None] * n_seg
    for group, final, means in _marched_groups(
        problem, point.controls, point.interface_states, run
    ):
        for i, k in enumerate(group):
            finals[k] = final[i]
            node_means[k] = None if means is None else means[i]
    return finals[-1], node_means


def evaluate_objective(problem: OcProblem, point: NlpPoint, segs=None) -> float:
    """Monte Carlo cost estimate at the given decision point.

    With the stored trajectory `segs` the cost is read from it; without, the
    segments are marched and reduced as they go, so no trajectory is kept.
    """
    cost = problem.cost
    if segs is None:
        final, node_means = _marched_costs(problem, point)
    else:
        running = cost.has_running
        final = segs[-1][-1]
        node_means = [
            cost.running_value(states[:-1]).mean(axis=1) if running else None
            for states in segs
        ]
    value = float(cost.terminal_value(final).mean())
    for seg, means in zip(problem.plan.segments, node_means):
        if means is not None:
            value += seg.dt * float(means.sum())
    return value + control_energy_value(problem, point)


def _sweep_units(segs):
    """(segments, stored states) of every backward sweep, last first: a group
    of stacked segments with its (N + 1, K, M, n) stack, and a segment that
    marched alone with its (N + 1, M, n) states."""
    # states stored apart, not by `forward_pass`, are each a group of one
    stacks = getattr(segs, "stacks", None) or [((k,), None) for k in range(len(segs))]
    units = [(group, stack) if len(group) > 1 else (group, segs[group[0]])
             for group, stack in stacks]
    return sorted(units, key=lambda unit: unit[0][-1], reverse=True)


def _sweep_seeds(problem: OcProblem, segs, unit, states, objective, gaps, gap_weight,
                 path_coefs):
    """Terminal and running adjoint seeds of one sweep, in the layout of its
    states: a (K, M, n) terminal seed for a stack, an (M, n) one for one
    segment, and a running seed like the states, or None. The objective
    seeds the last segment's end and, with a running cost, every node; the
    gaps seed the segment ends and the path coefficients every node."""
    cost, M = problem.cost, problem.M
    terminal = np.zeros(states.shape[1:])
    running = None
    if objective and cost.has_running:
        running = np.zeros_like(states)
        # running_grad(states[:-1]) * dt / M, built in place
        np.subtract(states[:-1], cost.running_target, out=running[:-1])
        running[:-1] *= cost.running_weights
        running[:-1] *= problem.plan.segments[unit[0]].dt / M
    for i, k in enumerate(unit):
        at = (i,) if len(unit) > 1 else ()  # segment k's entry of the seeds
        if objective and k == len(segs) - 1:
            terminal[at] = cost.terminal_grad(segs[k][-1]) / M
        if k < len(gaps):
            terminal[at] += (2.0 * gap_weight / M) * gaps[k]
        if path_coefs is not None:
            if running is None:
                running = np.zeros_like(states)
            running[(slice(None),) + at] += path_coefs[k][:, None, :] / M
    return terminal, running


def sweep_gradient(problem: OcProblem, point: NlpPoint, segs, objective=True, gaps=(),
                   gap_weight=0.0, path_coefs=None):
    """Backward sweeps of `_sweep_units`, last first: (per-segment control
    grads, per-segment initial-state grads) of the seeds `_sweep_seeds`
    builds, which live only as long as their sweep. A point without
    interface states is continuous: each segment's initial-state gradient is
    added to the terminal seed of the one before."""
    n_seg = len(segs)
    du, dx0 = [None] * n_seg, [None] * n_seg
    for unit, states in _sweep_units(segs):
        terminal, running = _sweep_seeds(
            problem, segs, unit, states, objective, gaps, gap_weight, path_coefs
        )
        k = unit[0]
        if not point.interface_states and k < n_seg - 1:
            terminal += dx0[k + 1]
        g_u, g_x = backward_gradient(
            problem.segment_scheme(k), problem.model, states,
            _control_stack(problem, point.controls, unit) if len(unit) > 1
            else point.controls[k],
            terminal, running_seed=running,
        )
        if len(unit) == 1:
            du[k], dx0[k] = g_u, g_x
        else:
            for i, k in enumerate(unit):
                du[k], dx0[k] = g_u[:, i], g_x[i]
    return du, dx0


def continuity_gaps(problem: OcProblem, point: NlpPoint, segs) -> list[np.ndarray]:
    """End of segment k minus interface state k; none for a continuous point."""
    return [states[-1] - start for states, start in zip(segs, point.interface_states)]


def merit_gradient(
    problem: OcProblem,
    point: NlpPoint,
    segs,
    objective: bool = True,
    gap_weight: float = 0.0,
    path_coefs=None,
) -> NlpPoint:
    """Exact gradient of objective + gap_weight * continuity + path terms,
    from one backward sweep per segment.

    gap_weight scales the residual sum_k mean_i |gap_i|^2 (no gap terms when
    zero); path_coefs[k] is the (N_k + 1, n) derivative of a path term with
    respect to the ensemble mean at every node. The result has the point's
    layout: for a continuous point (no interface states) the costate is
    carried across interfaces and there is no interface block.
    """
    M = problem.M
    gaps = continuity_gaps(problem, point, segs) if gap_weight != 0.0 else []
    du, dx0 = sweep_gradient(problem, point, segs, objective, gaps, gap_weight, path_coefs)
    q = problem.cost.control_energy if objective else 0.0
    if q != 0.0:
        for k, seg in enumerate(problem.plan.segments):
            du[k] = du[k] + q * seg.dt * point.controls[k]
    iface = dx0[1:] if point.interface_states else []
    for k, gap in enumerate(gaps):
        iface[k] = iface[k] - (2.0 * gap_weight / M) * gap
    return NlpPoint(tuple(du), tuple(iface))


def objective_gradient(problem: OcProblem, point: NlpPoint, segs=None):
    """Objective value and its exact gradient as an NlpPoint-shaped bundle."""
    if segs is None:
        segs = forward_pass(problem, point)
    value = evaluate_objective(problem, point, segs)
    return value, merit_gradient(problem, point, segs)


def continuity_residual(problem: OcProblem, point: NlpPoint, segs=None):
    """Aggregated interface mismatch c = sum_k mean_i |gap_i|^2 and its gradient.

    One scalar for all samples and interfaces; zero exactly when every sample
    is continuous at every interface.
    """
    if not point.interface_states:
        return 0.0, NlpPoint(tuple(np.zeros_like(c) for c in point.controls), ())
    if segs is None:
        segs = forward_pass(problem, point)
    gaps = continuity_gaps(problem, point, segs)
    value = sum(float(np.sum(g * g)) for g in gaps) / problem.M
    return value, merit_gradient(problem, point, segs, objective=False, gap_weight=1.0)


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

    With its start states given, a segment's share of the objective depends
    only on its own controls and start states, so each segment takes one
    vectorized forward run with its perturbed copies along the sample axis:
    the M base samples, then, after the first segment, two perturbed copies
    of one sample per start-state entry, then two perturbed copies of the
    ensemble per control entry, grouped by step. A copy perturbed at step j
    equals the base ensemble until then, so each perturbed copy joins the
    march at the step its perturbation enters, with the base rows' state and
    running-cost sum. Steps follow `fd_gradient`: h, or 1e-6 * (1 + |coordinate|).
    """
    last = problem.n_segments - 1
    if len(point.controls) != last + 1 or len(point.interface_states) != last:
        raise ShapeMismatchError(
            "finite differences run each segment from its own start states: the point "
            f"needs {last + 1} control blocks and {last} interface states, got "
            f"{len(point.controls)} and {len(point.interface_states)}"
        )
    cost, M, n = problem.cost, problem.M, problem.model.n
    has_running = cost.has_running

    def fd_steps(v):
        return np.full(v.size, h) if h is not None else 1e-6 * (1.0 + np.abs(v.ravel()))

    du, dx0 = [], []
    for k, seg in enumerate(problem.plan.segments):
        base_u = point.controls[k]
        n_steps, m = base_u.shape
        steps = fd_steps(base_u)
        x0 = initial_ensemble(problem) if k == 0 else point.interface_states[k - 1]
        parts = [x0]
        if k > 0:
            hx = fd_steps(x0)
            one = np.repeat(x0, 2 * n, axis=0)
            e = np.arange(x0.size)
            one[2 * e, e % n] += hx
            one[2 * e + 1, e % n] -= hx
            parts.append(one)
        # the ensemble copies of step j, copies 2c and 2c + 1 of control
        # entry c = j m + channel, take rows live[j - 1]:live[j]
        fixed = sum(len(part) for part in parts)
        per_step = 2 * m * M
        live = fixed + per_step * np.arange(1, n_steps + 1)
        state = np.concatenate(parts + [np.tile(x0, (2 * m, 1))])
        ch = np.arange(m)

        def control_rows(j):
            rows = np.tile(base_u[j], (live[j], 1))
            c = j * m + ch
            ens = rows[live[j] - per_step :].reshape(m, 2, M, m)
            ens[ch, 0, :, ch] += steps[c][:, None]
            ens[ch, 1, :, ch] -= steps[c][:, None]
            return rows

        running = np.zeros(live[-1])
        if has_running:
            running[: live[0]] += seg.dt * cost.running_value(state)
        march = _march(
            problem.segment_scheme(k), problem.model, state,
            (control_rows(j) for j in range(n_steps)),
            _march_buffer((live[-1], n), n_steps), (M, live),
        )
        for first, nodes in march:
            if not has_running:
                continue
            # node i, as many rows as took step i - 1; the last node has no
            # running cost
            for i, x in enumerate(nodes[: n_steps - 1 - first], first + 1):
                running[: live[i - 1]] += seg.dt * cost.running_value(x[: live[i - 1]])
                running[live[i - 1] : live[i]] = np.tile(running[:M], 2 * m)
        # the terminal cost over the copies alone, ensemble copies first:
        # its matrix-vector product may round a row by its place among the
        # rows, and this keeps the values independent of the base rows and
        # of the joins
        order = np.r_[fixed : live[-1], M:fixed]
        value = running[order]
        if k == last:
            value = cost.terminal_value(nodes[-1][order]) + value
        n_ens = live[-1] - fixed

        per_copy = value[:n_ens].reshape(-1, M).mean(axis=1)
        plus, minus = per_copy[0::2], per_copy[1::2]
        q = cost.control_energy
        if q != 0.0:
            u0 = base_u.ravel()
            plus = plus + 0.5 * q * seg.dt * ((u0 + steps) ** 2 - u0**2)
            minus = minus + 0.5 * q * seg.dt * ((u0 - steps) ** 2 - u0**2)
        du.append(((plus - minus) / (2.0 * steps)).reshape(base_u.shape))
        if k > 0:
            per_row = value[n_ens:] / M
            dx0.append(((per_row[0::2] - per_row[1::2]) / (2.0 * hx)).reshape(x0.shape))
    return NlpPoint(tuple(du), tuple(dx0))
