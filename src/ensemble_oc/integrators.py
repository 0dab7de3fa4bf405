"""Fixed-step explicit schemes: the forward step and the reverse pass of each.

Every scheme realizes a discrete map x_{j+1} = Q(x_j, u_j) with the control
held constant over the step; Adams-Bashforth schemes bootstrap their startup
steps with a Runge-Kutta method of matching order. One step loop, `_march`,
drives every scheme forward, over one ensemble or over the stacked
ensembles of several segments with equal steps. It runs block by block of
steps: one error-state scope and one finiteness check per block, each state
written straight into a buffer of the caller, the dt-scaled tableau formed
once per march. `propagate_segment` gives it the output rows; the value-only
objective and the batched finite difference of `transcription` give it room
for one block and reduce each block as it comes. Rows may join a march at a
given step as copies of its first rows: the perturbed copies of the finite
difference join at the step their perturbation enters.
`_linearize_steps` is the reverse pass of every scheme over a block of stored
steps: Runge-Kutta stage states are recomputed with wide `rhs` calls and each
stage is linearized once over the block with the model's `linearize`, so no
dense step Jacobian is formed. The dense step Jacobians of the one-step
schemes stay available in `step_jacobians` as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .errors import DomainError, ParameterError, PropagationError, ShapeMismatchError
from .models import DynamicsModel

# (stage matrix, weights, abscissae)
_BUTCHER = {
    "euler": (
        np.zeros((1, 1)),
        np.array([1.0]),
        np.array([0.0]),
    ),
    "rk2": (
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([0.5, 0.5]),
        np.array([0.0, 1.0]),
    ),
    "rk3": (
        np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]]),
        np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]),
        np.array([0.0, 0.5, 1.0]),
    ),
    "rk4": (
        np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        ),
        np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]),
        np.array([0.0, 0.5, 0.5, 1.0]),
    ),
}

# most recent rhs first
_AB_WEIGHTS = {
    1: np.array([1.0]),
    2: np.array([1.5, -0.5]),
    3: np.array([23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0]),
}

_ORDER = {"euler": 1, "rk2": 2, "rk3": 3, "rk4": 4, "ab1": 1, "ab2": 2, "ab3": 3}
_AB_BOOTSTRAP = {2: "rk2", 3: "rk3"}


@dataclass(frozen=True)
class StepScheme:
    """Explicit integration scheme plus its step size.

    kind is one of euler, rk2, rk3, rk4, ab1, ab2, ab3. dt may be left None
    for schemes that get bound to a segment step size later.
    """

    kind: str
    dt: float | None = None

    def __post_init__(self):
        if self.kind not in _ORDER:
            raise ParameterError(f"unknown scheme kind {self.kind!r}")
        if self.dt is not None and not self.dt > 0:
            raise ParameterError(f"step size must be positive, got {self.dt}")

    @property
    def order(self) -> int:
        return _ORDER[self.kind]

    @property
    def ab_steps(self) -> int | None:
        """Number of history values for Adams-Bashforth kinds, else None."""
        return int(self.kind[2]) if self.kind.startswith("ab") else None

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights of the update; they sum to one for consistency."""
        s = self.ab_steps
        return _AB_WEIGHTS[s] if s else _BUTCHER[self.kind][1]

    def bootstrap(self) -> "StepScheme":
        s = self.ab_steps
        if not s or s == 1:
            raise ParameterError(f"{self.kind} has no bootstrap scheme")
        return StepScheme(_AB_BOOTSTRAP[s], self.dt)

    def with_dt(self, dt: float) -> "StepScheme":
        return replace(self, dt=float(dt))

    def _require_dt(self) -> float:
        if self.dt is None:
            raise ParameterError(f"scheme {self.kind} has no step size bound")
        return self.dt


def _check_finite(x: np.ndarray, step_index=None):
    bad = ~np.isfinite(x)
    if bad.any():
        flat = bad.reshape(-1, x.shape[-1]) if x.ndim > 1 else bad[None, :]
        sample = int(np.flatnonzero(flat.any(axis=1))[0]) if x.ndim > 1 else None
        raise PropagationError(
            f"propagation produced a non-finite state (sample {sample}, step {step_index})",
            sample_index=sample,
            step_index=step_index,
        )


def _tableau(scheme: StepScheme):
    """Butcher tableau of a one-step scheme; ab1 is explicit Euler."""
    return _BUTCHER["euler" if scheme.ab_steps == 1 else scheme.kind]


def _rk_coefficients(scheme: StepScheme):
    """The dt-scaled tableau of a one-step scheme: per stage its (earlier
    stage, dt * a[i, j]) inputs, and the weights dt * b[i] of the update."""
    a, b, _ = _tableau(scheme)
    dt = scheme._require_dt()
    feeds = [[(j, dt * a[i, j]) for j in range(i) if a[i, j] != 0.0] for i in range(b.size)]
    return feeds, [dt * bi for bi in b]


def _stage_points(feeds, model, x, u, n_rhs):
    """Stage points of a Runge-Kutta step from x, and the rhs at the first
    n_rhs of them."""
    points, stages = [], []
    for i, feed in enumerate(feeds):
        xi = x
        for j, c in feed:
            xi = xi + c * stages[j]
        points.append(xi)
        if i < n_rhs:
            stages.append(model.rhs(xi, u))
    return points, stages


def _rk_stepper(scheme: StepScheme):
    """step(model, x, u, dest=None) -> Q(x, u) of a one-step scheme, with its
    dt-scaled tableau formed once; the new state is written to dest when one
    is given."""
    feeds, weights = _rk_coefficients(scheme)

    def step(model, x, u, dest=None):
        _, stages = _stage_points(feeds, model, x, u, len(feeds))
        out = x
        for c, k in zip(weights[:-1], stages):
            out = out + c * k
        return np.add(out, weights[-1] * stages[-1], out=dest)

    return step


def _rk_linearize(scheme: StepScheme, model: DynamicsModel, x, u):
    """Reverse pass of a block of Runge-Kutta steps, linearized once.

    x: (B, K, rows, n) stored states of B consecutive steps of K stacked
    segments, u: (B, K, 1, m) their control rows; a single segment has no
    K axis. The stage states of all B steps are recomputed with s - 1 wide
    `rhs` calls and each stage is linearized once over the block with the
    model's `linearize`.
    The returned pull(j, ahead) -> (lam . dQ/dx, lam . dQ/du) of block step
    j, lam = ahead[0] the costate after the step, walks the stages backward
    through the transposed Butcher tableau (Sandu 2006, "On the properties
    of Runge-Kutta discrete adjoints"), so it is linear in lam. Rows stay
    per sample: shapes (K, rows, n) and (K, rows, m). The caller guarantees
    a one-step scheme with a bound step size.
    """
    a, b, _ = _tableau(scheme)
    dt = scheme._require_dt()
    inputs, out_w = _rk_coefficients(scheme)
    n_stages = b.size
    # the last stage's rhs feeds no later stage, so it is never recomputed
    points, _ = _stage_points(inputs, model, x, u, n_stages - 1)
    pulls = [model.linearize(xi, u) for xi in points]
    # stage i's weight in the update is out_w[i]; these are its (later
    # stage, weight) inputs
    feeds = [[(k, dt * a[k, i]) for k in range(i + 1, n_stages) if a[k, i] != 0.0]
             for i in range(n_stages)]

    def pull(j, ahead):
        lam = ahead[0]
        point_bars = [None] * n_stages
        lam_x, lam_u = lam, 0.0
        for i in range(n_stages - 1, -1, -1):
            stage_bar = out_w[i] * lam
            for k, w in feeds[i]:
                stage_bar = stage_bar + w * point_bars[k]
            point_bars[i], u_bar = pulls[i](j, stage_bar)
            lam_x = lam_x + point_bars[i]
            lam_u = lam_u + u_bar
        return lam_x, lam_u

    return pull


# A march runs its steps in blocks, each in one error-state scope and
# checked for non-finite states once. A block holds at most this many steps
# and, unless one step alone is larger, this many state floats, so a caller
# that keeps no trajectory keeps one block of states (`_march_buffer`).
_BLOCK_STEPS = 16
_BLOCK_FLOATS = 16384


def _steps_per_march_block(floats_per_step: int) -> int:
    return max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // max(1, floats_per_step)))


def _march_buffer(shape, n_steps: int) -> np.ndarray:
    """Zeroed room for one block of march states of the given shape, for a
    caller that keeps no trajectory."""
    rows = min(n_steps, _steps_per_march_block(int(np.prod(shape))))
    return np.zeros((rows,) + tuple(shape))


def _check_block(states, first: int):
    """The per-step check over a block of states: the `PropagationError` of
    the first step with a non-finite state, naming its first bad sample."""
    if not np.isfinite(states).all():
        for i, x in enumerate(states):
            _check_finite(x, step_index=first + i)


def _march(scheme: StepScheme, model: DynamicsModel, x0: np.ndarray, controls, out,
           joins=None):
    """Take one step per control row, writing the state after step j to
    out[j % len(out)], and after each block of steps yield (its first step,
    its states): a view into out that the next block may overwrite.

    The one step loop of every scheme: Runge-Kutta steps, and Adams-Bashforth
    steps after their Runge-Kutta bootstrap. controls is iterated row by row,
    so its rows may be built as the steps run. out holds a row for every step
    (`propagate_segment`) or one block of them (`_march_buffer`). x0 may be a
    (K, M, n) stack of segments' start ensembles with (K, 1, m) rows
    (`_segment_inputs`).

    joins = (base, live) lets rows join a march of (rows, n) states: live[j]
    rows take step j, x0 holds the live[0] rows of step 0, and rows
    live[j - 1]:live[j] join at step j as copies of the first base rows, with
    their state and, for Adams-Bashforth, their rhs history. The rows of out
    are then live[-1] wide; rows not yet joined read zero.

    Each block runs in one error-state scope and is checked for non-finite
    states once, so a non-finite state raises the `PropagationError` of the
    first bad step and sample whatever the block length. An exception at
    step j gives way to the `PropagationError` of an earlier step of its
    block, and a model's `DomainError` gets the step index j.
    """
    dest = out
    if x0.ndim == 3 and x0.shape[0] == 1:
        # a stack of one segment (the value-only objective of a continuous
        # point) steps faster in the plain (M, n) layout
        x0, dest = x0[0], out[:, 0]
        controls = (u[0, 0] for u in controls)
    s = scheme.ab_steps or 1
    if s == 1:
        rk = _rk_stepper(scheme)
    else:
        boot = _rk_stepper(scheme.bootstrap())
        w = _AB_WEIGHTS[s]
        dt = scheme._require_dt()
    base, live = joins if joins is not None else (0, None)
    size = len(out)
    block = min(size, _steps_per_march_block(out[0].size)) if size else 0
    controls = iter(controls)
    x = x0
    history: list[np.ndarray] = []  # rhs values, most recent first
    first = 0
    while block:
        i0 = first % size
        j = first
        failure = None
        try:
            # divergence shows up as non-finite states and is reported below,
            # so intermediate overflow warnings carry no information
            with np.errstate(over="ignore", invalid="ignore"):
                for uj in islice(controls, block):
                    row = dest[i0 + j - first]
                    if live is not None:
                        if j and live[j] > live[j - 1]:
                            x = _join(dest[(j - 1) % size], history, base, live[j - 1], live[j])
                        row = row[: live[j]]
                    if s == 1:
                        x = rk(model, x, uj, row)
                    else:
                        fj = model.rhs(x, uj)
                        if j < s - 1:
                            x = boot(model, x, uj, row)
                        else:
                            acc = w[0] * fj
                            for q in range(1, s):
                                acc = acc + w[q] * history[q - 1]
                            x = np.add(x, dt * acc, out=row)
                        history.insert(0, fj)
                        del history[s - 1 :]
                    j += 1
        except Exception as err:
            failure = err
        states = out[i0 : i0 + j - first]
        _check_block(states, first)
        if failure is not None:
            if isinstance(failure, DomainError):
                failure.step_index = j
            raise failure
        if j == first:
            return
        yield first, states
        if j - first < block:
            return
        first = j


def _join(prev, history, base, before, after):
    """Fill rows before:after of the state row prev with copies of its first
    base rows, extend each rhs history entry alike, and return the joined
    state prev[:after]."""
    reps = (after - before) // base
    prev[before:after] = np.tile(prev[:base], (reps, 1))
    history[:] = [np.concatenate([h, np.tile(h[:base], (reps, 1))]) for h in history]
    return prev[:after]


def _linearize_steps(scheme: StepScheme, model: DynamicsModel, x, u, first: int):
    """Reverse pass of a block of steps of any scheme, linearized once.

    x: (B, K, rows, n) stored states of steps first .. first + B - 1 of K
    stacked segments, u: (B, K, 1, m) their control rows; a single segment
    has no K axis. pull(j, ahead) maps the costates at the nodes after node
    p = first + j, nearest first (up to s of them for an s-step
    Adams-Bashforth scheme, one otherwise), to the costate at node p and
    lam . dQ/du, per sample. An Adams-Bashforth rhs
    f(x_p, u_p) feeds up to s later updates, so node p gathers their weighted
    costates before one model pullback; startup steps add the reverse pass
    of their bootstrap scheme (Sandu 2008, "Reverse automatic
    differentiation of linear multistep methods").
    """
    s = scheme.ab_steps
    if not s or s == 1:
        return _rk_linearize(scheme, model, x, u)
    w = _AB_WEIGHTS[s]
    dt = scheme._require_dt()
    model_pull = model.linearize(x, u)

    def pull(j, ahead):
        p = first + j
        gather = np.zeros_like(ahead[0])
        for i in range(max(0, s - 1 - p), len(ahead)):
            gather += w[i] * ahead[i]
        gather *= dt
        lam_x, lam_u = model_pull(j, gather)
        if p > s - 2:
            return ahead[0] + lam_x, lam_u
        boot_pull = _rk_linearize(scheme.bootstrap(), model, x[j : j + 1], u[j : j + 1])
        boot_x, boot_u = boot_pull(0, ahead)
        return boot_x + lam_x, boot_u + lam_u

    return pull


def step_jacobians(scheme: StepScheme, model: DynamicsModel, x, u):
    """Exact Jacobians (dQ/dx, dQ/du) of a single Runge-Kutta step.

    Shapes follow the batch convention of the models: (..., n, n) and
    (..., n, m). Adams-Bashforth kinds with s > 1 depend on several past
    states and are rejected here; the backward sweep differentiates them.
    """
    if scheme.ab_steps not in (None, 1):
        raise ParameterError(
            f"{scheme.kind} is a multi-step map; its derivatives live in the backward sweep"
        )
    a, b, _ = _tableau(scheme)
    dt = scheme._require_dt()
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n, m = model.n, model.m
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    eye = np.broadcast_to(np.eye(n), batch + (n, n))

    stages, dk_dx, dk_du = [], [], []
    for i in range(b.size):
        xi = x
        sx = eye
        su = np.zeros(batch + (n, m))
        for j in range(i):
            if a[i, j] != 0.0:
                xi = xi + dt * a[i, j] * stages[j]
                sx = sx + dt * a[i, j] * dk_dx[j]
                su = su + dt * a[i, j] * dk_du[j]
        stages.append(model.rhs(xi, u))
        jx = model.jac_x(xi, u)
        dk_dx.append(jx @ sx if i else jx)
        dk_du.append(jx @ su + model.jac_u(xi, u) if i else model.jac_u(xi, u))

    a_mat = eye + dt * sum(bi * d for bi, d in zip(b, dk_dx))
    b_mat = dt * sum(bi * d for bi, d in zip(b, dk_du))
    return a_mat, b_mat


def _segment_inputs(model: DynamicsModel, x0, controls):
    """The float start and control rows of one segment, after its shape checks.

    x0 is an (M, n) ensemble, or a (K, M, n) stack of the start ensembles of
    K segments with equal steps. controls are (N, m) rows shared across
    samples or (N, M, m) per-sample rows; a stacked start takes the (N, K, m)
    stack of the segments' blocks, whose step rows are returned as (K, 1, m),
    so each broadcasts over its own segment's samples.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 3:
        x0 = np.atleast_2d(x0)
    controls = np.asarray(controls, dtype=float)
    if controls.ndim not in (2, 3):
        raise ShapeMismatchError(f"controls must be (N, m) or (N, M, m), got {controls.shape}")
    if controls.shape[-1] != model.m:
        raise ShapeMismatchError(
            f"control dimension {controls.shape[-1]} != model.m = {model.m}"
        )
    if x0.ndim == 3:
        if controls.ndim != 3 or controls.shape[1] != x0.shape[0]:
            raise ShapeMismatchError(
                f"{x0.shape[0]} stacked start ensembles need (N, {x0.shape[0]}, m) "
                f"controls, got {controls.shape}"
            )
        return x0, controls[:, :, None, :]
    if controls.ndim == 3 and controls.shape[1] != x0.shape[0]:
        raise ShapeMismatchError("per-sample controls do not match the ensemble size")
    return x0, controls


def propagate_segment(
    scheme: StepScheme,
    model: DynamicsModel,
    x0: np.ndarray,
    controls: np.ndarray,
) -> np.ndarray:
    """Push the whole ensemble forward through one shooting segment.

    x0: (M, n) initial ensemble. controls: (N, m) rows shared across samples
    or (N, M, m) per-sample rows. Returns the (N + 1, M, n) stack of states
    including x0; all samples advance simultaneously in lock step.
    K segments with equal step size and count advance together from a
    (K, M, n) stack of their start ensembles under the (N, K, m) stack of
    their control blocks; the result is then (N + 1, K, M, n), and segment
    k's states are [:, k]. A failure of a stacked march indexes the stack,
    not one segment: `PropagationError` names a row of the flattened (K M)
    samples and a model's `DomainError` may name a segment.
    """
    x0, controls = _segment_inputs(model, x0, controls)
    out = np.empty((controls.shape[0] + 1,) + x0.shape)
    out[0] = x0
    for _ in _march(scheme, model, x0, controls, out[1:]):
        pass
    return out
