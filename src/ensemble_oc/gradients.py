"""Exact functional gradients via backward propagation over stored states.

The forward trajectory is kept in memory. One backward step loop serves
every scheme: it walks blocks of time steps from last to first, has
`integrators._linearize_steps` linearize each block once over its stored
states (`DynamicsModel.linearize`), and then runs the costate recursion step
by step through the block's pullback, handing each step the costates of the
nodes after it. So no dense step Jacobian is formed and each step's result
does not depend on the block length. The samples are swept in batches of a
size derived from the state and control dimensions, and the block length
from the batch, so the auxiliary memory is bounded by a fixed multiple of
one batch and does not grow with the number of time steps. K shooting
segments with equal steps may be swept as one stack, on a segment axis
before the sample axis: each batch then holds the same samples of every
segment, at the one-segment batch boundaries, so each segment's gradient is
summed in the same order as its own sweep would sum it. On request the
sweep also records the costate at every node (`costates`), which is the
discrete adjoint trajectory of the minimum-principle check. A central
finite-difference fallback serves as the independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .integrators import StepScheme, _linearize_steps
from .models import DynamicsModel

# fixes the sample-batch boundaries of the sweep, and with them the order in
# which the per-batch control gradients are summed; changing it moves the last
# bits of every gradient
_BATCH_TARGET_FLOATS = 131072


def samples_per_batch(n: int, m: int) -> int:
    return max(1, _BATCH_TARGET_FLOATS // (n * (n + m + 1)))


def _segments_per_sweep(n: int, m: int, n_samples: int) -> int:
    """Stacked segments one sweep takes at once: as many as one sample batch
    has rows for, so that its memory stays that of a one-segment sweep."""
    return max(1, samples_per_batch(n, m) // n_samples)


def _steps_per_block(rows: int, n: int) -> int:
    """Time steps linearized at once for `rows` samples of an n-state model:
    the dense default `linearize` of a block then holds no more Jacobian
    entries than the sample-batch target."""
    return max(1, _BATCH_TARGET_FLOATS // (rows * n * n))


def _seed_accessor(running_seed, n_nodes):
    """Normalize running_seed (None | (N+1, ..., M, n) array | callable) to a
    callable."""
    if running_seed is None:
        return lambda j: None
    if callable(running_seed):
        return running_seed
    arr = np.asarray(running_seed, dtype=float)
    if arr.shape[0] != n_nodes:
        raise ShapeMismatchError(
            f"running seed has {arr.shape[0]} rows, expected {n_nodes}"
        )
    return lambda j: arr[j]


def _sweep(scheme, model, states, controls, lam, seed_at, sl, costates):
    """Backward recursion over one sample batch, one linearized block of time
    steps at a time, last block first. `ahead` holds the costates at the
    nodes after the current one, nearest first, as many as a step reads.
    A stack of segments sweeps every segment's batch at once; the sample
    axis is the one before the state axis in either layout."""
    n_steps = controls.shape[0]
    du = np.zeros(controls.shape)
    block = _steps_per_block(lam[..., 0].size, model.n)
    reach = scheme.ab_steps or 1
    ahead = [lam]
    for end in range(n_steps, 0, -block):
        start = max(0, end - block)
        pull = _linearize_steps(
            scheme, model, states[start:end, ..., sl, :], controls[start:end, ..., None, :],
            start,
        )
        for j in range(end - 1, start - 1, -1):
            lam, lam_u = pull(j - start, ahead)
            du[j] = lam_u.sum(axis=-2)
            seed = seed_at(j)
            if seed is not None:
                lam = lam + seed[..., sl, :]
            if costates is not None:
                costates[j, ..., sl, :] = lam
            ahead.insert(0, lam)
            del ahead[reach:]
    return du, lam


def backward_gradient(
    scheme: StepScheme,
    model: DynamicsModel,
    states: np.ndarray,
    controls: np.ndarray,
    terminal_seed: np.ndarray,
    running_seed=None,
    costates: np.ndarray | None = None,
):
    """Gradient of a seeded scalar functional over one shooting segment, or
    over K stacked segments with equal step size and count.

    states: (N + 1, M, n) stack produced by propagate_segment with the same
    scheme and controls. controls: (N, m), shared across samples.
    terminal_seed: (M, n) rows holding each sample's d(scalar)/dx at the
    segment end. running_seed optionally supplies additional per-node seeds,
    either as an (N + 1, M, n) array or as a callable j -> (M, n) or None.
    costates, when given, is an (N + 1, M, n) array that receives the
    costate at every node, running seeds included; its row 0 equals the
    returned initial-state gradient.

    Returns (dJ/dU, dJ/dX0) with shapes (N, m) and (M, n); the control
    gradient is summed over samples, the initial-state gradient is per
    sample. The sample batches are swept and their control gradients summed
    in sample order.

    Stacked segments carry a segment axis before the sample axis: states and
    costates (N + 1, K, M, n), controls the (N, K, m) stack of the blocks,
    seeds (K, M, n) per node. Each sample batch is swept for all K segments
    at once, at the batch boundaries of one segment, so segment k's slices
    of dJ/dU (N, K, m) and dJ/dX0 (K, M, n) equal what its own sweep gives.
    A batch of K stacked segments has K times the rows of a one-segment
    batch, and so K times the auxiliary memory (`_segments_per_sweep`).
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    terminal_seed = np.asarray(terminal_seed, dtype=float)
    if controls.ndim not in (2, 3):
        raise ShapeMismatchError(
            "backward sweep expects shared (N, m) controls or an (N, K, m) stack"
        )
    lead = controls.shape[1:-1]  # (K,) for a stack, () for one segment
    if states.shape[: 1 + len(lead)] != (controls.shape[0] + 1,) + lead or (
        states.ndim != 3 + len(lead)
    ):
        raise ShapeMismatchError(
            f"stored states of shape {states.shape} do not match {controls.shape[0]} steps"
            + (f" of {lead[0]} segments" if lead else "")
        )
    if terminal_seed.shape != states.shape[1:]:
        raise ShapeMismatchError(
            f"terminal seed shape {terminal_seed.shape} != {states.shape[1:]}"
        )
    if scheme.dt is None:
        raise ParameterError("scheme must have a bound step size")
    if costates is not None and costates.shape != states.shape:
        raise ShapeMismatchError(f"costate output shape {costates.shape} != {states.shape}")

    n_samples = states.shape[-2]
    seed_at = _seed_accessor(running_seed, states.shape[0])
    batch = samples_per_batch(model.n, model.m)
    grad_controls = np.zeros(controls.shape)
    grad_initial = np.empty_like(terminal_seed)
    for start in range(0, n_samples, batch):
        sl = slice(start, min(start + batch, n_samples))
        lam = terminal_seed[..., sl, :].copy()
        seed = seed_at(controls.shape[0])
        if seed is not None:
            lam += seed[..., sl, :]
        if costates is not None:
            costates[-1, ..., sl, :] = lam
        du, grad_initial[..., sl, :] = _sweep(
            scheme, model, states, controls, lam, seed_at, sl, costates
        )
        grad_controls += du
    return grad_controls, grad_initial


def fd_gradient(functional, point: np.ndarray, h: float | None = None) -> np.ndarray:
    """Second-order centered finite differences of a scalar functional.

    The default step 1e-6 * (1 + |coordinate|) keeps the truncation and
    cancellation errors near 1e-7 for well-scaled functionals.
    """
    point = np.asarray(point, dtype=float)
    grad = np.empty(point.size)
    flat = point.ravel()
    for i in range(flat.size):
        hi = h if h is not None else 1e-6 * (1.0 + abs(flat[i]))
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += hi
        minus[i] -= hi
        grad[i] = (functional(plus.reshape(point.shape)) - functional(minus.reshape(point.shape))) / (2.0 * hi)
    return grad.reshape(point.shape)
