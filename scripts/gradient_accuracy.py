#!/usr/bin/env python3
"""Gradient accuracy study on the long-horizon steering benchmark.

Propagates the bicycle-steered vehicle for 1000 steps under random bounded
controls and compares the backward-propagation gradient of the terminal
distance-to-origin cost against centered finite differences, coordinate by
coordinate. Writes a per-grid-point error table and prints the summary.
"""

import argparse
import csv
import time

import numpy as np

import ensemble_oc as eoc
from ensemble_oc import transcription as tr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="gradient_accuracy.csv")
    args = ap.parse_args()

    problem = eoc.build("ugv-bicycle", seed=args.seed)
    rng = np.random.Generator(np.random.Philox(args.seed))
    point = tr.NlpPoint((rng.uniform(-1.0, 1.0, (problem.plan.total_steps, 2)),), ())

    t0 = time.time()
    value, grad = tr.objective_gradient(problem, point)
    t_backward = time.time() - t0
    t0 = time.time()
    fd = tr.fd_objective_gradient(problem, point)
    t_fd = time.time() - t0

    err = np.abs(grad.controls[0] - fd.controls[0])
    times = eoc.control_times(problem.plan)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "abs_error_u1", "abs_error_u2"])
        for j in range(err.shape[0]):
            writer.writerow([f"{times[j]:.17g}", f"{err[j, 0]:.17g}", f"{err[j, 1]:.17g}"])

    print(f"objective value          {value:.9f}")
    print(f"backward sweep           {t_backward * 1e3:.1f} ms")
    print(f"batched finite diff      {t_fd * 1e3:.1f} ms  ({2 * err.size} propagations)")
    print(f"max abs error            {err.max():.3e}")
    print(f"mean abs error           {err.mean():.3e}")
    print(f"table written to         {args.out}")


if __name__ == "__main__":
    main()
