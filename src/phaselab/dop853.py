"""DOP853 runs with dense output, bit for bit as scipy's solve_ivp gives them.

scipy's DOP853 gives the first derivative, the initial step and the
method's tables (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10);
the loop here takes the steps.  It writes its stage states, error vectors
and dense-output rows into arrays made once per run (numpy's out=).  That
keeps scipy's bits: each is the same ufunc or dot call on the same operands
in the same order, at most with the two operands of one + or * swapped,
which is exact in IEEE 754; nothing is reassociated.  The state is a flat
vector; what its entries mean, and when a run must stop, is the caller's.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DynamicsError


class DenseRun(NamedTuple):
    """A finished DOP853 run: its step ends ts, each step's interpolant
    (F, y_old) as scipy's Dop853DenseOutput holds it (its t_old and h are
    ts[k] and ts[k + 1] - ts[k]), its RHS call count nfev, and stop, which
    is None or (k, t, state) for a run that its stop ended: entry k of the
    stop's distances reached 0 at time t in that state."""

    ts: np.ndarray
    steps: list
    nfev: int
    stop: tuple | None

    def sol(self, t: np.ndarray, columns: np.ndarray | None = None
            ) -> np.ndarray:
        """States at the 1-D times t, shape (n, len(t)), bit for bit as
        scipy's OdeSolution and Dop853DenseOutput give them: each time
        reads the step whose (t_old, t] holds it, clipped to the first and
        last step, and the interpolant is summed in the same Horner steps
        in the same order.  All points are read in one pass, over the
        coefficients of the contiguous steps from the first to the last
        step they fall in; reads are local in time, so that is few more.

        With columns, an integer array of shape (len(t), k), time t[i]
        reads only the state entries columns[i], and the result has shape
        (k, len(t))."""
        seg = np.clip(np.searchsorted(self.ts, t, "left") - 1,
                      0, len(self.steps) - 1)
        lo, hi = seg.min(), seg.max() + 1
        seg -= lo
        steps = self.steps[lo:hi]
        x = ((t - self.ts[lo:hi][seg])
             / np.diff(self.ts[lo:hi + 1])[seg])[:, None]
        # (power, step, state): a power's rows gather contiguously
        coefficients = np.stack([F for F, _ in steps], axis=1)
        y_old = np.array([y for _, y in steps])
        width = y_old.shape[1]
        if columns is None:
            columns = np.arange(width)
        # flat positions in a (step, state) array of each point's values
        index = seg[:, None] * width + columns
        y = np.zeros(index.shape)
        rows = np.empty_like(y)
        for i, f in enumerate(coefficients[::-1]):
            y += f.take(index, out=rows, mode="clip")
            y *= x if i % 2 == 0 else 1 - x
        y += y_old.take(index, out=rows, mode="clip")
        return y.T


def run(rhs, y0: np.ndarray, t_end: float, rtol: float, atol: float,
        stop) -> DenseRun:
    """One DOP853 run of y' = rhs(t, y) from y(0) = y0 to t = t_end.

    It makes the numpy calls of scipy's rk_step, error norm, step-size
    control and dense output, in scipy's order, into one stage buffer per
    run, so the step sequence, the RHS calls and the dense output are those
    of scipy's solve_ivp bit for bit (TestDenseRun), without its per-step
    objects and wrappers.  y_new and each step's F are fresh arrays, as the
    steps keep them; the RHS must return a fresh array and keep no
    reference to the state it is handed.

    stop(y) returns signed distances, each positive while the run may go
    on.  The run ends at the end of the first step where one is <= 0, and
    finds that entry's zero on the step's dense output as solve_ivp's
    terminal events do (brentq, xtol = rtol = 4 eps); when two cross in
    one step the earlier crossing counts.  Raises DynamicsError when a
    step fails.

    scipy is imported here rather than with phaselab: scipy.integrate
    takes longer to import than most scenarios take to run."""
    from scipy.integrate import DOP853
    from scipy.optimize import brentq

    tol = 4 * np.finfo(float).eps
    start = DOP853(rhs, 0.0, y0, t_end, rtol=rtol, atol=atol)
    rtol, atol, nfev = start.rtol, start.atol, start.nfev
    t, y, f, h_abs = 0.0, start.y, start.f, float(start.h_abs)
    # the 16 stages of a step and its dense output; K[new] is f at the
    # step's end
    K = np.empty((DOP853.D.shape[1], len(y)))
    new = DOP853.n_stages

    # (s, K[:s].T, a[:s], c) of each stage s from first on: it evaluates
    # the RHS at t + c h, y + (K[:s].T @ a[:s]) h
    def stages(A, C, first):
        return [(s, K[:s].T, a[:s], float(c))
                for s, (a, c) in enumerate(zip(A, C), start=first)]

    step_stages = stages(DOP853.A[1:], DOP853.C[1:], 1)
    dense_stages = stages(DOP853.A_EXTRA, DOP853.C_EXTRA, new + 1)
    weights, errors = K[:new].T, K[:new + 1].T
    # a stage's state (and h (f + K[0]) of the dense output), the error
    # scale and the two error vectors, rewritten at every stage or step;
    # y_new and F are made fresh, as steps keeps them
    stage_y, scale, err5, err3 = np.empty((4, len(y)))
    ts, steps, stops = [0.0], [], []
    while t < t_end and not stops:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise DynamicsError("Required step size is less than "
                                    "spacing between numbers.")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0] = f
            for s, stage, a, c in step_stages:
                np.dot(stage, a, out=stage_y)
                stage_y *= h
                stage_y += y
                K[s] = rhs(t + c * h, stage_y)
            # y + h * np.dot(weights, B)
            y_new = np.dot(weights, DOP853.B)
            y_new *= h
            y_new += y
            K[new] = rhs(t + h, y_new)
            nfev += new
            # atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            np.maximum(np.abs(y, out=scale), np.abs(y_new, out=err5),
                       out=scale)
            scale *= rtol
            scale += atol
            np.dot(errors, DOP853.E5, out=err5)
            err5 /= scale
            np.dot(errors, DOP853.E3, out=err3)
            err3 /= scale
            # squared norms as np.linalg.norm(x)**2 takes them
            e5 = math.sqrt(err5.dot(err5)) ** 2
            e3 = math.sqrt(err3.dot(err3)) ** 2
            error_norm = (h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
                          if e5 != 0 or e3 != 0 else 0.0)
            # scipy's step control: safety 0.9, the step changed by a
            # factor in [0.2, 10], error exponent -1/8
            if error_norm < 1:
                factor = (10 if error_norm == 0
                          else min(10, 0.9 * error_norm ** -0.125))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        f = K[new].copy()
        for s, stage, a, c in dense_stages:
            np.dot(stage, a, out=stage_y)
            stage_y *= h
            stage_y += y
            K[s] = rhs(t + c * h, stage_y)
        nfev += len(dense_stages)
        F = np.empty((DOP853.D.shape[0] + 3, len(y)))
        # delta_y = y_new - y, F[1] = h * K[0] - delta_y,
        # F[2] = 2 * delta_y - h * (f + K[0]), F[3:] = h * np.dot(D, K)
        delta_y, F1, F2, F3 = F[0], F[1], F[2], F[3:]
        np.subtract(y_new, y, out=delta_y)
        np.multiply(h, K[0], out=F1)
        F1 -= delta_y
        np.add(f, K[0], out=stage_y)
        stage_y *= h
        np.multiply(2, delta_y, out=F2)
        F2 -= stage_y
        np.dot(DOP853.D, K, out=F3)
        F3 *= h
        ts.append(t_new)
        steps.append((F, y))
        crossed = [k for k, d in enumerate(stop(y_new)) if d <= 0]
        if crossed:
            # each crossing on this step's own interpolant, as solve_ivp's
            # events find it
            last = DenseRun(np.array([t, t_new]), steps[-1:], nfev, None)

            def state(s):
                return last.sol(np.array([s]))[:, 0]

            stops = [(brentq(lambda s: stop(state(s))[k], t, t_new,
                             xtol=tol, rtol=tol), k)
                     for k in crossed]
        t, y = t_new, y_new
    end = None
    if stops:
        t, k = min(stops)
        end = (k, t, state(t))
    return DenseRun(np.array(ts), steps, nfev, end)
