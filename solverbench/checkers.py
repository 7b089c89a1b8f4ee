"""Independent checks of solver and CLI outputs.

Nothing here imports coneccp: constraint values, objectives, eigenvalues and
LP optima are recomputed from the benchmark's own raw instance data with
numpy (and scipy's HiGHS for the master LPs).  A failed check raises
:class:`CheckFailed`, so checks survive ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7          # iterate feasibility, as the CCP guarantees it
DESCENT_TOL = 1e-10      # strict descent margin between CCP iterates
MERIT_SLACK = 1e-8       # relative slack of the merit and descent tests
LP_RTOL = 1e-7           # master-LP objective against HiGHS


class CheckFailed(Exception):
    """A solver output contradicts an independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Constraint maps and objectives rebuilt from raw data


def lambda_max(blocks) -> float:
    """Largest eigenvalue over symmetric blocks (1-d blocks are diagonals)."""
    return max(float(np.max(b)) if np.ndim(b) == 1
               else float(np.linalg.eigvalsh(b)[-1]) for b in blocks)


def pos_norm(blocks) -> float:
    """Norm of the positive part, i.e. the distance to the negative cone."""
    total = 0.0
    for b in blocks:
        w = np.asarray(b) if np.ndim(b) == 1 else np.linalg.eigvalsh(b)
        total += float(np.sum(np.maximum(w, 0.0) ** 2))
    return math.sqrt(total)


def identity_pairing(blocks) -> float:
    """<e, s> for the cone identity e: traces of matrix blocks, sums of vectors."""
    return float(sum(np.sum(b) if np.ndim(b) == 1 else np.trace(b)
                     for b in blocks))


def block_norm(blocks) -> float:
    return math.sqrt(sum(float(np.sum(np.asarray(b) ** 2)) for b in blocks))


def quad_matrix(C, B, A, x) -> np.ndarray:
    """C + sum_i x_i B_i + sum_ij x_i x_j A_ij."""
    x = np.asarray(x, dtype=float)
    return C + np.tensordot(x, B, axes=(0, 0)) + np.einsum("i,j,ijsk->sk",
                                                           x, x, A)


def quad_value(P, p, x) -> float:
    x = np.asarray(x, dtype=float)
    return float(0.5 * x @ P @ x + p @ x)


@dataclass(frozen=True)
class QmiData:
    """Raw data of a quadratic matrix inequality C + Bx + x'Ax <= 0 with
    objective (0.5 x'Pg x + pg'x) - (0.5 x'Ph x + ph'x)."""

    C: np.ndarray
    B: np.ndarray
    A: np.ndarray
    Pg: np.ndarray
    pg: np.ndarray
    Ph: np.ndarray
    ph: np.ndarray

    def matrix(self, x):
        return quad_matrix(self.C, self.B, self.A, x)

    def F(self, x):
        return [self.matrix(x)]

    def f0(self, x) -> float:
        return quad_value(self.Pg, self.pg, x) - quad_value(self.Ph, self.ph, x)


@dataclass(frozen=True)
class StiefelData:
    """X'X = I as the blocks (X'X - I, I - X'X) <= 0; objective 0.5 |x|^2."""

    m: int
    order: int

    def F(self, x):
        X = np.asarray(x, dtype=float).reshape(self.m, self.order)
        G = X.T @ X - np.eye(self.order)
        return [G, -G]

    def f0(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ x)


@dataclass(frozen=True)
class PolyData:
    """Univariate rows G_i(x) - H_i(x) <= 0 (ascending coefficients) with
    objective g0(x) - h0(x); the constraint is the diagonal matrix of rows."""

    G: tuple
    H: tuple
    g0: tuple
    h0: tuple

    def rows(self, x) -> np.ndarray:
        t = float(np.asarray(x, dtype=float).reshape(-1)[0])
        return np.array([np.polynomial.polynomial.polyval(t, g)
                         - np.polynomial.polynomial.polyval(t, h)
                         for g, h in zip(self.G, self.H)])

    def F(self, x):
        return [self.rows(x)]

    def matrix(self, x) -> np.ndarray:
        return np.diag(self.rows(x))

    def f0(self, x) -> float:
        t = float(np.asarray(x, dtype=float).reshape(-1)[0])
        return float(np.polynomial.polynomial.polyval(t, self.g0)
                     - np.polynomial.polynomial.polyval(t, self.h0))


# example 29 of the paper: min (x - 0.5)^2 s.t. x^2 - x^4 <= 0
EXAMPLE29 = PolyData(G=((0.0, 0.0, 1.0),), H=((0.0, 0.0, 0.0, 0.0, 1.0),),
                     g0=(0.25, -1.0, 1.0), h0=(0.0,))
# the scalar orthogonality instance: min (x - 0.7)^2 s.t. x^2 = 1
STIEFEL11 = StiefelData(1, 1)


# ---------------------------------------------------------------------------
# Solver-run properties the method guarantees


def check_ccp_run(data, xs, mu=0.0, f0=None):
    """Feasible iterates, strictly decreasing objective, and with a
    mu-strongly convex concave part a decrease of (mu/2)|step|^2."""
    f0 = f0 or data.f0
    for k, x in enumerate(xs):
        viol = lambda_max(data.F(x))
        require(viol <= FEAS_TOL,
                f"iterate {k} violates the constraint: lambda_max {viol:.3e}")
    f = [f0(x) for x in xs]
    for k in range(len(f) - 2):
        require(f[k + 1] < f[k] - DESCENT_TOL,
                f"objective did not strictly decrease at step {k}: "
                f"{f[k]!r} -> {f[k + 1]!r}")
    if len(f) >= 2:
        require(f[-1] <= f[-2] + DESCENT_TOL,
                f"objective increased on the last step: {f[-2]!r} -> {f[-1]!r}")
    if mu > 0.0:
        for k in range(len(f) - 1):
            step = float(np.sum((np.asarray(xs[k + 1]) - xs[k]) ** 2))
            require(f[k + 1] <= f[k] - 0.5 * mu * step
                    + MERIT_SLACK * (1.0 + abs(f[k])),
                    f"step {k} decreased f0 by less than (mu/2)|step|^2")


def check_penalty_run(data, xs, slacks, taus, f0=None):
    """Merit f0 + tau <e, s> non-increasing at the penalty in force, and the
    infeasibility of each iterate bounded by its slack norm."""
    f0 = f0 or data.f0
    f = [f0(x) for x in xs]
    pair = [identity_pairing(s) for s in slacks]
    for k in range(len(xs) - 1):
        before = f[k] + taus[k] * pair[k]
        after = f[k + 1] + taus[k] * pair[k + 1]
        require(after <= before + MERIT_SLACK * (1.0 + abs(before)),
                f"merit increased at fixed penalty on step {k}: "
                f"{before!r} -> {after!r}")
    for k in range(1, len(xs)):
        infeas = pos_norm(data.F(xs[k]))
        require(infeas <= block_norm(slacks[k]) + MERIT_SLACK,
                f"iterate {k} infeasibility {infeas:.3e} exceeds its slack "
                f"norm {block_norm(slacks[k]):.3e}")


def check_near(value, targets, tol, what):
    gap = min(abs(float(value) - t) for t in targets)
    require(gap <= tol, f"{what}: {float(value)!r} is {gap:.3e} away from "
                        f"{list(targets)}")


# ---------------------------------------------------------------------------
# Master LPs against scipy's HiGHS

_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs_solve(c, A, b, lo, hi):
    """min c'y s.t. A y <= b, lo <= y <= hi with scipy's HiGHS."""
    from scipy.optimize import linprog

    bounds = [(None if math.isinf(l) else l, None if math.isinf(h) else h)
              for l, h in zip(lo, hi)]
    return linprog(c, A_ub=A if np.size(A) else None,
                   b_ub=b if np.size(A) else None, bounds=bounds,
                   method="highs")


def check_lps_against_highs(records):
    """Each record is (c, A, b, lo, hi, status, value) as the program solved
    it: min c'y s.t. A y <= b, lo <= y <= hi.  Returns the count checked."""
    for k, (c, A, b, lo, hi, status, value) in enumerate(records):
        ref = highs_solve(c, A, b, lo, hi)
        ref_status = _HIGHS_STATUS.get(ref.status, f"highs-{ref.status}")
        require(ref_status == status,
                f"master LP {k}: status {status} but HiGHS says {ref_status}")
        if status == "optimal":
            require(abs(value - ref.fun) <= LP_RTOL * max(1.0, abs(ref.fun)),
                    f"master LP {k}: objective {value!r} but HiGHS gives "
                    f"{ref.fun!r}")
    return len(records)


# ---------------------------------------------------------------------------
# CLI reports


def check_decompose_report(report, matrix):
    """Each sample's lambda_max, and g - h, equal the largest eigenvalue of
    the constraint matrix that ``matrix(x)`` rebuilds from the problem data."""
    rows = report["samples"]
    require(rows, "decompose report has no samples")
    for k, row in enumerate(rows):
        lam = float(np.linalg.eigvalsh(matrix(np.asarray(row["x"])))[-1])
        require(abs(row["lambda_max"] - lam) <= 1e-9 * (1.0 + abs(lam)),
                f"sample {k}: lambda_max {row['lambda_max']!r}, "
                f"eigvalsh gives {lam!r}")
        scale = 1.0 + abs(row["g"]) + abs(row["h"])
        require(abs(row["g"] - row["h"] - lam) <= 1e-9 * scale,
                f"sample {k}: g - h = {row['g'] - row['h']!r} is not the "
                f"eigenvalue {lam!r}")
