"""Primal simplex pivot kernel (numpy).

The tableau layout is

    T[0:m, :]   constraint rows, right-hand side in the last column
    T[m, :]     reduced-cost row, negated objective value in the last column

``ncols`` restricts the columns eligible to enter the basis (used to lock
artificial columns out of phase two).  Dantzig pricing by default; after
``BLAND_AFTER`` consecutive degenerate pivots the kernel switches to Bland's
rule, which cannot cycle.
"""

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1
ITER_LIMIT = 2

BLAND_AFTER = 50


def pivot_loop(T, basis, ncols, tol, max_pivots):
    m = T.shape[0] - 1
    pivots = 0
    degenerate_run = 0
    bland = False
    while pivots < max_pivots:
        obj = T[m, :ncols]
        if bland:
            neg = np.nonzero(obj < -tol)[0]
            if neg.size == 0:
                return OPTIMAL, pivots
            col = int(neg[0])
        else:
            col = int(np.argmin(obj))
            if obj[col] >= -tol:
                return OPTIMAL, pivots
        colvals = T[:m, col]
        rhs = T[:m, T.shape[1] - 1]
        eligible = colvals > tol
        if not np.any(eligible):
            return UNBOUNDED, pivots
        ratios = np.full(m, np.inf)
        ratios[eligible] = rhs[eligible] / colvals[eligible]
        best = float(np.min(ratios))
        ties = np.nonzero(ratios <= best + tol * (1.0 + abs(best)))[0]
        row = int(ties[np.argmin(basis[ties])])
        if best <= tol:
            degenerate_run += 1
            if degenerate_run >= BLAND_AFTER:
                bland = True
        else:
            degenerate_run = 0
        _pivot(T, row, col)
        basis[row] = col
        pivots += 1
    return ITER_LIMIT, pivots


def _pivot(T, row, col):
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row, :])
    # Kill accumulated roundoff in the pivot column.
    T[:, col] = 0.0
    T[row, col] = 1.0
