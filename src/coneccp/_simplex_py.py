"""Simplex pivot kernels (numpy): the primal loop and the dual loop.

The tableau layout is

    T[0:m, :]   constraint rows, right-hand side in the last column
    T[m, :]     reduced-cost row, negated objective value in the last column

Both loops pivot with :func:`pivot` and return (status, pivots), the status
one of the strings :mod:`coneccp.lp` reports.  In the primal loop ``ncols``
restricts the columns eligible to enter the basis (used to lock artificial
columns out of phase two).  Dantzig pricing by default; after
``BLAND_AFTER`` consecutive degenerate pivots it switches to Bland's rule,
which cannot cycle.
"""

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iter_limit"

PIVOT_TOL = 1e-10
BLAND_AFTER = 50


def pivot_loop(T, basis, ncols, max_pivots):
    """Primal simplex on a tableau whose right-hand sides are nonnegative.

    OPTIMAL once no eligible reduced cost is negative, UNBOUNDED when an
    entering column has no positive entry, or ITER_LIMIT.
    """
    m = T.shape[0] - 1
    pivots = 0
    degenerate_run = 0
    bland = False
    while pivots < max_pivots:
        obj = T[m, :ncols]
        if bland:
            neg = (obj < -PIVOT_TOL).nonzero()[0]
            if neg.size == 0:
                return OPTIMAL, pivots
            col = int(neg[0])
        else:
            col = int(obj.argmin())
            if obj[col] >= -PIVOT_TOL:
                return OPTIMAL, pivots
        colvals = T[:m, col]
        rhs = T[:m, T.shape[1] - 1]
        eligible = colvals > PIVOT_TOL
        if not eligible.any():
            return UNBOUNDED, pivots
        ratios = np.full(m, np.inf)
        ratios[eligible] = rhs[eligible] / colvals[eligible]
        best = float(ratios.min())
        ties = (ratios <= best + PIVOT_TOL * (1.0 + abs(best))).nonzero()[0]
        row = int(ties[basis[ties].argmin()])
        if best <= PIVOT_TOL:
            degenerate_run += 1
            if degenerate_run >= BLAND_AFTER:
                bland = True
        else:
            degenerate_run = 0
        pivot(T, row, col)
        basis[row] = col
        pivots += 1
    return ITER_LIMIT, pivots


def dual_loop(T, basis, max_pivots):
    """Dual simplex on a tableau whose reduced costs are nonnegative.

    Most negative right-hand side leaves; the entering column minimizes
    reduced cost over minus the row entry.  OPTIMAL once every right-hand
    side is nonnegative, INFEASIBLE when a negative row has no negative
    entry, or ITER_LIMIT.
    """
    m = T.shape[0] - 1
    rhs, obj = T[:m, -1], T[m, :-1]
    for pivots in range(max_pivots):
        row = int(rhs.argmin())
        if rhs[row] >= -PIVOT_TOL:
            return OPTIMAL, pivots
        entries = T[row, :-1]
        cols = (entries < -PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            return INFEASIBLE, pivots
        ratios = np.maximum(obj[cols], 0.0) / -entries[cols]
        col = int(cols[ratios.argmin()])
        pivot(T, row, col)
        basis[row] = col
    return ITER_LIMIT, max_pivots


def pivot(T, row, col):
    """Pivot T in place on (row, col): scale the row to a unit pivot, then
    subtract its multiples from every other row, the objective row
    included, as one rank-one update.  T may be a view into a larger
    buffer, such as a warm master's live tableau; entries outside the view
    are left alone."""
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * pivot_row
    # Kill accumulated roundoff in the pivot column.
    T[:, col] = 0.0
    pivot_row[col] = 1.0
