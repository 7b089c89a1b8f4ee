"""Dense linear programming front end for the cutting-plane masters.

Solves   min c'y   s.t.  A y <= b,  lo <= y <= hi   (entries of lo/hi may be
infinite) by a textbook two-phase tableau simplex with Dantzig pricing and a
Bland anti-cycling switch.  Problem sizes here are tiny, so exact dense
pivoting is both simple and reliable.  The primal and dual pivot loops live
in ``_simplex_py``, whose status strings this module reports.

A Kelley loop solves a chain of masters, each one the previous master with
a few cut rows appended.  Passing the previous result's ``state`` as
``warm`` re-optimizes from its optimal basis: the appended rows are
expressed in that basis, which stays dual feasible, and a dual simplex
(Lemke; Chvatal, *Linear Programming*, 1983) restores primal feasibility,
usually in a few pivots.  Whenever the warm answer cannot be trusted (the
dual loop finds the master infeasible or hits its pivot limit, or the point
violates a row), the cold two-phase solve decides, so every status means
what it means without ``warm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _simplex_py as _kernel
from ._simplex_py import (INFEASIBLE, ITER_LIMIT, OPTIMAL, PIVOT_TOL,
                          UNBOUNDED)


@dataclass
class LpState:
    """The optimal phase-2 tableau of one master, kept for warm re-solves.

    The kernel columns u >= 0 give ``y[j] = offsets[j] + sum(sign[k] *
    u[k] for k with src[k] == j)``.  The tableau holds those columns, one
    slack per row and the right-hand side; phase 1's artificial columns are
    dropped.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    T: np.ndarray
    basis: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    offsets: np.ndarray


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    value: float
    state: LpState | None = None  # pass as ``warm=`` to the next master


def solve_lp(c, A, b, lo, hi, *, warm=None) -> LpResult:
    """Minimize c'y over A y <= b, lo <= y <= hi.

    ``warm`` is the ``state`` of an earlier result whose master this one
    extends by appended rows of ``A`` and ``b``; any other state is ignored.
    """
    c = np.asarray(c, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = c.size
    if A is None or np.size(A) == 0:
        A = np.zeros((0, n))
        b = np.zeros(0)
    A = np.asarray(A, dtype=float).reshape(-1, n)
    b = np.asarray(b, dtype=float).reshape(-1)
    if warm is not None and _extends(warm, c, A, b, lo, hi):
        res = _resolve(warm, A, b)
        if res is not None:
            return res

    # Shift/split variables so every simplex variable is >= 0:
    # y_j = lo_j + u (u <= hi_j - lo_j when hi_j is finite), y_j = hi_j - u
    # when only hi_j is finite, and y_j = u+ - u- when y_j is free.
    src, sign, ub_rows = [], [], []
    for j in range(n):
        if np.isfinite(lo[j]) or not np.isfinite(hi[j]):
            src.append(j)
            sign.append(1.0)
            if np.isfinite(lo[j]) and np.isfinite(hi[j]):
                ub_rows.append((len(src) - 1, hi[j] - lo[j]))
        if not np.isfinite(lo[j]):
            src.append(j)
            sign.append(-1.0)
    src, sign = np.array(src, dtype=np.int64), np.array(sign)
    offsets = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))

    nk = src.size
    m0 = A.shape[0]
    Ak = np.zeros((m0 + len(ub_rows), nk))
    bk = np.zeros(m0 + len(ub_rows))
    Ak[:m0] = A[:, src] * sign
    bk[:m0] = b - A @ offsets
    for r, (col, bound) in enumerate(ub_rows):
        Ak[m0 + r, col] = 1.0
        bk[m0 + r] = bound

    status, T, basis = _two_phase(Ak, bk, c[src] * sign)
    if status != OPTIMAL:
        return LpResult(status, None, np.nan)
    st = LpState(c, A, b, lo, hi, T, basis, src, sign, offsets)
    # a warm re-solve cannot start from a basis holding an artificial
    return _result(st, warmable=bool(np.all(basis < T.shape[1] - 1)))


def _result(st: LpState, warmable: bool) -> LpResult:
    """The optimal point and value of st's tableau."""
    u = np.zeros(st.T.shape[1])  # an artificial left basic maps to the last
    u[st.basis] = st.T[:-1, -1]
    y = st.offsets.copy()
    y += np.bincount(st.src, st.sign * u[:st.src.size], minlength=y.size)
    value = float(-st.T[-1, -1]) + float(st.c @ st.offsets)
    return LpResult(OPTIMAL, y, value, st if warmable else None)


def _feas_tol(b):
    """Phase 1's tolerance on the total infeasibility of rows with rhs b."""
    return 1e-9 * (1.0 + float(np.abs(b).sum()))


def _two_phase(A, b, c):
    """Simplex on  min c'u  s.t.  A u <= b, u >= 0  (b of any sign).

    Returns the status and, when optimal, the final tableau without the
    artificial columns and its basis; a basis index equal to the tableau's
    last column stands for an artificial left basic at level zero.
    """
    m, n = A.shape
    max_pivots = 200 + 25 * (m + n)

    neg = b < 0
    n_art = int(np.count_nonzero(neg))
    width = n + m + n_art + 1
    T = np.zeros((m + 1, width))
    basis = np.zeros(m, dtype=np.int64)

    T[:m, :n] = A
    T[:m, -1] = b
    art = n + m
    for i in range(m):
        T[i, n + i] = 1.0  # slack
        if neg[i]:
            T[i, :] *= -1.0
            T[i, art] = 1.0
            basis[i] = art
            art += 1
        else:
            basis[i] = n + i

    if n_art:
        # Phase 1: minimize the sum of artificials.
        T[m, n + m:n + m + n_art] = 1.0
        for i in range(m):
            if basis[i] >= n + m:
                T[m, :] -= T[i, :]
        status, _ = _kernel.pivot_loop(T, basis, n + m + n_art, max_pivots)
        if status == ITER_LIMIT:
            return ITER_LIMIT, None, None
        if -T[m, -1] > _feas_tol(b):
            return INFEASIBLE, None, None
        # Drive any lingering artificial out of the basis when possible.
        for i in range(m):
            if basis[i] >= n + m:
                cols = np.nonzero(np.abs(T[i, :n + m]) > PIVOT_TOL)[0]
                if cols.size:
                    _kernel.pivot(T, i, int(cols[0]))
                    basis[i] = int(cols[0])

    # Phase 2 objective row, priced through the current basis.
    T[m, :] = 0.0
    T[m, :n] = c
    for i in range(m):
        bj = basis[i]
        if bj < n and c[bj] != 0.0:
            T[m, :] -= c[bj] * T[i, :]

    status, _ = _kernel.pivot_loop(T, basis, n + m, max_pivots)
    if status != OPTIMAL:
        return status, None, None
    if n_art:
        T = np.delete(T, np.s_[n + m:n + m + n_art], axis=1)
        basis = np.minimum(basis, n + m)
    return OPTIMAL, T, basis


# ---------------------------------------------------------------------------
# Warm re-solves


def _extends(st: LpState, c, A, b, lo, hi):
    """Whether (c, A, b, lo, hi) is st's master with rows appended."""
    m0 = st.A.shape[0]
    return A.shape[0] > m0 and all(
        u is v or (u.shape == v.shape and (u == v).all())
        for u, v in ((c, st.c), (lo, st.lo), (hi, st.hi), (A[:m0], st.A),
                     (b[:m0], st.b)))


def _resolve(st: LpState, A, b):
    """Re-optimize st's tableau with the rows of A, b past st's master
    appended; None when the cold path must decide."""
    new_A, new_b = A[st.A.shape[0]:], b[st.A.shape[0]:]
    k = new_b.size
    m = st.T.shape[0] - 1
    w = st.T.shape[1] - 1  # columns before the right-hand side
    T = np.zeros((m + k + 1, w + k + 1))
    T[:m, :w] = st.T[:m, :w]
    T[m + k, :w] = st.T[m, :w]
    T[:m, -1] = st.T[:m, -1]
    T[m + k, -1] = st.T[m, -1]
    rows = T[m:m + k]
    rows[:, :st.src.size] = new_A[:, st.src] * st.sign
    rows[range(k), range(w, w + k)] = 1.0
    rows[:, -1] = new_b - new_A @ st.offsets
    # Express the new rows in the current basis (zero on its columns, as
    # the kernel keeps them exactly); their slacks enter it.
    rows -= rows[:, st.basis] @ T[:m]
    rows[:, st.basis] = 0.0
    basis = np.concatenate([st.basis, np.arange(w, w + k)])

    max_pivots = 200 + 25 * (m + k + st.src.size)
    status, _ = _kernel.dual_loop(T, basis, max_pivots)
    if status != OPTIMAL:
        return None
    status, _ = _kernel.pivot_loop(T, basis, w + k, max_pivots)
    if status != OPTIMAL:
        return None
    res = _result(LpState(st.c, A, b, st.lo, st.hi, T, basis, st.src,
                          st.sign, st.offsets), warmable=True)
    if (A @ res.x - b).max() > _feas_tol(b):
        return None
    return res

