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
usually in a few pivots.  The re-solve works in place, inside a tableau
buffer with spare rows and columns, so a chain of masters allocates and
copies a tableau only when its buffer doubles.

The warm state's ownership contract:

* ``warm`` extends a state only when ``A`` and ``b`` are longer prefix views
  ``A[:m], b[:m]`` of the same row and right-hand-side buffers the state
  solved, and ``c``, ``lo`` and ``hi`` are the same objects.  A fresh array,
  another buffer or another objective or bound object is solved cold.
* The rows already solved must not be rewritten; a caller that moves them
  to larger buffers says so with :meth:`LpState.rebase`.
* A warm solve consumes its state: it clears the state's tableau and basis
  buffers, which now hold the new master, so using the consumed state
  again, or extending it a second time with other rows, is solved cold.

Whenever the warm answer cannot be trusted (the dual loop finds the master
infeasible or hits its pivot limit, or the point violates a row), the cold
two-phase solve decides, so every status means what it means without
``warm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _simplex_py as _kernel
from ._simplex_py import (INFEASIBLE, ITER_LIMIT, OPTIMAL, PIVOT_TOL,
                          UNBOUNDED)


ROOM = 16  # spare rows and columns of a new warm buffer, doubled when full


@dataclass
class LpState:
    """The optimal phase-2 tableau of one master, kept for warm re-solves.

    The kernel columns u >= 0 give ``y[j] = offsets[j] + sum(sign[k] *
    u[k] for k with src[k] == j)``.  The tableau holds those columns, one
    slack per row and the right-hand side; phase 1's artificial columns are
    dropped.  ``T`` and ``basis`` are the live corners of the buffers
    ``T_buf`` and ``basis_buf``, which the state owns until a warm solve
    consumes it and clears them (see the module's ownership contract); the
    tableau buffer is zero outside ``T``.
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
    T_buf: np.ndarray | None
    basis_buf: np.ndarray | None

    def rebase(self, A, b):
        """Follow the master's rows to new buffers A, b, whose first rows
        the caller copied from the old ones."""
        m = self.b.size
        self.A, self.b = A[:m], b[:m]


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    value: float
    state: LpState | None = None  # pass as ``warm=`` to the next master


def solve_lp(c, A, b, lo, hi, *, warm=None) -> LpResult:
    """Minimize c'y over A y <= b, lo <= y <= hi.

    ``warm`` is the ``state`` of an earlier result whose master this one
    extends by appended rows of ``A`` and ``b``, under the ownership
    contract in the module docstring; any other state is solved cold.
    """
    if warm is not None and _extends(warm, c, A, b, lo, hi):
        res = _resolve(warm, A, b)
        if res is not None:
            return res
    c = np.asarray(c, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = c.size
    if A is None or np.size(A) == 0:
        A = np.zeros((0, n))
        b = np.zeros(0)
    A = np.asarray(A, dtype=float).reshape(-1, n)
    b = np.asarray(b, dtype=float).reshape(-1)

    # Shift/split variables so every simplex variable is >= 0:
    # y_j = lo_j + u (u <= hi_j - lo_j when hi_j is finite), y_j = hi_j - u
    # when only hi_j is finite, and y_j = u+ - u- when y_j is free.
    src, sign, ub_rows = [], [], []
    for j, (lo_j, hi_j) in enumerate(zip(lo.tolist(), hi.tolist())):
        if math.isfinite(lo_j) or not math.isfinite(hi_j):
            src.append(j)
            sign.append(1.0)
            if math.isfinite(lo_j) and math.isfinite(hi_j):
                ub_rows.append((len(src) - 1, hi_j - lo_j))
        if not math.isfinite(lo_j):
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
    st = LpState(c, A, b, lo, hi, T, basis, src, sign, offsets, T, basis)
    # a warm re-solve cannot start from a basis holding an artificial
    return _result(st, warmable=bool(np.all(basis < T.shape[1] - 1)))


def _result(st: LpState, warmable: bool) -> LpResult:
    """The optimal point and value of st's tableau."""
    u = np.zeros(st.T.shape[1])  # an artificial left basic maps to the last
    u[st.basis] = st.T[:-1, -1]
    y = st.offsets + np.bincount(st.src, st.sign * u[:st.src.size],
                                 minlength=st.offsets.size)
    value = float(-st.T[-1, -1]) + float(st.c @ st.offsets)
    return LpResult(OPTIMAL, y, value, st if warmable else None)


def _feas_tol(b):
    """Phase 1's tolerance on the total infeasibility of rows with rhs b."""
    return 1e-9 * (1.0 + float(abs(b).sum()))


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
    rows = np.arange(m)
    flipped = neg.nonzero()[0]  # rows negated to a nonnegative rhs
    arts = np.arange(n + m, n + m + n_art)

    T[:m, :n] = A
    T[:m, -1] = b
    T[rows, n + rows] = 1.0  # slacks
    T[flipped] *= -1.0
    T[flipped, arts] = 1.0
    basis = n + rows
    basis[flipped] = arts

    if n_art:
        # Phase 1: minimize the sum of artificials.
        T[m, n + m:n + m + n_art] = 1.0
        for i in flipped:
            T[m, :] -= T[i, :]
        status, _ = _kernel.pivot_loop(T, basis, n + m + n_art, max_pivots)
        if status == ITER_LIMIT:
            return ITER_LIMIT, None, None
        if -T[m, -1] > _feas_tol(b):
            return INFEASIBLE, None, None
        # Drive any lingering artificial out of the basis when possible.
        for i in (basis >= n + m).nonzero()[0]:
            cols = (abs(T[i, :n + m]) > PIVOT_TOL).nonzero()[0]
            if cols.size:
                _kernel.pivot(T, i, int(cols[0]))
                basis[i] = int(cols[0])

    # Phase 2 objective row, priced through the current basis.
    T[m, :] = 0.0
    T[m, :n] = c
    for i, bj in enumerate(basis.tolist()):
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
    """Whether st may be extended to (c, A, b, lo, hi): the same c, lo and hi,
    longer prefix views of the same row buffers, and st not yet consumed.
    Identity with st's arrays makes every input a float array already."""
    return (st.T_buf is not None and c is st.c and lo is st.lo
            and hi is st.hi and isinstance(A, np.ndarray)
            and isinstance(b, np.ndarray)
            and A.base is st.A.base is not None
            and b.base is st.b.base is not None
            and A.shape[0] > st.A.shape[0] and A.shape[1:] == st.A.shape[1:]
            and b.shape == A.shape[:1])


def _grown(size, need):
    """A buffer dimension of ``size`` that holds ``need``: unchanged, or
    doubled and with at least ``ROOM`` to spare."""
    return size if need <= size else max(2 * size, need + ROOM)


def _resolve(st: LpState, A, b):
    """Re-optimize st's tableau in place with the rows of A, b past st's
    master appended, consuming st; None when the cold path must decide."""
    buf, basis_buf = st.T_buf, st.basis_buf
    st.T_buf = st.basis_buf = None
    m0 = st.A.shape[0]
    new_A, new_b = A[m0:], b[m0:]
    k = new_b.size
    m = st.T.shape[0] - 1
    w = st.T.shape[1] - 1  # columns before the right-hand side
    rows_cap, cols_cap = buf.shape
    if m + k + 1 > rows_cap or w + k + 1 > cols_cap:
        buf = np.zeros((_grown(rows_cap, m + k + 1),
                        _grown(cols_cap, w + k + 1)))
        buf[:m + 1, :w + 1] = st.T
        basis_buf = np.zeros(buf.shape[0], dtype=np.int64)
        basis_buf[:m] = st.basis
    # Move the objective row down k rows and the right-hand side right k
    # columns; the k new rows and slack columns open up between them.
    buf[m + k, :w] = buf[m, :w]
    buf[m + k, w + k] = buf[m, w]
    buf[:m, w + k] = buf[:m, w]
    buf[:m, w] = 0.0
    T = buf[:m + k + 1, :w + k + 1]
    rows = T[m:m + k]
    nk = st.src.size
    rows[:, :nk] = new_A.take(st.src, axis=1) * st.sign
    rows[:, nk:] = 0.0
    rows[:, -1] = new_b - new_A @ st.offsets
    basis = basis_buf[:m + k]
    for i in range(k):
        rows[i, w + i] = 1.0
        basis[m + i] = w + i
    # Express the new rows in the current basis (zero on its columns, as
    # the kernel keeps them exactly); their slacks enter it.  The gather
    # keeps the layout rows[:, old] would have, so the product makes the
    # same BLAS call, bit for bit.
    old = basis[:m]
    rows -= rows.T.take(old, axis=0).T @ T[:m]
    for row in rows:
        row[old] = 0.0

    max_pivots = 200 + 25 * (m + k + nk)
    status, _ = _kernel.dual_loop(T, basis, max_pivots)
    if status != OPTIMAL:
        return None
    status, _ = _kernel.pivot_loop(T, basis, w + k, max_pivots)
    if status != OPTIMAL:
        return None
    res = _result(LpState(st.c, A, b, st.lo, st.hi, T, basis, st.src,
                          st.sign, st.offsets, buf, basis_buf),
                  warmable=True)
    if (A @ res.x - b).max() > _feas_tol(b):
        return None
    return res
