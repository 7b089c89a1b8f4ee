"""Bounded convex feasible region: a finite box plus affine inequalities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import ConeCcpError

CONTAINS_TOL = 1e-9  # relative slack of membership tests


@dataclass(frozen=True)
class FeasibleSet:
    """The set {x : lo <= x <= hi, a_k'x <= b_k for all k}.

    The box must be finite in every coordinate; coercivity of the penalized
    objective justifies boxing otherwise unbounded problems in practice.
    Emptiness is ruled out by one LP feasibility solve at construction.
    """

    lo: np.ndarray
    hi: np.ndarray
    affine_A: np.ndarray = field(default=None)  # shape (k, d)
    affine_b: np.ndarray = field(default=None)  # shape (k,)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConeCcpError("box bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConeCcpError("box bounds must be finite")
        if np.any(lo > hi):
            raise ConeCcpError("box has lo > hi in some coordinate")
        A = self.affine_A
        b = self.affine_b
        if A is None:
            A = np.zeros((0, lo.size))
            b = np.zeros(0)
        else:
            A = np.asarray(A, dtype=float).reshape(-1, lo.size)
            b = np.asarray(b, dtype=float).reshape(-1)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "affine_A", A)
        object.__setattr__(self, "affine_b", b)
        for a in (lo, hi, A, b):
            a.setflags(write=False)
        if A.shape[0]:
            res = lp.solve_lp(np.zeros(lo.size), A, b, lo, hi)
            if res.status != lp.OPTIMAL:
                raise ConeCcpError("feasible set is empty")

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        slack = CONTAINS_TOL * (1.0 + float(np.abs(x).max(initial=0.0)))
        if np.any(x < self.lo - slack) or np.any(x > self.hi + slack):
            return False
        if self.affine_A.shape[0]:
            if np.any(self.affine_A @ x > self.affine_b + slack):
                return False
        return True

    def center(self) -> np.ndarray:
        c = 0.5 * (self.lo + self.hi)
        if self.affine_A.shape[0] and not self.contains(c):
            res = lp.solve_lp(np.zeros(self.dim), self.affine_A, self.affine_b,
                              self.lo, self.hi)
            return res.x
        return c


def box(lo, hi) -> FeasibleSet:
    """Convenience constructor for a pure box."""
    return FeasibleSet(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
