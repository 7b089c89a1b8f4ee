"""Bounded convex feasible region: a finite box plus affine inequalities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import ConeCcpError, InfeasibleStart

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
        lo = np.atleast_1d(_floats(self.lo, "box bounds"))
        hi = np.atleast_1d(_floats(self.hi, "box bounds"))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConeCcpError("box bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConeCcpError("box bounds must be finite")
        if np.any(lo > hi):
            raise ConeCcpError("box has lo > hi in some coordinate")
        A = self.affine_A
        b = self.affine_b
        if (A is None) != (b is None):
            raise ConeCcpError("affine rows need both affine_A and affine_b")
        if A is None:
            A = np.zeros((0, lo.size))
            b = np.zeros(0)
        else:
            A = _floats(A, "affine rows")
            b = _floats(b, "affine rows")
            if A.ndim != 2 or A.shape[1] != lo.size or b.shape != A.shape[:1]:
                raise ConeCcpError(
                    f"affine rows need affine_A of shape (k, {lo.size}) and "
                    f"affine_b of shape (k,), got {A.shape} and {b.shape}")
            if not (np.isfinite(A).all() and np.isfinite(b).all()):
                raise ConeCcpError("affine rows must be finite")
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
        """Whether x is in the set, to ``CONTAINS_TOL`` relative to |x|; a
        point with a NaN or infinite entry never is."""
        x = np.asarray(x, dtype=float)
        size = float(np.abs(x).max(initial=0.0))  # NaN if any entry is
        if not size < np.inf:
            return False
        slack = CONTAINS_TOL * (1.0 + size)
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


def _floats(v, what) -> np.ndarray:
    """v as a float array; :class:`ConeCcpError` when it is not a numeric
    array, such as ragged rows or strings."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConeCcpError(f"{what} must be numeric arrays: {exc}") from None


def box(lo, hi) -> FeasibleSet:
    """Convenience constructor for a pure box."""
    return FeasibleSet(lo, hi)


def as_point(x, dim: int) -> np.ndarray:
    """x as a float vector of ``dim`` entries.

    Raises :class:`ConeCcpError` for any other length or a non-finite entry.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,) or not np.isfinite(x).all():
        raise ConeCcpError(
            f"expected a finite point of dimension {dim}, got {x.tolist()}")
    return x


def point_of(fs: FeasibleSet, x) -> np.ndarray:
    """x checked by :func:`as_point`, then required to lie in ``fs``.

    Raises :class:`InfeasibleStart` for a point outside the box or the
    affine rows: a solver's start, or a point a certificate is asked at.
    """
    x = as_point(x, fs.dim)
    if not fs.contains(x):
        raise InfeasibleStart("the point is outside the feasible set A")
    return x
