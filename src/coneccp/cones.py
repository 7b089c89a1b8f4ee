"""Self-dual cone primitives: PSD blocks, nonnegative orthants, finite products.

A cone element stores one dense array per leaf block (full symmetric matrices
for PSD blocks, plain vectors for orthant blocks).  An element keeps its
:func:`eigenpairs` and :func:`lambda_max_scalarize` witness once asked, so
each is computed at most once.  Blocks are read-only and a kept fact is set
by one assignment of a finished value, so elements are safe to share across
threads: a reader finds a fact whole or not yet there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidElement, InvalidPenalty, InvariantViolation

# Relative asymmetry above which a PSD block is rejected instead of symmetrized.
SYM_RTOL = 1e-8


class Cone:
    """Base class for self-dual cones."""

    def leaves(self) -> tuple["Cone", ...]:
        raise NotImplementedError

    def element(self, blocks) -> "ConeElement":
        """Validate raw block data and wrap it as an immutable element.

        Every block is checked (finite, right shape, PSD blocks symmetric to
        ``SYM_RTOL``) and stored as a frozen copy, so the element never
        aliases the caller's arrays.  The checks always run, since oracle
        outputs come from callers' code and problem files, but two exact
        prefilters pass a valid block cheaply; neither ever rejects:

        - finite when ``math.isfinite(np.vdot(a, a))``: a finite sum of
          squares has only finite terms, and ``vdot`` does not warn when it
          overflows.  Otherwise ``np.isfinite(a).all()`` decides.
        - symmetric when ``a.tobytes() == a.T.tobytes()``.  Otherwise
          ``(a == a.T).all()`` decides, so mirrored -0.0 and 0.0 still pass
          unchanged.  A block that is not exactly symmetric is measured
          against ``SYM_RTOL`` and symmetrized.
        """
        blocks = _as_blocks(self, blocks)
        return ConeElement(self, blocks)

    def identity(self) -> "ConeElement":
        """The interior direction e: identity matrix / all-ones vector per block."""
        return ConeElement(self, tuple(_identity_block(c) for c in self.leaves()))


def _check_size(size, what):
    """Reject a cone size that is not a positive int (bools included)."""
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise InvalidElement(f"{what} must be a positive integer, got {size!r}")


@dataclass(frozen=True)
class PsdCone(Cone):
    order: int

    def __post_init__(self):
        _check_size(self.order, "psd cone order")

    def leaves(self):
        return (self,)


@dataclass(frozen=True)
class Orthant(Cone):
    dim: int

    def __post_init__(self):
        _check_size(self.dim, "orthant dimension")

    def leaves(self):
        return (self,)


@dataclass(frozen=True)
class ProductCone(Cone):
    parts: tuple[Cone, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidElement("product cone needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if not isinstance(p, Cone):
                raise InvalidElement(
                    f"product cone parts must be cones, got {p!r}")
        object.__setattr__(self, "_leaves", tuple(
            leaf for p in self.parts for leaf in p.leaves()))

    def leaves(self):
        return self._leaves


def _identity_block(leaf: Cone) -> np.ndarray:
    if isinstance(leaf, PsdCone):
        return _freeze(np.eye(leaf.order))
    return _freeze(np.ones(leaf.dim))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


EYE_CACHE_MAX = 16  # larger identities are built per call, not cached
_small_eye = lru_cache(maxsize=None)(lambda n: _freeze(np.eye(n)))


def _eye(n: int) -> np.ndarray:
    """The read-only n x n identity."""
    return _small_eye(n) if n <= EYE_CACHE_MAX else _freeze(np.eye(n))


def _eigh(a: np.ndarray):
    """``np.linalg.eigh`` of a PSD block, as read-only arrays.  An order-1
    block is read off: LAPACK's dsyevd returns W(1) = A(1,1) and the
    eigenvector 1 for it, and so does this, bit for bit."""
    if len(a) == 1:
        return _freeze(a[0]), _eye(1)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise InvalidElement(f"eigendecomposition failed: {exc}") from exc
    return _freeze(w), _freeze(v)


def _as_blocks(cone: Cone, blocks) -> tuple[np.ndarray, ...]:
    leaves = cone.leaves()
    if isinstance(blocks, np.ndarray) and len(leaves) == 1:
        blocks = (blocks,)
    blocks = tuple(blocks)
    if len(blocks) != len(leaves):
        raise InvalidElement(
            f"expected {len(leaves)} blocks, got {len(blocks)}")
    out = []
    for leaf, raw in zip(leaves, blocks):
        a = np.asarray(raw, dtype=float)
        if not (math.isfinite(np.vdot(a, a)) or np.isfinite(a).all()):
            raise InvalidElement("non-finite entries in cone element")
        if isinstance(leaf, PsdCone):
            if a.shape != (leaf.order, leaf.order):
                raise InvalidElement(
                    f"psd block must be {leaf.order}x{leaf.order}, got {a.shape}")
            if a.tobytes() != a.T.tobytes() and not (a == a.T).all():
                # measured on a copy scaled by the largest entry and
                # symmetrized half by half, so nothing overflows near the
                # float limit
                scale = float(np.abs(a).max())
                b = a / scale
                asym = float(np.linalg.norm(b - b.T)) * scale
                if asym > SYM_RTOL * max(1.0, float(np.linalg.norm(b)) * scale):
                    raise InvalidElement(
                        f"psd block asymmetry {asym:.3e} exceeds tolerance")
                a = 0.5 * a + 0.5 * a.T
        else:
            a = a.reshape(-1)
            if a.shape != (leaf.dim,):
                raise InvalidElement(
                    f"orthant block must have length {leaf.dim}, got {a.shape}")
        out.append(_freeze(a.copy()))
    return tuple(out)


@dataclass(frozen=True)
class ConeElement:
    """Immutable point of the ambient space carrying its cone.  Its blocks
    are read-only, so :func:`eigenpairs` and :func:`lambda_max_scalarize`
    keep their results in ``_pairs`` and ``_top``: None, then set once."""

    cone: Cone
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    _pairs: tuple | None = field(default=None, init=False, compare=False,
                                 repr=False)
    _top: Scalarization | None = field(default=None, init=False,
                                       compare=False, repr=False)

    def _like(self, blocks: Iterable[np.ndarray]) -> "ConeElement":
        return ConeElement(self.cone, tuple(_freeze(b) for b in blocks))

    def __add__(self, other: "ConeElement") -> "ConeElement":
        return self._like(a + b for a, b in zip(self.blocks, other.blocks))

    def __sub__(self, other: "ConeElement") -> "ConeElement":
        return self._like(a - b for a, b in zip(self.blocks, other.blocks))

    def __neg__(self) -> "ConeElement":
        return self._like(-a for a in self.blocks)

    def scale(self, t: float) -> "ConeElement":
        return self._like(t * a for a in self.blocks)

    def norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self.blocks)))


def inner(a: ConeElement, b: ConeElement) -> float:
    """Canonical inner product: Frobenius on PSD blocks, Euclidean elsewhere."""
    return float(sum(float(np.sum(x * y)) for x, y in zip(a.blocks, b.blocks)))


def project_pos(y: ConeElement) -> ConeElement:
    """Projection onto the cone.

    Together with ``project_pos(-y)`` this realizes the Moreau decomposition
    y = y+ - y- with <y+, y-> = 0: PSD blocks keep the nonnegative part of the
    spectrum, orthant blocks the nonnegative components.
    """
    return y._like((v * np.maximum(w, 0.0)) @ v.T if a.ndim == 2
                   else np.maximum(w, 0.0)
                   for a, (_, w, v) in zip(y.blocks, eigenpairs(y)))


# Feasibility tolerance on constraint values, and the largest rounding of F
# the DC regularizer may make.
TOL_FEAS = 1e-8
# Bound on dist_to_neg_cone at a CCP iterate or a point to certify: a
# subproblem meets TOL_FEAS on its scalarized linearization, not on F.
TOL_FEAS_POINT = 10.0 * TOL_FEAS


def dist_to_neg_cone(y: ConeElement) -> float:
    """Distance from y to -K in the canonical norm; zero iff y is in -K."""
    return project_pos(y).norm()


def check_penalty_scale(t_scale: float) -> None:
    """Raise :class:`InvalidPenalty` unless t_scale is positive and finite."""
    if not 0.0 < t_scale < math.inf:
        raise InvalidPenalty(
            f"penalty scale must be positive and finite, got {t_scale}")


def slack_cost(t_scale: float, y: ConeElement) -> tuple[float, ConeElement]:
    """Minimal penalty <tau*e, s> over slacks s with s >= 0 and s >= y.

    For penalty direction e (the cone identity) the minimizer is the positive
    part of y, so the cost is tau times the trace/sum of that positive part.
    Returns (cost, minimizer).
    """
    check_penalty_scale(t_scale)
    s_star = project_pos(y)
    base = inner(s_star.cone.identity(), s_star)
    return t_scale * base, s_star


def eigenpairs(y: ConeElement) -> tuple:
    """(block, eigenvalues, unit eigenvectors as columns) per block of y.

    PSD blocks give their spectrum in ascending order; orthant blocks give
    their components, with the coordinate vectors as eigenvectors.  The
    arrays are read-only; the tuple is kept on y, so later calls decompose
    nothing.
    """
    pairs = y._pairs
    if pairs is None:
        pairs = tuple((k, *_eigh(a)) if a.ndim == 2 else (k, a, _eye(a.size))
                      for k, a in enumerate(y.blocks))
        object.__setattr__(y, "_pairs", pairs)
    return pairs


@dataclass(frozen=True)
class Scalarization:
    """Largest eigenvalue/component over blocks, with the attaining direction."""

    value: float
    block: int
    vector: np.ndarray  # unit eigenvector (PSD) or coordinate indicator (orthant)


def lambda_max_scalarize(y: ConeElement) -> Scalarization:
    """Scalar reformulation witness: value <= 0 iff y is in -K.  Kept on
    y; PSD blocks are read from y's kept :func:`eigenpairs` if it has them."""
    best = y._top
    if best is not None:
        return best
    pairs = y._pairs
    for k, a in enumerate(y.blocks):
        if a.ndim == 2:
            w, v = _eigh(a) if pairs is None else pairs[k][1:]
            val, vec = float(w[-1]), v[:, -1].copy()
        else:
            i = int(np.argmax(a))
            vec = np.zeros(a.size)
            vec[i] = 1.0
            val = float(a[i])
        if best is None or val > best.value:
            best = Scalarization(val, k, _freeze(vec))
    if best is None:
        raise InvariantViolation("cone element without blocks")
    object.__setattr__(y, "_top", best)
    return best
