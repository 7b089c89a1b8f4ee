"""Self-dual cone primitives: PSD blocks, nonnegative orthants, finite products.

A cone element stores one dense array per leaf block (full symmetric matrices
for PSD blocks, plain vectors for orthant blocks).  All operations are pure
functions of immutable inputs, so elements are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import InvalidElement, InvalidPenalty, InvariantViolation

# Relative asymmetry above which a PSD block is rejected instead of symmetrized.
SYM_RTOL = 1e-8


class Cone:
    """Base class for self-dual cone descriptors."""

    def leaves(self) -> tuple["Cone", ...]:
        raise NotImplementedError

    @property
    def ambient_dim(self) -> int:
        raise NotImplementedError

    def element(self, blocks) -> "ConeElement":
        """Validate raw block data and wrap it as an immutable element.

        Every block is checked (finite, right shape, PSD blocks symmetric to
        ``SYM_RTOL``) and stored as a frozen copy, so the element never
        aliases the caller's arrays.  A PSD block that is already exactly
        symmetric skips the asymmetry norms and the symmetrization, which
        would return it unchanged; the checks themselves always run, since
        oracle outputs come from callers' code and problem files.
        """
        blocks = _as_blocks(self, blocks)
        return ConeElement(self, blocks)

    def zero(self) -> "ConeElement":
        return ConeElement(self, tuple(_zero_block(c) for c in self.leaves()))

    def identity(self) -> "ConeElement":
        """The interior direction e: identity matrix / all-ones vector per block."""
        return ConeElement(self, tuple(_identity_block(c) for c in self.leaves()))

    def descriptor(self) -> dict:
        """JSON-friendly description, e.g. {"psd": 2} or {"orthant": 3}."""
        raise NotImplementedError


@dataclass(frozen=True)
class PsdCone(Cone):
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise InvalidElement(f"psd cone order must be >= 1, got {self.order}")

    def leaves(self):
        return (self,)

    @property
    def ambient_dim(self):
        return self.order * (self.order + 1) // 2

    def descriptor(self):
        return {"psd": self.order}


@dataclass(frozen=True)
class Orthant(Cone):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidElement(f"orthant dimension must be >= 1, got {self.dim}")

    def leaves(self):
        return (self,)

    @property
    def ambient_dim(self):
        return self.dim

    def descriptor(self):
        return {"orthant": self.dim}


@dataclass(frozen=True)
class ProductCone(Cone):
    parts: tuple[Cone, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidElement("product cone needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def leaves(self):
        out: list[Cone] = []
        for p in self.parts:
            out.extend(p.leaves())
        return tuple(out)

    @property
    def ambient_dim(self):
        return sum(p.ambient_dim for p in self.parts)

    def descriptor(self):
        return {"product": [p.descriptor() for p in self.parts]}


def cone_from_descriptor(desc: dict) -> Cone:
    """Inverse of :meth:`Cone.descriptor`."""
    if not isinstance(desc, dict) or len(desc) != 1:
        raise InvalidElement(f"bad cone descriptor: {desc!r}")
    (kind, arg), = desc.items()
    if kind == "psd":
        return PsdCone(int(arg))
    if kind == "orthant":
        return Orthant(int(arg))
    if kind == "product":
        return ProductCone(tuple(cone_from_descriptor(d) for d in arg))
    raise InvalidElement(f"unknown cone kind: {kind!r}")


def _zero_block(leaf: Cone) -> np.ndarray:
    if isinstance(leaf, PsdCone):
        return _freeze(np.zeros((leaf.order, leaf.order)))
    return _freeze(np.zeros(leaf.dim))


def _identity_block(leaf: Cone) -> np.ndarray:
    if isinstance(leaf, PsdCone):
        return _freeze(np.eye(leaf.order))
    return _freeze(np.ones(leaf.dim))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        if not np.isfinite(a).all():
            raise InvalidElement("non-finite entries in cone element")
        if isinstance(leaf, PsdCone):
            if a.shape != (leaf.order, leaf.order):
                raise InvalidElement(
                    f"psd block must be {leaf.order}x{leaf.order}, got {a.shape}")
            if not (a == a.T).all():
                asym = np.linalg.norm(a - a.T)
                if asym > SYM_RTOL * max(1.0, np.linalg.norm(a)):
                    raise InvalidElement(
                        f"psd block asymmetry {asym:.3e} exceeds tolerance")
                a = 0.5 * (a + a.T)
        else:
            a = a.reshape(-1)
            if a.shape != (leaf.dim,):
                raise InvalidElement(
                    f"orthant block must have length {leaf.dim}, got {a.shape}")
        out.append(_freeze(a.copy()))
    return tuple(out)


@dataclass(frozen=True)
class ConeElement:
    """Immutable point of the ambient space carrying its cone."""

    cone: Cone
    blocks: tuple[np.ndarray, ...] = field(repr=False)

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
    return positive_part(y, eigenpairs(y))


def positive_part(y: ConeElement, pairs) -> ConeElement:
    """:func:`project_pos` of y from its :func:`eigenpairs`: PSD blocks keep
    the nonnegative part of the spectrum, orthant blocks their nonnegative
    components."""
    return y._like((v * np.maximum(w, 0.0)) @ v.T if a.ndim == 2
                   else np.maximum(w, 0.0)
                   for a, (_, w, v) in zip(y.blocks, pairs))


def dist_to_neg_cone(y: ConeElement) -> float:
    """Distance from y to -K in the canonical norm; zero iff y is in -K."""
    return project_pos(y).norm()


def slack_cost(t_scale: float, y: ConeElement) -> tuple[float, ConeElement]:
    """Minimal penalty <tau*e, s> over slacks s with s >= 0 and s >= y.

    For penalty direction e (the cone identity) the minimizer is the positive
    part of y, so the cost is tau times the trace/sum of that positive part.
    Returns (cost, minimizer).
    """
    if not t_scale > 0.0:
        raise InvalidPenalty(f"penalty scale must be positive, got {t_scale}")
    s_star = project_pos(y)
    base = inner(s_star.cone.identity(), s_star)
    return t_scale * base, s_star


def eigenpairs(y: ConeElement):
    """Yield (block, eigenvalues, unit eigenvectors as columns) per block of y.

    PSD blocks give their spectrum in ascending order; orthant blocks give
    their components, with the coordinate vectors as eigenvectors.  The
    arrays are read-only.
    """
    for k, (leaf, a) in enumerate(zip(y.cone.leaves(), y.blocks)):
        if isinstance(leaf, PsdCone):
            try:
                w, v = np.linalg.eigh(a)
            except np.linalg.LinAlgError as exc:
                raise InvalidElement(f"eigendecomposition failed: {exc}") from exc
            yield k, _freeze(w), _freeze(v)
        else:
            yield k, a, _freeze(np.eye(a.size))


@dataclass(frozen=True)
class Scalarization:
    """Largest eigenvalue/component over blocks, with the attaining direction."""

    value: float
    block: int
    vector: np.ndarray  # unit eigenvector (PSD) or coordinate indicator (orthant)


def lambda_max_scalarize(y: ConeElement) -> Scalarization:
    """Scalar reformulation witness: value <= 0 iff y is in -K."""
    best: Scalarization | None = None
    for k, (leaf, a) in enumerate(zip(y.cone.leaves(), y.blocks)):
        if isinstance(leaf, PsdCone):
            w, v = np.linalg.eigh(a)
            val, vec = float(w[-1]), v[:, -1].copy()
        else:
            i = int(np.argmax(a))
            vec = np.zeros(leaf.dim)
            vec[i] = 1.0
            val = float(a[i])
        if best is None or val > best.value:
            best = Scalarization(val, k, _freeze(vec))
    if best is None:
        raise InvariantViolation("cone element without blocks")
    return best
