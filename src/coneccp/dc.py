"""Difference-of-convex representations and constructive decompositions.

Contains the oracle types for scalar DC objectives and cone-convex constraint
maps, the quadratic-regularizer DC split of a smooth matrix-valued map, the
DC decomposition of the largest-eigenvalue function of a componentwise-DC
matrix, and subgradient formulas for that decomposition.  The randomized
cone-convexity checker that self checks run is in :mod:`coneccp.convexity`.

Oracles must be pure functions of their arguments; everything built from them
is then safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cones import (TOL_FEAS, Cone, ConeElement, PsdCone,
                    lambda_max_scalarize)
from .convexity import verify_k_convexity
from .errors import BoundTooSmall, OracleCheckError

# Sampled checks: draws per check and the tolerances a violation must exceed.
OBJECTIVE_CHECK_SAMPLES = 40
OBJECTIVE_CHECK_RTOL = 1e-9
MAP_CHECK_SAMPLES = 200
DERIVATIVE_CHECK_SAMPLES = 10


# ---------------------------------------------------------------------------
# Scalar oracles


@dataclass(frozen=True)
class ConvexOracle:
    """Value/subgradient pair for a finite convex function on R^d."""

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray]


def zero_oracle(dim: int) -> ConvexOracle:
    z = np.zeros(dim)
    z.setflags(write=False)  # every call returns this one array
    return ConvexOracle(lambda x: 0.0, lambda x: z)


def quadratic_oracle(P, p=None, const=0.0) -> ConvexOracle:
    """x -> 0.5 x'Px + p'x + const with P symmetric PSD."""
    P = np.asarray(P, dtype=float)
    p = np.zeros(P.shape[0]) if p is None else np.asarray(p, dtype=float)

    def value(x):
        return float(0.5 * x @ P @ x + p @ x + const)

    def subgrad(x):
        return P @ x + p

    return ConvexOracle(value, subgrad)


def add_oracles(a: ConvexOracle, b: ConvexOracle) -> ConvexOracle:
    return ConvexOracle(lambda x: a.value(x) + b.value(x),
                        lambda x: a.subgrad(x) + b.subgrad(x))


@dataclass(frozen=True)
class ScalarDcFunction:
    """Objective split f0 = g0 - h0 into two convex oracles."""

    g0: ConvexOracle
    h0: ConvexOracle
    dim: int
    strong_convexity_of_h: float = 0.0

    def f0(self, x) -> float:
        return self.g0.value(x) - self.h0.value(x)

    def self_check(self, box, seed=0):
        rng = np.random.default_rng(seed)
        lo, hi = box
        for _ in range(OBJECTIVE_CHECK_SAMPLES):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            for name, orc in (("g0", self.g0), ("h0", self.h0)):
                fx, fy = orc.value(x), orc.value(y)
                gap = fy - fx - orc.subgrad(x) @ (y - x)
                if gap < -OBJECTIVE_CHECK_RTOL * (1.0 + abs(fx)):
                    raise OracleCheckError(
                        f"{name} violates the subgradient inequality by {-gap:.3e}")
            mu = self.strong_convexity_of_h
            if mu > 0.0:
                hx, hy = self.h0.value(x), self.h0.value(y)
                lower = hx + self.h0.subgrad(x) @ (y - x) \
                    + 0.5 * mu * float(np.sum((y - x) ** 2))
                if hy < lower - OBJECTIVE_CHECK_RTOL * (1.0 + abs(hx)):
                    raise OracleCheckError(
                        "h0 is not strongly convex with the declared constant")


# ---------------------------------------------------------------------------
# Cone-valued oracles


@dataclass(frozen=True)
class ConeDerivative:
    """Dense representation of a linear map R^d -> Y, one array per block.

    PSD blocks store shape (d, l, l): entry [k] is the partial derivative of
    the block with respect to coordinate k.  Orthant blocks store (d, m).
    """

    cone: Cone
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def apply(self, u: np.ndarray) -> ConeElement:
        return self.cone.element(self.apply_blocks(u))

    def apply_blocks(self, u: np.ndarray):
        """The blocks of :meth:`apply`, as a generator of plain arrays."""
        # the one product np.tensordot(u, arr, axes=(0, 0)) computes, without
        # its axis bookkeeping
        row = u.reshape(1, len(u))
        return (np.dot(row, arr.reshape(len(arr), -1)).reshape(arr.shape[1:])
                for arr in self.blocks)

    def quad_form_grad(self, block: int, v: np.ndarray) -> np.ndarray:
        """Gradient of x -> <v, (D map)(x) v> for the given block direction."""
        arr = self.blocks[block]
        if arr.ndim == 3:
            return np.einsum("kij,i,j->k", arr, v, v)
        return arr @ (v * v)

    def pair(self, lam: ConeElement) -> np.ndarray:
        """Adjoint pairing: gradient of x -> <lam, (D map) x> summed over blocks."""
        out = None
        for arr, lb in zip(self.blocks, lam.blocks):
            term = (np.einsum("kij,ij->k", arr, lb) if arr.ndim == 3
                    else arr @ lb)
            out = term if out is None else out + term
        return out


@dataclass(frozen=True)
class KConvexOracle:
    """Cone-convex map: values plus subgradients of its scalar quadratic forms.

    ``quad_form_subgrad(x, block, v)`` returns a subgradient of the convex
    scalar function x -> <v, G(x) v> on the given block (for orthant blocks v
    is a coordinate indicator and the map reduces to one component).
    """

    value: Callable[[np.ndarray], ConeElement]
    quad_form_subgrad: Callable[[np.ndarray, int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SmoothKConvexOracle:
    """Cone-convex continuously differentiable map with a full derivative."""

    value: Callable[[np.ndarray], ConeElement]
    derivative: Callable[[np.ndarray], ConeDerivative]


@dataclass(frozen=True)
class ConeDcMap:
    """Constraint data F = G - H with G cone-convex and H smooth cone-convex."""

    cone: Cone
    G: KConvexOracle
    H: SmoothKConvexOracle

    def value(self, x) -> ConeElement:
        return self.G.value(x) - self.H.value(x)

    def self_check(self, box, seed=0):
        verdict = verify_k_convexity(self.G, self.cone, MAP_CHECK_SAMPLES, box,
                                     seed=seed)
        if not verdict.passed:
            raise OracleCheckError(
                f"G fails the cone-convexity check: {verdict.witness}")
        verdict = verify_k_convexity(self.H, self.cone, MAP_CHECK_SAMPLES, box,
                                     seed=seed + 1)
        if not verdict.passed:
            raise OracleCheckError(
                f"H fails the cone-convexity check: {verdict.witness}")
        check_derivative_consistency(self.H, box, seed=seed + 2)


def check_derivative_consistency(H: SmoothKConvexOracle, box, seed=0):
    """Finite-difference check that the declared derivative matches the map.

    The one-sided difference quotient must approach the derivative at a rate
    proportional to the step, i.e. the error at step 1e-4 must be roughly a
    tenth of the error at 1e-3.
    """
    rng = np.random.default_rng(seed)
    lo, hi = box
    d = np.asarray(lo).size
    for _ in range(DERIVATIVE_CHECK_SAMPLES):
        x = rng.uniform(lo, hi)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        dHu = H.derivative(x).apply(u)
        scale = 1.0 + H.value(x).norm() + dHu.norm()
        errs = []
        for delta in (1e-3, 1e-4):
            quot = (H.value(x + delta * u) - H.value(x)).scale(1.0 / delta)
            errs.append((quot - dHu).norm())
        if errs[1] > 0.2 * errs[0] + 1e-9 * scale:
            raise OracleCheckError(
                f"derivative inconsistent with values: errors {errs} at "
                f"steps (1e-3, 1e-4)")


# ---------------------------------------------------------------------------
# Componentwise DC matrices


@dataclass(frozen=True)
class ComponentwiseDcMatrix:
    """Symmetric matrix map whose every entry is a scalar DC function.

    ``pairs`` holds one (G_ij, H_ij) oracle pair per upper-triangle entry;
    the (i, j) and (j, i) accessors return the same objects, so symmetry is
    structural.
    """

    order: int
    dim: int
    pairs: tuple[tuple[tuple[ConvexOracle, ConvexOracle], ...], ...]

    @staticmethod
    def from_upper(order, dim, upper) -> "ComponentwiseDcMatrix":
        """Build from a dict {(i, j): (G_ij, H_ij)} with i <= j."""
        rows = tuple(
            tuple(upper[(min(i, j), max(i, j))] for j in range(order))
            for i in range(order))
        return ComponentwiseDcMatrix(order, dim, rows)

    def pair(self, i, j):
        return self.pairs[i][j]

    def value(self, x) -> np.ndarray:
        A = np.empty((self.order, self.order))
        for i in range(self.order):
            for j in range(i, self.order):
                gij, hij = self.pairs[i][j]
                A[i, j] = A[j, i] = gij.value(x) - hij.value(x)
        return A


def lambda_max_dc_decomposition(F: ComponentwiseDcMatrix) -> ScalarDcFunction:
    """DC split (g, h) of x -> lambda_max(F(x)).

    h sums all entrywise convex parts, h = sum_ij (G_ij + H_ij); g is
    evaluated as lambda_max(F(x)) + h(x), never through its inner maximum.
    The subgradients come from :func:`lambda_max_subgradient`.
    """
    l = F.order

    def h_value(x):
        total = 0.0
        for i in range(l):
            for j in range(i, l):
                gij, hij = F.pair(i, j)
                w = 1.0 if i == j else 2.0
                total += w * (gij.value(x) + hij.value(x))
        return total

    def g_value(x):
        w = np.linalg.eigvalsh(F.value(x))
        return float(w[-1]) + h_value(x)

    def g_subgrad(x):
        return lambda_max_subgradient(F, x)[0]

    def h_subgrad(x):
        return lambda_max_subgradient(F, x)[1]

    return ScalarDcFunction(ConvexOracle(g_value, g_subgrad),
                            ConvexOracle(h_value, h_subgrad), dim=F.dim)


def lambda_max_subgradient(F: ComponentwiseDcMatrix, x) -> tuple[np.ndarray,
                                                                 np.ndarray]:
    """One subgradient of each part of the largest-eigenvalue DC split.

    Uses a unit eigenvector v for the top eigenvalue of F(x); entry (i, j)
    contributes with weight v_i v_j + 1 on the convex part and 1 - v_i v_j on
    the concave part.  v is :func:`lambda_max_scalarize`'s, the last column
    of ``eigh``; for a multiple top eigenvalue any choice is valid.
    """
    v = lambda_max_scalarize(PsdCone(F.order).element(F.value(x))).vector
    xi_g = np.zeros(F.dim)
    xi_h = np.zeros(F.dim)
    for i in range(F.order):
        for j in range(i, F.order):
            gij, hij = F.pair(i, j)
            sg, sh = gij.subgrad(x), hij.subgrad(x)
            w = 1.0 if i == j else 2.0
            vv = v[i] * v[j]
            xi_g += w * ((vv + 1.0) * sg + (1.0 - vv) * sh)
            xi_h += w * (sg + sh)
    return xi_g, xi_h


def offdiag_dc_extraction(G: KConvexOracle, order: int, i: int, j: int,
                          block: int = 0) -> tuple[ConvexOracle, ConvexOracle]:
    """DC split of an off-diagonal entry of a matrix-convex map.

    For a matrix-convex map every quadratic form x -> <z, G(x) z> is convex;
    with z = e_i + e_j the identity

        G_ij = 0.5 <z, G z> - 0.5 (G_ii + G_jj)

    exhibits the entry as a difference of two convex functions.
    """
    if i == j:
        raise ValueError("extraction applies to off-diagonal entries only")
    z = np.zeros(order)
    z[i] = z[j] = 1.0
    ei = np.zeros(order)
    ei[i] = 1.0
    ej = np.zeros(order)
    ej[j] = 1.0

    def qform(x, v):
        a = G.value(x).blocks[block]
        return float(v @ a @ v)

    convex_part = ConvexOracle(
        lambda x: 0.5 * qform(x, z),
        lambda x: 0.5 * G.quad_form_subgrad(x, block, z))
    concave_part = ConvexOracle(
        lambda x: 0.5 * (qform(x, ei) + qform(x, ej)),
        lambda x: 0.5 * (G.quad_form_subgrad(x, block, ei)
                         + G.quad_form_subgrad(x, block, ej)))
    return convex_part, concave_part


# ---------------------------------------------------------------------------
# Smooth matrix maps and the quadratic-regularizer decomposition


@dataclass(frozen=True)
class SmoothMatrixMap:
    """Twice continuously differentiable map into symmetric matrices."""

    dim: int
    order: int
    matrix: Callable[[np.ndarray], np.ndarray]
    matrix_derivative: Callable[[np.ndarray], np.ndarray]  # shape (d, l, l)

    @property
    def cone(self) -> PsdCone:
        return PsdCone(self.order)

    def value(self, x) -> ConeElement:
        return self.cone.element(self.matrix(np.asarray(x, dtype=float)))

    def derivative(self, x) -> ConeDerivative:
        arr = np.asarray(self.matrix_derivative(np.asarray(x, dtype=float)))
        arr = 0.5 * (arr + np.transpose(arr, (0, 2, 1)))
        return ConeDerivative(self.cone, (arr,))


def regularized_dc_decomposition(F: SmoothMatrixMap, hessian_bound,
                                 mu=None, box=None) -> ConeDcMap:
    """DC split of a smooth matrix map by quadratic regularization.

    With M bounding the Frobenius norm of every componentwise Hessian of F,
    the pair G(x) = F(x) + (mu/2)|x|^2 I and H(x) = (mu/2)|x|^2 I is a valid
    decomposition for any mu >= order * M; smaller mu raises
    :class:`BoundTooSmall`.  A bound that is not a finite nonnegative real
    number, or a mu that is not a finite real number, raises ValueError.

    The linearization subtracts (mu/2)|x_n|^2 I from G, so F survives in it
    only to about eps * (mu/2) * |x|^2.  Given a ``box`` (lo, hi), a mu whose
    rounding there exceeds the feasibility tolerance ``cones.TOL_FEAS``
    raises ValueError.
    """
    if isinstance(hessian_bound, bool) \
            or not isinstance(hessian_bound, numbers.Real) \
            or not 0.0 <= hessian_bound < math.inf:
        raise ValueError(f"hessian_bound must be a finite nonnegative real "
                         f"number, got {hessian_bound!r}")
    threshold = F.order * hessian_bound
    if mu is None:
        mu = threshold
    if isinstance(mu, bool) or not isinstance(mu, numbers.Real) \
            or not math.isfinite(mu):
        raise ValueError(f"mu must be a finite real number, got {mu!r}")
    if not mu >= threshold * (1.0 - 1e-12):
        raise BoundTooSmall(
            f"mu={mu} below the certified threshold {threshold}")
    if box is not None:
        radius2 = sum(max(a * a, b * b) for a, b in zip(
            np.ravel(box[0]).tolist(), np.ravel(box[1]).tolist()))
        rounding = math.ulp(1.0) * 0.5 * float(mu) * radius2
        if not rounding <= TOL_FEAS:
            raise ValueError(
                f"mu={mu!r} rounds F away on the box: eps*(mu/2)*max|x|^2 "
                f"= {rounding:.3g} exceeds {TOL_FEAS:g}")

    cone = F.cone
    eye = np.eye(F.order)
    mu = float(mu)

    def g_value(x):
        x = np.asarray(x, dtype=float)
        return cone.element(F.matrix(x) + 0.5 * mu * float(x @ x) * eye)

    def g_qf_subgrad(x, block, v):
        x = np.asarray(x, dtype=float)
        dF = F.matrix_derivative(x)
        return np.einsum("kij,i,j->k", dF, v, v) + mu * float(v @ v) * x

    def h_value(x):
        x = np.asarray(x, dtype=float)
        return cone.element(0.5 * mu * float(x @ x) * eye)

    def h_derivative(x):
        x = np.asarray(x, dtype=float)
        arr = mu * x[:, None, None] * eye[None, :, :]
        return ConeDerivative(cone, (arr,))

    return ConeDcMap(cone=cone,
                     G=KConvexOracle(g_value, g_qf_subgrad),
                     H=SmoothKConvexOracle(h_value, h_derivative))
