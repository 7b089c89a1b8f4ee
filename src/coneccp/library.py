"""Built-in problem instances and seeded random generators.

Every instance bundles the objective split, the constraint map, the feasible
box, and whatever analytic facts are known about it (critical points,
multipliers, strictly feasible points).  Constructors run oracle self checks
so a malformed instance fails fast, and seeded generators are bitwise
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import Orthant, ProductCone, PsdCone
from .dc import (ComponentwiseDcMatrix, ConeDcMap, ConeDerivative,
                 ConvexOracle, KConvexOracle, ScalarDcFunction,
                 SmoothKConvexOracle, SmoothMatrixMap, add_oracles,
                 quadratic_oracle, regularized_dc_decomposition, zero_oracle)
from .errors import ConeCcpError
from .feasible import FeasibleSet, box


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    objective: ScalarDcFunction
    constraint: ConeDcMap
    feasible_set: FeasibleSet
    known_facts: dict = field(default_factory=dict)

    def self_check(self, seed=0, samples=200):
        bounds = (self.feasible_set.lo, self.feasible_set.hi)
        self.objective.self_check(bounds, seed=seed)
        self.constraint.self_check(bounds, seed=seed, samples=samples)


# ---------------------------------------------------------------------------
# Polynomial constraint maps on the nonnegative orthant (univariate)


def _poly_oracle(coeffs) -> ConvexOracle:
    c = np.asarray(coeffs, dtype=float)
    dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)

    def value(x):
        return float(np.polynomial.polynomial.polyval(float(x[0]), c))

    def subgrad(x):
        return np.array([np.polynomial.polynomial.polyval(float(x[0]), dc)])

    return ConvexOracle(value, subgrad)


def polynomial_constraint_map(g_coeffs: list, h_coeffs: list) -> ConeDcMap:
    """Univariate componentwise map over the orthant: rows G_i(x) - H_i(x).

    Coefficient lists are ascending (c0 + c1 x + ...).  Both sides must be
    convex on the box of interest; instance self checks enforce this by
    sampling.
    """
    if len(g_coeffs) != len(h_coeffs):
        raise ConeCcpError("need one (G, H) coefficient pair per row")
    m = len(g_coeffs)
    cone = Orthant(m)
    g_orcs = [_poly_oracle(c) for c in g_coeffs]
    h_orcs = [_poly_oracle(c) for c in h_coeffs]

    def g_value(x):
        return cone.element(np.array([o.value(x) for o in g_orcs]))

    def g_qf_subgrad(x, block, v):
        out = np.zeros(1)
        for i in range(m):
            if v[i] != 0.0:
                out += (v[i] ** 2) * g_orcs[i].subgrad(x)
        return out

    def h_value(x):
        return cone.element(np.array([o.value(x) for o in h_orcs]))

    def h_derivative(x):
        arr = np.empty((1, m))
        for i in range(m):
            arr[0, i] = h_orcs[i].subgrad(x)[0]
        return ConeDerivative(cone, (arr,))

    return ConeDcMap(cone=cone, G=KConvexOracle(g_value, g_qf_subgrad),
                     H=SmoothKConvexOracle(h_value, h_derivative), dim=1)


def example29() -> ProblemInstance:
    """One-dimensional regression instance with fully known structure.

    minimize (x - 0.5)^2 subject to x^2 - x^4 <= 0 on the box [-10, 10].
    The feasible region splits into (-inf, -1], {0}, and [1, inf); the
    critical points are exactly {-1, 0, 1} with 0 and 1 globally optimal,
    and the multiplier at -1 is 1.5 (0.5 at 1).
    """
    objective = ScalarDcFunction(
        g0=quadratic_oracle(np.array([[2.0]]), np.array([-1.0]), 0.25),
        h0=zero_oracle(1), dim=1)
    constraint = polynomial_constraint_map(
        g_coeffs=[[0.0, 0.0, 1.0]],            # x^2
        h_coeffs=[[0.0, 0.0, 0.0, 0.0, 1.0]])  # x^4
    return ProblemInstance(
        name="example29",
        objective=objective,
        constraint=constraint,
        feasible_set=box([-10.0], [10.0]),
        known_facts={
            "critical_points": [-1.0, 0.0, 1.0],
            "global_optima": [0.0, 1.0],
            "local_optima": [-1.0],
            "multipliers": {"-1.0": 1.5, "1.0": 0.5},
            "penalty_threshold_at_-1": 1.5,
            "slater_boundary": float(np.sqrt(3.0) / 2.0),
        })


# ---------------------------------------------------------------------------
# Quadratic semidefinite instances


def quadratic_hessian_bound(A: np.ndarray) -> float:
    """Certified curvature bound for the quadratic matrix map with blocks A.

    ``A`` has shape (d, d, l, l) with A[i, j] == A[j, i].  The Hessian of
    matrix entry (s, k) with respect to x is the d x d matrix with entries
    A[i, j, s, k] + A[j, i, s, k]; the bound is the largest Frobenius norm
    over entries (s, k).
    """
    H = A + np.transpose(A, (1, 0, 2, 3))
    return float(np.sqrt(np.einsum("ijsk,ijsk->sk", H, H)).max())


def quadratic_matrix_map(C, B, A) -> SmoothMatrixMap:
    """x -> C + sum_i x_i B_i + sum_ij x_i x_j A_ij (all blocks symmetric)."""
    C = np.asarray(C, dtype=float)
    B = np.asarray(B, dtype=float)
    A = np.asarray(A, dtype=float)
    d, order = B.shape[0], C.shape[0]
    # B laid out as np.tensordot(x, B, axes=(0, 0)) lays it out, so the
    # product below has the same bits
    B_rows = B.reshape(d, -1)

    def matrix(x):
        linear = np.dot(np.asarray(x).reshape(1, d), B_rows).reshape(order, order)
        return C + linear + np.einsum("i,j,ijsk->sk", x, x, A)

    def derivative(x):
        return B + np.einsum("j,kjsl->ksl", x, A) \
            + np.einsum("j,jksl->ksl", x, A)

    return SmoothMatrixMap(dim=d, order=order, matrix=matrix,
                           matrix_derivative=derivative)


# A random quadratic_sdp instance has QSDP_DIM variables and matrices of
# order QSDP_ORDER; every instance lives on the box [-3, 3]^d.
QSDP_DIM = 2
QSDP_ORDER = 2
QSDP_BOX_HALFWIDTH = 3.0
STIEFEL_BOX_HALFWIDTH = 2.0  # stiefel instances live on the box [-2, 2]^d


def quadratic_sdp(seed: int | None = None, *, C=None, B=None, A=None,
                  objective=None, mu=None,
                  validate=True) -> ProblemInstance:
    """Quadratic matrix-inequality instance, random (seeded) or explicit.

    The constraint map is split by quadratic regularization with the
    certified curvature bound; the generator shifts C so that a sampled
    interior point is strictly feasible, giving the feasible-start method a
    valid launch point (recorded in known_facts).
    """
    if C is None:
        dim, order = QSDP_DIM, QSDP_ORDER
        rng = np.random.default_rng(seed)
        C = _sym(rng.uniform(-1, 1, (order, order)))
        B = np.array([_sym(rng.uniform(-1, 1, (order, order)))
                      for _ in range(dim)])
        A = rng.uniform(-1, 1, (dim, dim, order, order))
        A = 0.5 * (A + np.transpose(A, (0, 1, 3, 2)))      # symmetric blocks
        A = 0.5 * (A + np.transpose(A, (1, 0, 2, 3)))      # A_ij == A_ji
        x_bar = rng.uniform(-1, 1, dim)
        probe = quadratic_matrix_map(C, B, A)
        top = float(np.linalg.eigvalsh(probe.matrix(x_bar))[-1])
        C = C - (top + 0.5) * np.eye(order)
        if objective is None:
            Wg = rng.normal(size=(dim, dim))
            Wh = rng.normal(size=(dim, dim))
            objective = ScalarDcFunction(
                g0=quadratic_oracle(Wg @ Wg.T / dim + 0.5 * np.eye(dim),
                                    rng.uniform(-1, 1, dim)),
                h0=quadratic_oracle(Wh @ Wh.T / (2 * dim),
                                    rng.uniform(-1, 1, dim)),
                dim=dim)
    else:
        C = np.asarray(C, dtype=float)
        B = np.asarray(B, dtype=float)
        A = np.asarray(A, dtype=float)
        dim, order = B.shape[0], C.shape[0]
        x_bar = None
        if objective is None:
            objective = ScalarDcFunction(
                g0=quadratic_oracle(np.eye(dim)), h0=zero_oracle(dim),
                dim=dim)

    smooth = quadratic_matrix_map(C, B, A)
    bound = quadratic_hessian_bound(A)
    constraint = regularized_dc_decomposition(smooth, hessian_bound=bound,
                                              mu=mu)
    facts = {"hessian_bound": bound}
    if x_bar is not None:
        facts["strictly_feasible_point"] = x_bar
    instance = ProblemInstance(
        name=f"quadratic_sdp[{seed}]" if seed is not None else "quadratic_sdp",
        objective=objective,
        constraint=constraint,
        feasible_set=box(-QSDP_BOX_HALFWIDTH * np.ones(dim),
                         QSDP_BOX_HALFWIDTH * np.ones(dim)),
        known_facts=facts)
    if validate:
        instance.self_check(seed=0, samples=60)
    return instance


def _sym(M):
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# Orthogonality (Stiefel) instances


def stiefel(m: int, order: int, objective: ScalarDcFunction | None = None
            ) -> ProblemInstance:
    """Orthogonality constraint X'X = I as two stacked PSD inequalities.

    X is m x order (flattened row-major into d = m * order variables).  The
    first block carries X'X - I <= 0 with no concave part; the second block
    carries I - X'X <= 0 with the whole map on the concave side.  The
    rewriting is degenerate (an equality as two inequalities) but works well
    under the penalty method.
    """
    if m < order:
        raise ConeCcpError("need m >= order for a nonempty constraint")
    d = m * order
    cone = ProductCone((PsdCone(order), PsdCone(order)))
    eye = np.eye(order)

    def as_mat(x):
        return np.asarray(x, dtype=float).reshape(m, order)

    def gram(x):
        X = as_mat(x)
        return X.T @ X

    def g_value(x):
        return cone.element((gram(x) - eye, np.zeros((order, order))))

    def g_qf_subgrad(x, block, v):
        if block != 0:
            return np.zeros(d)
        X = as_mat(x)
        return (2.0 * np.outer(X @ v, v)).reshape(-1)

    def h_value(x):
        return cone.element((np.zeros((order, order)), gram(x) - eye))

    def h_derivative(x):
        X = as_mat(x)
        arr = np.zeros((d, order, order))
        for r in range(m):
            for s in range(order):
                k = r * order + s
                E = np.zeros((m, order))
                E[r, s] = 1.0
                arr[k] = E.T @ X + X.T @ E
        return ConeDerivative(cone, (np.zeros((d, order, order)), arr))

    if objective is None:
        objective = ScalarDcFunction(g0=quadratic_oracle(np.eye(d)),
                                     h0=zero_oracle(d), dim=d)
    constraint = ConeDcMap(
        cone=cone, G=KConvexOracle(g_value, g_qf_subgrad),
        H=SmoothKConvexOracle(h_value, h_derivative), dim=d)
    X0 = np.eye(m, order)
    return ProblemInstance(
        name=f"stiefel_{m}x{order}",
        objective=objective,
        constraint=constraint,
        feasible_set=box(-STIEFEL_BOX_HALFWIDTH * np.ones(d),
                         STIEFEL_BOX_HALFWIDTH * np.ones(d)),
        known_facts={"orthonormal_point": X0.reshape(-1)})


def stiefel11_builtin() -> ProblemInstance:
    """Scalar orthogonality instance: x^2 = 1 with objective (x - 0.7)^2."""
    objective = ScalarDcFunction(
        g0=quadratic_oracle(np.array([[2.0]]), np.array([-1.4]), 0.49),
        h0=zero_oracle(1), dim=1)
    inst = stiefel(1, 1, objective=objective)
    inst.known_facts["feasible_points"] = [-1.0, 1.0]
    return inst


# ---------------------------------------------------------------------------
# Misc generators


def nonconvex_witness() -> SmoothMatrixMap:
    """Componentwise-convex 2x2 map that is not matrix convex.

    F(x) = [[1, x^2], [x^2, 1]]: the scalar quadratic form along z = (1, -1)
    is concave, so midpoint gaps have a negative eigenvalue.
    """

    def matrix(x):
        t = float(x[0]) ** 2
        return np.array([[1.0, t], [t, 1.0]])

    def derivative(x):
        t = 2.0 * float(x[0])
        return np.array([[[0.0, t], [t, 0.0]]])

    return SmoothMatrixMap(dim=1, order=2, matrix=matrix,
                           matrix_derivative=derivative)


def random_componentwise_dc(seed: int, order=2, dim=2,
                            scale=1.0) -> ComponentwiseDcMatrix:
    """Seeded componentwise-DC matrix with convex quadratic entry parts."""
    rng = np.random.default_rng(seed)
    upper = {}
    for i in range(order):
        for j in range(i, order):
            Wg = rng.normal(size=(dim, dim))
            Wh = rng.normal(size=(dim, dim))
            upper[(i, j)] = (
                quadratic_oracle(scale * Wg @ Wg.T / dim,
                                 rng.uniform(-1, 1, dim),
                                 rng.uniform(-1, 1)),
                quadratic_oracle(scale * Wh @ Wh.T / dim,
                                 rng.uniform(-1, 1, dim),
                                 rng.uniform(-1, 1)))
    return ComponentwiseDcMatrix.from_upper(order, dim, upper)


def diagonal_componentwise(g_coeffs: list, h_coeffs: list) -> ComponentwiseDcMatrix:
    """Univariate diagonal componentwise-DC matrix from polynomial rows."""
    order = len(g_coeffs)
    zero = ConvexOracle(lambda x: 0.0, lambda x: np.zeros(1))
    upper = {}
    for i in range(order):
        for j in range(i, order):
            if i == j:
                upper[(i, j)] = (_poly_oracle(g_coeffs[i]),
                                 _poly_oracle(h_coeffs[i]))
            else:
                upper[(i, j)] = (zero, zero)
    return ComponentwiseDcMatrix.from_upper(order, 1, upper)


def quadratic_componentwise(C, B, A) -> ComponentwiseDcMatrix:
    """Entrywise DC split of a quadratic matrix map.

    Each entry is a scalar quadratic; its curvature matrix splits into
    positive and negative semidefinite parts by eigendecomposition, giving
    convex quadratic (G, H) pairs per entry.
    """
    C = np.asarray(C, dtype=float)
    B = np.asarray(B, dtype=float)
    A = np.asarray(A, dtype=float)
    d, order = B.shape[0], C.shape[0]
    upper = {}
    for s in range(order):
        for k in range(s, order):
            curv = 2.0 * 0.5 * (A[:, :, s, k] + A[:, :, s, k].T)
            w, vecs = np.linalg.eigh(curv)
            pos = (vecs * np.maximum(w, 0.0)) @ vecs.T
            neg = (vecs * np.maximum(-w, 0.0)) @ vecs.T
            upper[(s, k)] = (
                quadratic_oracle(pos, B[:, s, k], C[s, k]),
                quadratic_oracle(neg))
    return ComponentwiseDcMatrix.from_upper(order, d, upper)


def with_strong_convexity(problem: ProblemInstance, mu: float) -> ProblemInstance:
    """Shift (mu/2)|x|^2 onto both objective parts.

    Leaves f0 unchanged while making the concave part strongly convex, which
    upgrades plain descent to descent by (mu/2) times the squared step.
    """
    d = problem.objective.dim
    reg = quadratic_oracle(mu * np.eye(d))
    objective = ScalarDcFunction(
        g0=add_oracles(problem.objective.g0, reg),
        h0=add_oracles(problem.objective.h0, reg),
        dim=d,
        strong_convexity_of_h=problem.objective.strong_convexity_of_h + mu)
    return ProblemInstance(
        name=problem.name + f"+reg{mu:g}",
        objective=objective,
        constraint=problem.constraint,
        feasible_set=problem.feasible_set,
        known_facts=dict(problem.known_facts))


BUILTINS = {
    "example29": example29,
    "stiefel11": stiefel11_builtin,
    "quadratic_sdp_42": lambda: quadratic_sdp(42),
}


def builtin(name: str) -> ProblemInstance:
    try:
        ctor = BUILTINS[name]
    except KeyError:
        raise ConeCcpError(
            f"unknown builtin {name!r}; available: {sorted(BUILTINS)}") from None
    return ctor()
