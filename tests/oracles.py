"""Independent reference implementations used as test oracles.

These deliberately avoid the library's solution paths: projected gradient
for box-constrained quadratics, grid search for slack costs.  They are the
second route of every dual-route check and must stay that way.
"""

import numpy as np


def projected_gradient(Q, q, lo, hi, iters=200_000, tol=1e-12):
    """Minimize 0.5 x'Qx + q'x over a box by projected gradient descent."""
    L = float(np.linalg.eigvalsh(Q)[-1])
    x = np.clip(np.zeros(q.size), lo, hi)
    step = 1.0 / L
    for _ in range(iters):
        x_new = np.clip(x - step * (Q @ x + q), lo, hi)
        if np.linalg.norm(x_new - x) <= tol * (1.0 + np.linalg.norm(x)):
            x = x_new
            break
        x = x_new
    return x, float(0.5 * x @ Q @ x + q @ x)


def replay_step4(trace, cfg):
    """Re-derive every penalty value from trace records, bit-exactly."""
    from coneccp.penalty import FIXED_POINT, _penalty_update

    recs = trace.records
    e_norm = recs[0].s.cone.identity().norm()
    for a, b in zip(recs, recs[1:]):
        if b is recs[-1] and trace.termination == FIXED_POINT:
            expect = a.tau  # the stop test precedes the update
        else:
            expect = _penalty_update(a.tau, b.s_norm, cfg, e_norm)
        if b.tau != expect:
            return False
    return True


# ---------------------------------------------------------------------------
# The subproblem oracles as first written: every call evaluates G afresh,
# applies DH(x_n) with np.tensordot and decomposes each block with its own
# eigh.  The memoized oracles must return these answers bit for bit.


def linearization_reference(problem, x_n, x):
    """Blocks of G(x) - H(x_n) - DH(x_n)(x - x_n)."""
    cmap = problem.constraint
    g = cmap.G.value(x).blocks
    h = cmap.H.value(x_n).blocks
    dh = cmap.H.derivative(x_n).blocks
    return tuple((gb - hb) - np.tensordot(x - x_n, arr, axes=(0, 0))
                 for gb, hb, arr in zip(g, h, dh))


def _eig(block):
    """Eigenvalues and unit eigenvectors; coordinates for orthant blocks."""
    if block.ndim == 2:
        return np.linalg.eigh(block)
    return block, np.eye(block.size)


def _quad_form_subgrad(problem, x_n, x, k, u):
    cmap = problem.constraint
    return (cmap.G.quad_form_subgrad(x, k, u)
            - cmap.H.derivative(x_n).quad_form_grad(k, u))


def constrained_reference(problem, x_n, x):
    """(scalarized value, its subgradient) of the linearized constraint:
    the largest eigenvalue (first of the largest block on ties) and its unit
    eigenvector (or coordinate indicator)."""
    best = None
    for k, block in enumerate(linearization_reference(problem, x_n, x)):
        if block.ndim == 2:
            w, vecs = np.linalg.eigh(block)
            val, vec = float(w[-1]), vecs[:, -1].copy()
        else:
            i = int(np.argmax(block))
            vec = np.zeros(block.size)
            vec[i] = 1.0
            val = float(block[i])
        if best is None or val > best[0]:
            best = (val, k, vec)
    val, k, vec = best
    return val, _quad_form_subgrad(problem, x_n, x, k, vec)


def penalized_reference(problem, x_n, v_n, tau, x):
    """(value, subgradient) of g0(x) - <v_n, x - x_n> + tau <e, pos(lin(x))>,
    with eigenvalues above 1e-12 contributing to the subgradient."""
    g0 = problem.objective.g0
    blocks = linearization_reference(problem, x_n, x)
    identity = problem.constraint.cone.identity().blocks
    cost = 0.0
    for e, block in zip(identity, blocks):
        w, vecs = _eig(block)
        pos = ((vecs * np.maximum(w, 0.0)) @ vecs.T if block.ndim == 2
               else np.maximum(block, 0.0))
        cost += float(np.sum(e * pos))
    value = g0.value(x) - float(v_n @ (x - x_n)) + tau * float(cost)
    grad = g0.subgrad(x) - v_n
    for k, block in enumerate(blocks):
        w, vecs = _eig(block)
        for idx in np.nonzero(w > 1e-12)[0]:
            grad = grad + tau * _quad_form_subgrad(problem, x_n, x, k,
                                                   vecs[:, idx])
    return value, grad


# ---------------------------------------------------------------------------
# The one-dimensional searches as first written: plain bisection, halving the
# bracket until the midpoint rounds onto an end or 200 halvings are done.
# The bracketing search in coneccp.inner must agree with them; and the
# two-sided subproblem search around the constraint's minimum, which the
# one-sided search from a feasible point must agree with.


def bisect_min_reference(f, df, lo, hi, iters=200):
    """(x, f(x), lower bound) of a convex f on [lo, hi] by subgradient
    bisection; the lower bound comes from the two bracketing tangents."""
    glo = df(lo)
    if glo >= 0.0:
        return lo, f(lo), f(lo)
    ghi = df(hi)
    if ghi <= 0.0:
        return hi, f(hi), f(hi)
    a, b, ga, gb = lo, hi, glo, ghi
    for _ in range(iters):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        gm = df(m)
        if gm < 0.0:
            a, ga = m, gm
        elif gm > 0.0:
            b, gb = m, gm
        else:
            fm = f(m)
            return m, fm, fm
    fa, fb = f(a), f(b)
    x = a if fa <= fb else b
    fx = min(fa, fb)
    denom = gb - ga
    if denom > 0:
        xc = min(max((fa - fb + gb * b - ga * a) / denom, a), b)
        lbv = min(max(fa + ga * (xc - a), fb + gb * (xc - b)), fx)
    else:
        lbv = fx
    return x, fx, lbv


def bisect_root_reference(phi, outside, inside, iters=200):
    """Boundary point of {phi <= 0} between an outside and an inside point."""
    for _ in range(iters):
        m = 0.5 * (outside + inside)
        if m == outside or m == inside:
            break
        if phi(m) <= 0.0:
            inside = m
        else:
            outside = m
    return inside


def solve_1d_reference(spec):
    """A one-dimensional subproblem as first solved: the constraint's minimum
    first (infeasible when above ``TOL_FEAS``), then both ends of
    {constraint <= 0} around it, then the objective's minimum between them.
    It takes no hint.  The one-sided search of coneccp.inner must agree."""
    from coneccp.inner import (INFEASIBLE, OPTIMAL, TOL_FEAS, SolveReport,
                               _bisect_min, _bounds_1d, _scalar)

    lo, hi, empty = _bounds_1d(spec.feasible_set)
    if empty:
        return SolveReport(None, np.nan, np.nan, INFEASIBLE,
                           certificate=np.inf)
    a, b = lo, hi
    con = spec.constraint
    if con is not None:
        phi, dphi = _scalar(con.scalarized, con.scalarized_subgrad)
        x_min, phi_min, phi_lb = _bisect_min(phi, dphi, lo, hi)
        if phi_min > TOL_FEAS:
            return SolveReport(None, np.nan, np.nan, INFEASIBLE,
                               certificate=max(phi_lb, 0.0))
        if phi_min > 0.0:
            a = b = x_min
        else:
            a = lo if phi(lo) <= 0.0 else bisect_root_reference(phi, lo, x_min)
            b = hi if phi(hi) <= 0.0 else bisect_root_reference(phi, hi, x_min)
    x, fx, lbv = _bisect_min(
        *_scalar(spec.objective.value, spec.objective.subgrad), a, b)
    return SolveReport(np.array([x]), fx, max(fx - lbv, 0.0), OPTIMAL)


# ---------------------------------------------------------------------------
# The cone-convexity check as first written: one sample at a time, each gap
# built from ConeElement arithmetic and scalarized by its own
# lambda_max_scalarize.  The chunked coneccp.convexity.verify_k_convexity
# must return the same verdict and witness bit for bit.


def verify_k_convexity_reference(map_oracle, cone, samples, box, seed=0):
    from coneccp.cones import lambda_max_scalarize
    from coneccp.convexity import (CONVEXITY_TOL, ConvexityVerdict,
                                   ConvexityWitness)

    rng = np.random.default_rng(seed)
    lo, hi = box
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    use_derivative = callable(getattr(map_oracle, "derivative", None))

    for _ in range(samples):
        x1 = rng.uniform(lo, hi)
        x2 = rng.uniform(lo, hi)
        if use_derivative:
            gap = (map_oracle.value(x1) - map_oracle.value(x2)
                   - map_oracle.derivative(x2).apply(x1 - x2))
            sc = lambda_max_scalarize(-gap)
            if sc.value > CONVEXITY_TOL:
                return ConvexityVerdict(False, ConvexityWitness(
                    x1, x2, None, sc.block, sc.vector, sc.value), samples)
        else:
            alphas = (0.25, 0.5, 0.75, float(rng.uniform(0.0, 1.0)))
            f1, f2 = map_oracle.value(x1), map_oracle.value(x2)
            for alpha in alphas:
                mid = alpha * x1 + (1.0 - alpha) * x2
                gap = (f1.scale(alpha) + f2.scale(1.0 - alpha)
                       - map_oracle.value(mid))
                sc = lambda_max_scalarize(-gap)
                if sc.value > CONVEXITY_TOL:
                    return ConvexityVerdict(False, ConvexityWitness(
                        x1, x2, alpha, sc.block, sc.vector, sc.value), samples)
    return ConvexityVerdict(True, None, samples)


# ---------------------------------------------------------------------------
# Cone.element's validation as first written: np.isfinite on every block and
# (a == a.T) on every PSD block, with no prefilter.  The prefiltered
# coneccp.cones._as_blocks must accept and reject the same blocks, with the
# same exception and message, and store the same bits.


def as_blocks_reference(cone, blocks):
    from coneccp.cones import SYM_RTOL, PsdCone
    from coneccp.errors import InvalidElement

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
        a = a.copy()
        a.setflags(write=False)
        out.append(a)
    return tuple(out)
