"""Randomized checker for convexity with respect to a cone order.

:func:`verify_k_convexity` samples the gradient inequality of a map with a
derivative, or midpoint inequalities of one without, and returns the first
violation as a concrete witness.  Used by the ``verify convexity`` command
and by the sampled self checks of :mod:`coneccp.dc` and
:mod:`coneccp.library`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .cones import Cone, ConeElement
from .errors import ConeCcpError

# the violation a sampled gap must exceed to count
CONVEXITY_TOL = 1e-9
# the fixed midpoint weights, and the samples drawn, evaluated and
# scalarized at once (memory is bounded by the chunk)
MIDPOINT_ALPHAS = (0.25, 0.5, 0.75)
VERIFY_CHUNK = 64


@dataclass(frozen=True)
class ConvexityWitness:
    x1: np.ndarray
    x2: np.ndarray
    alpha: float | None  # None when found through the derivative test
    block: int
    z: np.ndarray
    violation: float


@dataclass(frozen=True)
class ConvexityVerdict:
    passed: bool
    witness: ConvexityWitness | None
    samples: int


def convexity_gap(map_oracle, x1, x2, alpha) -> ConeElement:
    """alpha F(x1) + (1-alpha) F(x2) - F(alpha x1 + (1-alpha) x2)."""
    mid = alpha * x1 + (1.0 - alpha) * x2
    return (map_oracle.value(x1).scale(alpha)
            + map_oracle.value(x2).scale(1.0 - alpha) - map_oracle.value(mid))


def verify_k_convexity(map_oracle, cone: Cone, samples: int, box,
                       seed=0) -> ConvexityVerdict:
    """Randomized convexity check with respect to the cone order.

    When the oracle exposes a derivative the gradient inequality
    F(x1) - F(x2) >=_K DF(x2)(x1 - x2) is sampled; otherwise midpoint
    inequalities with alpha in {0.25, 0.5, 0.75} and one uniform draw per
    pair.  Violations are measured by the largest eigenvalue of the negated
    gap (the largest component on orthant blocks, the first block on ties);
    the first violation beyond ``CONVEXITY_TOL`` in draw order is returned
    as a concrete witness.  Passing is evidence, not proof: sampling is sound
    but incomplete.  ``samples`` must be a positive integer and ``box`` a
    pair (lo, hi) of finite 1-d arrays with lo <= hi, else
    :class:`ConeCcpError`.

    Samples are processed ``VERIFY_CHUNK`` at a time: one draw of the
    chunk's uniforms, one oracle call per point, then the gaps and their
    eigenvalues for the whole chunk at once.  The draws, the verdict and the
    witness are bit for bit those of checking one sample at a time, and the
    check stops after the chunk that holds the first violation.  The whole
    of that chunk is evaluated, so an oracle that raises at a point after
    the first violation raises, and no witness is returned.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) \
            or samples < 1:
        raise ConeCcpError(
            f"samples must be a positive integer, got {samples!r}")
    rng = np.random.default_rng(seed)
    lo, hi = box
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = hi - lo
    if not (np.isfinite(width).all() and (width >= 0.0).all()):
        raise ConeCcpError("box must be finite with lo <= hi")
    d = lo.size
    use_derivative = callable(getattr(map_oracle, "derivative", None))

    for start in range(0, samples, VERIFY_CHUNK):
        n = min(VERIFY_CHUNK, samples - start)
        # Generator.uniform(lo, hi) returns lo + (hi - lo) * random(), so a
        # row holds the x1, x2 (and alpha) one sample at a time would draw
        u = rng.random((n, 2 * d + (not use_derivative)))
        x1 = lo + width * u[:, :d]
        x2 = lo + width * u[:, d:2 * d]
        alphas = None
        if not use_derivative:
            alphas = np.empty((n, len(MIDPOINT_ALPHAS) + 1))
            alphas[:, :-1] = MIDPOINT_ALPHAS
            alphas[:, -1] = u[:, 2 * d]  # uniform(0, 1) = 0.0 + 1.0 * u
        tops = [_top(a) for a in _neg_gaps(map_oracle, x1, x2, alphas)]
        value, block = tops[0][0], np.zeros(tops[0][0].shape, dtype=int)
        for k, (val, _) in enumerate(tops[1:], 1):
            # a strict comparison keeps the first block on ties
            better = val > value
            value = np.where(better, val, value)
            block[better] = k
        hits = np.flatnonzero(value > CONVEXITY_TOL)
        if hits.size:
            i, j = divmod(int(hits[0]), value.shape[1])
            k = int(block[i, j])
            z = tops[k][1][i, j].copy()
            z.setflags(write=False)
            return ConvexityVerdict(False, ConvexityWitness(
                x1[i].copy(), x2[i].copy(),
                None if alphas is None else float(alphas[i, j]), k, z,
                float(value[i, j])), samples)
    return ConvexityVerdict(True, None, samples)


def _neg_gaps(map_oracle, x1, x2, alphas):
    """Per block, the negated gaps of every sample, stacked with shape
    (samples, tests, ...): -(F(x1) - F(x2) - DF(x2)(x1 - x2)) when alphas is
    None, else -convexity_gap at each alpha of the sample's row.

    The map is evaluated point by point, in the order one sample at a time
    would evaluate it, straight into the stacked arrays.
    """
    if alphas is None:
        points = np.stack((x1, x2), axis=1)
    else:
        mids = alphas[:, :, None] * x1[:, None] \
            + (1.0 - alphas)[:, :, None] * x2[:, None]
        points = np.concatenate((x1[:, None], x2[:, None], mids), axis=1)
    vals = dvs = None
    for i, row in enumerate(points):
        for j, x in enumerate(row):
            blocks = map_oracle.value(x).blocks
            if vals is None:
                vals = [np.empty(points.shape[:2] + b.shape) for b in blocks]
                if alphas is None:
                    dvs = [np.empty((len(points),) + b.shape) for b in blocks]
            for arr, b in zip(vals, blocks):
                arr[i, j] = b
        if alphas is None:
            for arr, b in zip(dvs, map_oracle.derivative(row[1]).apply_blocks(
                    row[0] - row[1])):
                arr[i] = b
    if alphas is None:
        return [-((v[:, :1] - v[:, 1:2]) - dv[:, None])
                for v, dv in zip(vals, dvs)]
    out = []
    for v in vals:
        t = alphas.reshape(alphas.shape + (1,) * (v.ndim - 2))
        out.append(-((t * v[:, :1] + (1.0 - t) * v[:, 1:2]) - v[:, 2:]))
    return out


def _top(neg_gaps):
    """The largest eigenvalue (PSD) or component (orthant) of every stacked
    block, and its unit eigenvector or coordinate indicator, as
    :func:`coneccp.cones.lambda_max_scalarize` finds them per block."""
    if neg_gaps.ndim == 4:
        # LAPACK runs per matrix, so each matches its own eigh bit for bit
        w, v = np.linalg.eigh(neg_gaps)
        return w[..., -1], v[..., -1]
    idx = np.argmax(neg_gaps, axis=-1)
    return (np.take_along_axis(neg_gaps, idx[..., None], -1)[..., 0],
            np.eye(neg_gaps.shape[-1])[idx])
