import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneccp.cones import Orthant, ProductCone, PsdCone
from coneccp.convexity import (VERIFY_CHUNK, convexity_gap,
                               verify_k_convexity)
from coneccp.dc import (ComponentwiseDcMatrix, ConeDerivative, ConvexOracle,
                        KConvexOracle, check_derivative_consistency,
                        estimate_hessian_bound, lambda_max_dc_decomposition,
                        lambda_max_subgradient, offdiag_dc_extraction,
                        quadratic_oracle, regularized_dc_decomposition,
                        zero_oracle)
from coneccp.errors import BoundTooSmall, ConeCcpError, OracleCheckError
from coneccp.library import (nonconvex_witness, quadratic_matrix_map,
                             random_componentwise_dc, stiefel)
from oracles import verify_k_convexity_reference

BOX1 = (np.array([-2.0]), np.array([2.0]))


def const_oracle(c):
    return ConvexOracle(lambda x: c, lambda x: np.zeros(1))


def scalar_poly(coeffs):
    c = np.asarray(coeffs, dtype=float)
    dc = np.polynomial.polynomial.polyder(c)

    def value(x):
        return float(np.polynomial.polynomial.polyval(float(x[0]), c))

    def subgrad(x):
        return np.array([np.polynomial.polynomial.polyval(float(x[0]), dc)])

    return ConvexOracle(value, subgrad)


class TestRegularizedDecomposition:
    def test_hand_values_on_witness_map(self):
        # F = [[1, x^2], [x^2, 1]]: second derivative of the off-diagonal
        # entry is 2, so the certified threshold is order * 2 = 4 and
        # G(x) = [[1 + 2x^2, x^2], [x^2, 1 + 2x^2]]
        F = nonconvex_witness()
        cmap = regularized_dc_decomposition(F, hessian_bound=2.0, mu=4.0)
        for t in (-1.5, 0.0, 0.3, 2.0):
            x = np.array([t])
            expect = np.array([[1.0 + 2 * t * t, t * t],
                               [t * t, 1.0 + 2 * t * t]])
            assert np.allclose(cmap.G.value(x).blocks[0], expect, atol=1e-14)
            assert np.allclose(cmap.H.value(x).blocks[0],
                               2 * t * t * np.eye(2), atol=1e-14)

    def test_split_reconstructs_map(self):
        F = nonconvex_witness()
        cmap = regularized_dc_decomposition(F, hessian_bound=2.0, mu=4.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-2, 2, 1)
            recon = cmap.value(x).blocks[0]
            scale = 1.0 + np.abs(F.matrix(x)).max()
            assert np.abs(recon - F.matrix(x)).max() <= 1e-9 * scale

    def test_h_derivative_is_scaled_identity(self):
        F = nonconvex_witness()
        cmap = regularized_dc_decomposition(F, hessian_bound=2.0, mu=4.0)
        x, u = np.array([0.7]), np.array([1.3])
        step = cmap.H.derivative(x).apply(u)
        assert np.allclose(step.blocks[0], 4.0 * 0.7 * 1.3 * np.eye(2),
                           atol=1e-14)

    def test_convexity_of_regularized_part(self):
        F = nonconvex_witness()
        cmap = regularized_dc_decomposition(F, hessian_bound=2.0, mu=4.0)
        verdict = verify_k_convexity(cmap.G, cmap.cone, 200, BOX1, seed=1)
        assert verdict.passed
        # scalar quadratic forms along random directions are midpoint convex
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.normal(size=2)
            z /= np.linalg.norm(z)
            for _ in range(10):
                a, b = rng.uniform(-2, 2, 2)
                qa = z @ cmap.G.value(np.array([a])).blocks[0] @ z
                qb = z @ cmap.G.value(np.array([b])).blocks[0] @ z
                qm = z @ cmap.G.value(np.array([(a + b) / 2])).blocks[0] @ z
                assert qm <= 0.5 * (qa + qb) + 1e-9

    def test_bound_too_small_rejected(self):
        with pytest.raises(BoundTooSmall):
            regularized_dc_decomposition(nonconvex_witness(),
                                         hessian_bound=2.0, mu=3.9)

    def test_affine_map_needs_no_regularization(self):
        B0 = np.array([[1.0, 0.5], [0.5, -1.0]])
        F = quadratic_matrix_map(np.eye(2), np.array([B0]),
                                 np.zeros((1, 1, 2, 2)))
        cmap = regularized_dc_decomposition(F, hessian_bound=0.0)
        assert cmap.H.value(np.array([1.7])).norm() == 0.0
        assert verify_k_convexity(cmap.G, cmap.cone, 100, BOX1, seed=3).passed

    def test_sampled_bound_is_flagged(self):
        F = nonconvex_witness()
        est = estimate_hessian_bound(F, BOX1, seed=0)
        assert est == pytest.approx(3.0, rel=1e-6)  # 1.5 safety on true 2
        cmap = regularized_dc_decomposition(F, box=BOX1)
        assert "hessian-bound-estimated-uncertified" in cmap.notes


class TestLambdaMaxDecomposition:
    def test_affine_diagonal(self):
        # F = diag(x, -x) taken with G = F (affine entries are convex), H = 0
        F = ComponentwiseDcMatrix.from_upper(2, 1, {
            (0, 0): (scalar_poly([0.0, 1.0]), const_oracle(0.0)),
            (0, 1): (const_oracle(0.0), const_oracle(0.0)),
            (1, 1): (scalar_poly([0.0, -1.0]), const_oracle(0.0)),
        })
        split = lambda_max_dc_decomposition(F)
        for t in (-1.3, 0.0, 0.8):
            x = np.array([t])
            assert split.h0.value(x) == pytest.approx(0.0, abs=1e-15)
            assert split.g0.value(x) == pytest.approx(abs(t), abs=1e-14)

    def test_quadratic_diagonal_by_hand(self):
        # F = diag(x^2, -x^2) with G = diag(x^2, 0), H = diag(0, x^2):
        # h = 2x^2 and g = lambda_max + h = 3x^2
        sq = scalar_poly([0.0, 0.0, 1.0])
        F = ComponentwiseDcMatrix.from_upper(2, 1, {
            (0, 0): (sq, const_oracle(0.0)),
            (0, 1): (const_oracle(0.0), const_oracle(0.0)),
            (1, 1): (const_oracle(0.0), sq),
        })
        split = lambda_max_dc_decomposition(F)
        for t in (-2.0, -0.3, 0.0, 1.1):
            x = np.array([t])
            assert split.h0.value(x) == pytest.approx(2 * t * t, abs=1e-13)
            assert split.g0.value(x) == pytest.approx(3 * t * t, abs=1e-13)
            assert split.f0(x) == pytest.approx(t * t, abs=1e-13)

    def test_identity_against_eigenvalue_oracle(self):
        for seed in range(10):
            F = random_componentwise_dc(seed, order=3, dim=2)
            split = lambda_max_dc_decomposition(F)
            rng = np.random.default_rng(100 + seed)
            for _ in range(100):
                x = rng.uniform(-2, 2, 2)
                lam = float(np.linalg.eigvalsh(F.value(x))[-1])
                assert abs(split.f0(x) - lam) <= 1e-10 * (1.0 + abs(lam))

    def test_g_convex_even_when_eigenvalue_is_not(self):
        # F = diag(-x^2, x^2 - 1) has nonconvex largest eigenvalue
        sq = scalar_poly([0.0, 0.0, 1.0])
        F = ComponentwiseDcMatrix.from_upper(2, 1, {
            (0, 0): (const_oracle(0.0), sq),
            (0, 1): (const_oracle(0.0), const_oracle(0.0)),
            (1, 1): (scalar_poly([-1.0, 0.0, 1.0]), const_oracle(0.0)),
        })
        lam = lambda t: max(-t * t, t * t - 1.0)
        assert lam(0.5) < 0.5 * (lam(0.0) + lam(1.0)) - 0.2  # nonconvex
        split = lambda_max_dc_decomposition(F)
        rng = np.random.default_rng(5)
        for orc in (split.g0, split.h0):
            for _ in range(300):
                a, b = rng.uniform(-2, 2, 2)
                mid = 0.5 * (a + b)
                lhs = orc.value(np.array([mid]))
                rhs = 0.5 * (orc.value(np.array([a]))
                             + orc.value(np.array([b])))
                assert lhs <= rhs + 1e-9


class TestLambdaMaxSubgradient:
    def test_hand_value_on_affine_instance(self):
        # F = diag(x, 2x), G = F, H = 0 at x = 1: top eigenvector e2,
        # so xi_g = (0 + 1) * 1 + (1 + 1) * 2 = 5 and xi_h = 1 + 2 = 3.
        F = ComponentwiseDcMatrix.from_upper(2, 1, {
            (0, 0): (scalar_poly([0.0, 1.0]), const_oracle(0.0)),
            (0, 1): (const_oracle(0.0), const_oracle(0.0)),
            (1, 1): (scalar_poly([0.0, 2.0]), const_oracle(0.0)),
        })
        xi_g, xi_h = lambda_max_subgradient(F, np.array([1.0]))
        assert xi_g[0] == pytest.approx(5.0, abs=1e-12)
        assert xi_h[0] == pytest.approx(3.0, abs=1e-12)
        # difference is the derivative of lambda_max = 2x
        assert (xi_g - xi_h)[0] == pytest.approx(2.0, abs=1e-12)

    def test_constant_map_has_zero_subgradients(self):
        F = ComponentwiseDcMatrix.from_upper(2, 1, {
            (0, 0): (const_oracle(1.0), const_oracle(0.0)),
            (0, 1): (const_oracle(0.3), const_oracle(0.0)),
            (1, 1): (const_oracle(-1.0), const_oracle(0.0)),
        })
        xi_g, xi_h = lambda_max_subgradient(F, np.array([0.4]))
        assert np.all(xi_h == 0.0)
        assert np.all(xi_g - xi_h == 0.0)

    def test_subgradient_inequality_on_random_pairs(self):
        F = random_componentwise_dc(3, order=2, dim=2)
        split = lambda_max_dc_decomposition(F)
        rng = np.random.default_rng(17)
        for _ in range(500):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            xi_g, xi_h = lambda_max_subgradient(F, x)
            gx, gy = split.g0.value(x), split.g0.value(y)
            hx, hy = split.h0.value(x), split.h0.value(y)
            assert gy >= gx + xi_g @ (y - x) - 1e-9 * (1.0 + abs(gx))
            assert hy >= hx + xi_h @ (y - x) - 1e-9 * (1.0 + abs(hx))


class TestOffdiagExtraction:
    @staticmethod
    def sine_map_oracle():
        # [[0.5 x^2, sin x], [sin x, 0.5 x^2]] is matrix convex although its
        # off-diagonal entries are not convex
        cone = PsdCone(2)

        def value(x):
            t = float(x[0])
            return cone.element(np.array([[0.5 * t * t, np.sin(t)],
                                          [np.sin(t), 0.5 * t * t]]))

        def qf_subgrad(x, block, v):
            t = float(x[0])
            return np.array([t * float(v @ v)
                             + 2.0 * v[0] * v[1] * np.cos(t)])

        return KConvexOracle(value, qf_subgrad)

    def test_identity_recovers_entry(self):
        orc = self.sine_map_oracle()
        p, q = offdiag_dc_extraction(orc, order=2, i=0, j=1)
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = float(rng.uniform(-3, 3))
            x = np.array([t])
            assert p.value(x) - q.value(x) == pytest.approx(np.sin(t),
                                                            abs=1e-12)
            # the convex part is 0.5 (x^2 + 2 sin x)
            assert p.value(x) == pytest.approx(0.5 * (t * t + 2 * np.sin(t)),
                                               abs=1e-12)

    def test_extracted_parts_midpoint_convex(self):
        orc = self.sine_map_oracle()
        p, q = offdiag_dc_extraction(orc, order=2, i=0, j=1)
        rng = np.random.default_rng(9)
        for orc_part in (p, q):
            for _ in range(200):
                a, b = rng.uniform(-3, 3, 2)
                mid = np.array([0.5 * (a + b)])
                assert orc_part.value(mid) <= 0.5 * (
                    orc_part.value(np.array([a]))
                    + orc_part.value(np.array([b]))) + 1e-9

    def test_affine_map_extraction(self):
        cone = PsdCone(2)
        M = np.array([[0.0, 1.0], [1.0, 0.0]])

        def value(x):
            return cone.element(float(x[0]) * M)

        def qf_subgrad(x, block, v):
            return np.array([float(v @ M @ v)])

        p, q = offdiag_dc_extraction(KConvexOracle(value, qf_subgrad),
                                     order=2, i=0, j=1)
        for t in (-1.0, 0.2, 2.0):
            x = np.array([t])
            assert p.value(x) - q.value(x) == pytest.approx(t, abs=1e-14)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            offdiag_dc_extraction(self.sine_map_oracle(), order=2, i=1, j=1)


class TestConvexityVerifier:
    def test_witness_on_nonconvex_map(self):
        # the map is smooth, so the verifier refutes through the gradient
        # inequality; recompute the reported gap to confirm the violation
        F = nonconvex_witness()
        verdict = verify_k_convexity(F, PsdCone(2), 200, BOX1, seed=0)
        assert not verdict.passed
        w = verdict.witness
        assert w.alpha is None
        gap = (F.value(w.x1) - F.value(w.x2)
               - F.derivative(w.x2).apply(w.x1 - w.x2))
        viol = float(w.z @ (-gap.blocks[w.block]) @ w.z)
        assert viol > 1e-9
        assert viol == pytest.approx(w.violation, rel=1e-9)

    def test_witness_through_midpoint_path(self):
        # hide the derivative to exercise the midpoint test: the witness
        # then carries a concrete combination weight
        F = nonconvex_witness()

        class ValueOnly:
            value = staticmethod(F.value)

        verdict = verify_k_convexity(ValueOnly(), PsdCone(2), 200, BOX1,
                                     seed=0)
        assert not verdict.passed
        w = verdict.witness
        assert w.alpha is not None and 0.0 < w.alpha < 1.0
        gap = convexity_gap(ValueOnly(), w.x1, w.x2, w.alpha)
        viol = float(w.z @ (-gap.blocks[w.block]) @ w.z)
        assert viol > 1e-9
        assert viol == pytest.approx(w.violation, rel=1e-9)

    def test_canonical_midpoint_gap(self):
        # at x1 = 1, x2 = -1, alpha = 1/2 the gap is [[0, 1], [1, 0]],
        # indefinite with extreme eigenvalues +-1
        gap = convexity_gap(nonconvex_witness(), np.array([1.0]),
                            np.array([-1.0]), 0.5)
        assert np.allclose(gap.blocks[0], [[0.0, 1.0], [1.0, 0.0]],
                           atol=1e-14)
        ws = np.linalg.eigvalsh(-gap.blocks[0])
        assert ws[-1] == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality_constraint_part_passes(self):
        inst = stiefel(3, 2)
        bounds = (inst.feasible_set.lo, inst.feasible_set.hi)
        assert verify_k_convexity(inst.constraint.G, inst.constraint.cone,
                                  200, bounds, seed=1).passed
        assert verify_k_convexity(inst.constraint.H, inst.constraint.cone,
                                  200, bounds, seed=2).passed

    def test_affine_passes(self):
        B0 = np.array([[0.3, 1.0], [1.0, -0.7]])
        F = quadratic_matrix_map(np.eye(2), np.array([B0]),
                                 np.zeros((1, 1, 2, 2)))
        assert verify_k_convexity(F, PsdCone(2), 100, BOX1, seed=4).passed

    def test_derivative_checker_flags_wrong_derivative(self):
        inst = stiefel(2, 2)
        good = inst.constraint.H
        check_derivative_consistency(good, (inst.feasible_set.lo,
                                            inst.feasible_set.hi), seed=0)

        class Corrupted:
            value = staticmethod(good.value)

            @staticmethod
            def derivative(x):
                d = good.derivative(x)
                return type(d)(d.cone, tuple(1.05 * b for b in d.blocks))

        with pytest.raises(OracleCheckError):
            check_derivative_consistency(Corrupted(), (inst.feasible_set.lo,
                                                       inst.feasible_set.hi),
                                         seed=0)


class TestSelfChecks:
    def test_strong_convexity_declaration_checked(self):
        from coneccp.dc import ScalarDcFunction
        good = ScalarDcFunction(g0=quadratic_oracle(2.0 * np.eye(1)),
                                h0=quadratic_oracle(1.0 * np.eye(1)),
                                dim=1, strong_convexity_of_h=1.0)
        good.self_check(BOX1)
        bad = ScalarDcFunction(g0=quadratic_oracle(2.0 * np.eye(1)),
                               h0=zero_oracle(1),
                               dim=1, strong_convexity_of_h=1.0)
        with pytest.raises(OracleCheckError):
            bad.self_check(BOX1)


# ---------------------------------------------------------------------------
# The chunked convexity check against the one-sample-at-a-time loop


class QuadraticTestMap:
    """x -> C + sum_i x_i B_i + sum_ij x_i x_j A_ij per block, plus an
    optional smooth bump h * max(0, 1 - |x - p|^2 / r^2)^2 on one diagonal
    entry (or component) of one block, which breaks convexity only within r
    of p.  ``derivative`` is set only when asked for, so both branches of the
    check can be reached."""

    def __init__(self, cone, data, with_derivative, bump=None):
        self.cone, self.data, self.bump = cone, data, bump
        if with_derivative:
            self.derivative = self._derivative

    def _bump(self, x):
        """(value, gradient) of the bump's profile, or None outside it."""
        if self.bump is None:
            return None
        p, r, _, height = self.bump
        t = 1.0 - float((x - p) @ (x - p)) / (r * r)
        if t <= 0.0:
            return None
        return height * t * t, -4.0 * height * t * (x - p) / (r * r)

    def _indicator(self, k):
        block = np.zeros(self.data[k][0].shape)
        block[(0,) * block.ndim] = 1.0
        return block

    def value(self, x):
        blocks = [C + np.tensordot(x, B, 1) + np.tensordot(x, np.tensordot(
            x, A, 1), 1) for C, B, A in self.data]
        bump = self._bump(x)
        if bump is not None:
            blocks[self.bump[2]] = blocks[self.bump[2]] \
                + bump[0] * self._indicator(self.bump[2])
        return self.cone.element(tuple(blocks))

    def _derivative(self, x):
        arrs = [B + 2.0 * np.tensordot(x, A, axes=(0, 1))
                for C, B, A in self.data]
        bump = self._bump(x)
        if bump is not None:
            k = self.bump[2]
            arrs[k] = arrs[k] + np.multiply.outer(bump[1], self._indicator(k))
        return ConeDerivative(self.cone, tuple(arrs))


def quadratic_test_data(cone, d, rng, convex):
    """Per block (C, B, A) with A_ij = sign * sum_r u_ri u_rj S_r, S_r PSD:
    matrix-convex for sign +1, concave along u for sign -1."""
    sign = 1.0 if convex else -1.0
    data = []
    for leaf in cone.leaves():
        shape = ((leaf.order, leaf.order) if isinstance(leaf, PsdCone)
                 else (leaf.dim,))
        C = rng.normal(size=shape)
        B = rng.normal(size=(d,) + shape)
        A = np.zeros((d, d) + shape)
        for _ in range(2):
            u = rng.normal(size=d)
            if len(shape) == 2:
                W = rng.normal(size=shape)
                S = W @ W.T
            else:
                S = rng.uniform(0.1, 1.0, shape)
            A += sign * np.multiply.outer(np.outer(u, u), S)
        if len(shape) == 2:
            C = 0.5 * (C + C.T)
            B = 0.5 * (B + np.swapaxes(B, 1, 2))
            A = 0.5 * (A + np.swapaxes(A, 2, 3))
        data.append((C, B, A))
    return data


def sample_points(samples, box, seed, with_derivative):
    """The (x1, x2, points evaluated) of each sample, drawn as the check
    draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        x1, x2 = rng.uniform(*box), rng.uniform(*box)
        if with_derivative:
            out.append((x1, x2, [x1, x2]))
        else:
            alphas = (0.25, 0.5, 0.75, float(rng.uniform(0.0, 1.0)))
            out.append((x1, x2, [x1, x2] + [a * x1 + (1.0 - a) * x2
                                            for a in alphas]))
    return out


def same_verdict(a, b):
    if (a.passed, a.samples) != (b.passed, b.samples):
        return False
    if a.witness is None or b.witness is None:
        return a.witness is None and b.witness is None
    wa, wb = a.witness, b.witness
    return (wa.x1.tobytes() == wb.x1.tobytes()
            and wa.x2.tobytes() == wb.x2.tobytes()
            and wa.alpha == wb.alpha and type(wa.alpha) is type(wb.alpha)
            and wa.block == wb.block and type(wa.block) is type(wb.block)
            and wa.z.tobytes() == wb.z.tobytes()
            and not wa.z.flags.writeable and not wb.z.flags.writeable
            and wa.violation == wb.violation
            and type(wa.violation) is type(wb.violation))


TEST_CONES = (PsdCone(1), PsdCone(2), PsdCone(3), Orthant(1), Orthant(3),
              ProductCone((PsdCone(2), Orthant(2))),
              ProductCone((Orthant(1), PsdCone(1), PsdCone(3))))


class TestChunkedConvexityCheck:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(cone=st.sampled_from(TEST_CONES), d=st.integers(1, 3),
           with_derivative=st.booleans(),
           samples=st.sampled_from((1, 64, 65, 197)),
           kind=st.sampled_from(("convex", "nonconvex", "planted")),
           data_seed=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16),
           planted_at=st.floats(0.0, 1.0, exclude_max=True))
    def test_matches_one_sample_at_a_time(self, cone, d, with_derivative,
                                          samples, kind, data_seed, seed,
                                          planted_at):
        rng = np.random.default_rng(data_seed)
        data = quadratic_test_data(cone, d, rng, convex=kind != "nonconvex")
        box = (rng.uniform(-2.0, 0.0, d), rng.uniform(0.5, 2.0, d))
        bump = k = None
        if kind == "planted":
            # a tall bump at the gap's second point (derivative) or its
            # alpha = 1/2 midpoint, narrower than the distance to every other
            # point evaluated up to then: the first violation is sample k
            k = int(planted_at * samples)
            points = sample_points(k + 1, box, seed, with_derivative)
            p = points[k][2][1 if with_derivative else 3]
            others = [q for _, _, qs in points for q in qs
                      if q.tobytes() != p.tobytes()]
            r = 0.5 * min(float(np.linalg.norm(q - p)) for q in others)
            bump = (p, r, int(rng.integers(len(data))), 1e4)
        F = QuadraticTestMap(cone, data, with_derivative, bump)
        got = verify_k_convexity(F, cone, samples, box, seed=seed)
        want = verify_k_convexity_reference(F, cone, samples, box, seed=seed)
        assert same_verdict(got, want)
        if kind == "convex":
            assert want.passed
        if kind == "planted":
            x1, x2, _ = points[k]
            assert not want.passed
            assert want.witness.x1.tobytes() == x1.tobytes()
            assert want.witness.x2.tobytes() == x2.tobytes()
            assert want.witness.alpha == (None if with_derivative else 0.5)

    def test_violation_in_a_later_chunk(self):
        # samples 0..129 pass; the first violation is sample 130, in the
        # third chunk, found with the same witness as the loop finds it
        cone, box = ProductCone((PsdCone(2), Orthant(2))), BOX1
        data = quadratic_test_data(cone, 1, np.random.default_rng(5), True)
        for with_derivative in (True, False):
            points = sample_points(131, box, 9, with_derivative)
            p = points[130][2][1 if with_derivative else 3]
            r = 0.5 * min(abs(float(q[0] - p[0])) for _, _, qs in points
                          for q in qs if q.tobytes() != p.tobytes())
            F = QuadraticTestMap(cone, data, with_derivative, (p, r, 1, 1e4))
            got = verify_k_convexity(F, cone, 197, box, seed=9)
            want = verify_k_convexity_reference(F, cone, 197, box, seed=9)
            assert same_verdict(got, want)
            assert got.witness.x1.tobytes() == points[130][0].tobytes()
            assert got.witness.block == 1

    def test_ties_go_to_the_first_block_and_component(self):
        # twin blocks (and twin orthant components) tie exactly, and the
        # witness names the first of them, as lambda_max_scalarize does
        rng = np.random.default_rng(3)
        (C, B, A), = quadratic_test_data(Orthant(1), 2, rng, convex=False)
        twin = (np.repeat(C, 2), np.repeat(B, 2, axis=-1),
                np.repeat(A, 2, axis=-1))
        psd, = quadratic_test_data(PsdCone(2), 2, rng, convex=False)
        box = (-np.ones(2), np.ones(2))
        for cone, data in ((ProductCone((Orthant(2), Orthant(2))),
                            [twin, twin]),
                           (ProductCone((PsdCone(2), PsdCone(2))),
                            [psd, psd])):
            for with_derivative in (True, False):
                F = QuadraticTestMap(cone, data, with_derivative)
                got = verify_k_convexity(F, cone, 100, box, seed=2)
                want = verify_k_convexity_reference(F, cone, 100, box, seed=2)
                assert same_verdict(got, want)
                assert got.witness.block == 0
                if isinstance(cone.parts[0], Orthant):
                    assert got.witness.z.tolist() == [1.0, 0.0]

    def test_stops_after_the_chunk_of_the_first_violation(self):
        # x -> -x^2 on the orthant fails at the first sample, so a check of
        # 1000 samples evaluates the map at one chunk's points only
        cone = Orthant(1)
        for with_derivative in (True, False):
            calls = {"value": 0, "derivative": 0}

            class Concave:
                @staticmethod
                def value(x):
                    calls["value"] += 1
                    return cone.element(np.array([-float(x @ x)]))

            if with_derivative:
                def derivative(x):
                    calls["derivative"] += 1
                    return ConeDerivative(cone, (-2.0 * x[:, None],))
                Concave.derivative = staticmethod(derivative)

            got = verify_k_convexity(Concave, cone, 1000, BOX1, seed=0)
            per_sample = 2 if with_derivative else 6
            assert calls["value"] == per_sample * VERIFY_CHUNK
            assert calls["derivative"] == (VERIFY_CHUNK if with_derivative
                                           else 0)
            want = verify_k_convexity_reference(Concave, cone, 1000, BOX1,
                                                seed=0)
            assert same_verdict(got, want)
            first = sample_points(1, BOX1, 0, with_derivative)[0]
            assert got.witness.x1.tobytes() == first[0].tobytes()

    @pytest.mark.parametrize("samples", [0, -3, True, False, 2.0, "5", None])
    def test_a_check_of_nothing_is_refused(self, samples):
        with pytest.raises(ConeCcpError, match="samples must be a positive"):
            verify_k_convexity(nonconvex_witness(), PsdCone(2), samples,
                               BOX1)

    @pytest.mark.parametrize("box", [
        (np.array([2.0]), np.array([-2.0])),
        (np.array([-2.0]), np.array([np.inf])),
        (np.array([np.nan]), np.array([2.0])),
    ])
    def test_a_box_that_cannot_be_sampled_is_refused(self, box):
        with pytest.raises(ConeCcpError, match="box must be finite"):
            verify_k_convexity(nonconvex_witness(), PsdCone(2), 10, box)

    def test_integer_types_accepted(self):
        for samples in (1, np.int64(3)):
            verdict = verify_k_convexity(nonconvex_witness(), PsdCone(2),
                                         samples, BOX1, seed=0)
            assert verdict.samples == samples
