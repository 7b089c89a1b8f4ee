import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from coneccp.cones import Orthant, ProductCone, PsdCone, lambda_max_scalarize
from coneccp.convexity import verify_k_convexity
from coneccp.errors import ConeCcpError, InvalidElement, SchemaError
from coneccp.library import (CURVATURE_RTOL, builtin, example29,
                             nonconvex_witness, polynomial_constraint_map,
                             polynomial_nonconvexity, quadratic_hessian_bound,
                             quadratic_matrix_map, quadratic_sdp,
                             random_componentwise_dc, stiefel,
                             stiefel11_builtin, with_strong_convexity)
from coneccp.penalty import PenaltyConfig, run_penalty_ccp
from coneccp.problem_io import load_problem


class TestExample29:
    def test_objective_values(self):
        p = example29()
        assert p.objective.f0(np.array([-1.0])) == pytest.approx(2.25,
                                                                 abs=1e-14)
        assert p.objective.f0(np.array([0.5])) == pytest.approx(0.0,
                                                                abs=1e-14)

    def test_constraint_values(self):
        p = example29()
        val = lambda t: p.constraint.value(np.array([t])).blocks[0][0]
        assert val(0.5) == pytest.approx(0.1875, abs=1e-14)
        assert val(1.0) == pytest.approx(0.0, abs=1e-14)
        assert val(-1.0) == pytest.approx(0.0, abs=1e-14)

    def test_cone_and_facts(self):
        p = example29()
        assert p.constraint.cone == Orthant(1)
        assert p.known_facts["critical_points"] == [-1.0, 0.0, 1.0]
        assert p.known_facts["multipliers"]["-1.0"] == 1.5

    def test_oracle_self_checks(self):
        example29().self_check(seed=1)


class TestQuadraticSdp:
    def test_seeded_instances_are_bitwise_reproducible(self):
        a = quadratic_sdp(42, validate=False)
        b = quadratic_sdp(42, validate=False)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-3, 3, 2)
            va = a.constraint.value(x).blocks[0]
            vb = b.constraint.value(x).blocks[0]
            assert np.array_equal(va, vb)
            assert a.objective.f0(x) == b.objective.f0(x)
        assert np.array_equal(a.known_facts["strictly_feasible_point"],
                              b.known_facts["strictly_feasible_point"])

    def test_generator_guarantees_strict_feasibility(self):
        for seed in range(6):
            p = quadratic_sdp(seed, validate=False)
            x_bar = p.known_facts["strictly_feasible_point"]
            assert lambda_max_scalarize(
                p.constraint.value(x_bar)).value <= -0.4

    def test_seeded_instance_passes_verifier(self):
        p = quadratic_sdp(42)
        bounds = (p.feasible_set.lo, p.feasible_set.hi)
        assert verify_k_convexity(p.constraint.G, p.constraint.cone, 200,
                                  bounds, seed=0).passed

    def test_affine_special_case_has_no_concave_part(self):
        C = np.diag([-1.0, -1.0])
        B = np.array([[[0.5, 0.1], [0.1, 0.0]], [[0.0, 0.2], [0.2, 0.3]]])
        A = np.zeros((2, 2, 2, 2))
        p = quadratic_sdp(C=C, B=B, A=A)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-3, 3, 2)
            assert p.constraint.H.value(x).norm() == 0.0
        assert p.known_facts["hessian_bound"] == 0.0

    def test_malformed_explicit_blocks_rejected_at_construction(self):
        # with no sampling left, the blocks themselves are checked
        C = np.diag([-1.0, -1.0])
        B = np.zeros((2, 2, 2))
        A = np.zeros((2, 2, 2, 2))
        bad_A = A.copy()
        bad_A[0, 1, 0, 1] = bad_A[1, 0, 0, 1] = np.nan
        for data, fragment in (
                ((np.array([[-1.0, 1.0], [0.0, -1.0]]), B, A), "asymmetry"),
                ((C, B, bad_A), "non-finite")):
            with pytest.raises(InvalidElement, match=fragment):
                quadratic_sdp(C=data[0], B=data[1], A=data[2])

    def test_curvature_bound_on_cross_term_instance(self):
        # single block A11 = [[0, 1], [1, 0]]: entry Hessians are the 1x1
        # matrices [2] on the off-diagonal, so the certified bound is 2 and
        # the regularization threshold order * bound = 4
        A = np.array([[[[0.0, 1.0], [1.0, 0.0]]]])
        assert quadratic_hessian_bound(A) == pytest.approx(2.0, abs=1e-14)
        C = -np.eye(2)
        B = np.zeros((1, 2, 2))
        smooth = quadratic_matrix_map(C, B, A)
        from coneccp.dc import regularized_dc_decomposition
        from coneccp.errors import BoundTooSmall
        box1 = (np.array([-2.0]), np.array([2.0]))
        certified = regularized_dc_decomposition(smooth, hessian_bound=2.0)
        assert verify_k_convexity(certified.G, certified.cone, 300, box1,
                                  seed=0).passed
        # mu = 2 is the tight convexity threshold for this map: still passes
        tight = regularized_dc_decomposition(smooth, hessian_bound=1.0, mu=2.0)
        assert verify_k_convexity(tight.G, tight.cone, 300, box1,
                                  seed=1).passed
        # below the tight threshold convexity genuinely fails
        broken = regularized_dc_decomposition(smooth, hessian_bound=0.5,
                                              mu=1.0)
        assert not verify_k_convexity(broken.G, broken.cone, 300, box1,
                                      seed=2).passed
        with pytest.raises(BoundTooSmall):
            regularized_dc_decomposition(smooth, hessian_bound=2.0, mu=3.0)

    def test_mu_that_rounds_the_map_away_rejected(self):
        # on [-2, 2] the rounding eps * (mu/2) * 4 reaches 1e-8 at mu of
        # about 2.25e7; without a box there is nothing to check against
        from coneccp.dc import regularized_dc_decomposition
        smooth = quadratic_matrix_map(-np.eye(2), np.zeros((1, 2, 2)),
                                      np.array([[np.eye(2)]]))
        box1 = (np.array([-2.0]), np.array([2.0]))
        regularized_dc_decomposition(smooth, hessian_bound=1.0, mu=2e7,
                                     box=box1)
        regularized_dc_decomposition(smooth, hessian_bound=1.0, mu=3e7)
        with pytest.raises(ValueError, match="rounds F away on the box"):
            regularized_dc_decomposition(smooth, hessian_bound=1.0, mu=3e7,
                                         box=box1)
        with pytest.raises(ValueError, match="rounds F away on the box"):
            quadratic_sdp(7, mu=1e308)

    def test_rounding_tolerance_is_the_inner_feasibility_tolerance(self):
        from coneccp import dc, inner
        assert dc.REGULARIZER_ROUNDING_TOL == inner.TOL_FEAS


class TestStiefel:
    def test_scalar_case_feasible_points(self):
        p = stiefel(1, 1)
        for t, feasible in ((-1.0, True), (1.0, True), (0.3, False),
                            (1.5, False)):
            val = lambda_max_scalarize(p.constraint.value(np.array([t]))).value
            assert (val <= 1e-12) == feasible

    def test_product_cone_layout(self):
        p = stiefel(3, 2)
        assert p.constraint.cone == ProductCone((PsdCone(2), PsdCone(2)))
        X0 = p.known_facts["orthonormal_point"]
        assert lambda_max_scalarize(p.constraint.value(X0)).value <= 1e-12

    def test_penalty_run_lands_on_the_manifold(self):
        p = stiefel11_builtin()
        cfg = PenaltyConfig(tau0=1.0, mu=2.0, kappa=1e-6, tau_max=1024.0)
        tr = run_penalty_ccp(p, [0.3], cfg)
        assert abs(abs(tr.final_x[0]) - 1.0) <= 1e-3
        assert tr.final_x[0] == pytest.approx(1.0, abs=1e-3)

    def test_convexity_of_both_parts(self):
        p = stiefel(2, 2)
        bounds = (p.feasible_set.lo, p.feasible_set.hi)
        assert verify_k_convexity(p.constraint.G, p.constraint.cone, 200,
                                  bounds, seed=3).passed
        p.constraint.self_check(bounds, seed=4)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ConeCcpError):
            stiefel(1, 2)


class TestGenerators:
    def test_componentwise_matrix_is_reproducible_and_symmetric(self):
        F1 = random_componentwise_dc(3, order=3, dim=2)
        F2 = random_componentwise_dc(3, order=3, dim=2)
        x = np.array([0.3, -1.2])
        assert np.array_equal(F1.value(x), F2.value(x))
        assert np.array_equal(F1.value(x), F1.value(x).T)
        assert F1.pair(0, 1)[0] is F1.pair(1, 0)[0]

    def test_nonconvex_witness_entries(self):
        F = nonconvex_witness()
        M = F.matrix(np.array([2.0]))
        assert M[0, 1] == 4.0 and M[0, 0] == 1.0

    def test_builtin_registry(self):
        assert builtin("example29").name == "example29"
        with pytest.raises(ConeCcpError):
            builtin("nope")


class TestStrongConvexityShift:
    def test_objective_value_unchanged(self):
        p = example29()
        q = with_strong_convexity(p, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(-10, 10, 1)
            assert q.objective.f0(x) == pytest.approx(p.objective.f0(x),
                                                      abs=1e-12)
        assert q.objective.strong_convexity_of_h == 1.0
        q.objective.self_check((p.feasible_set.lo, p.feasible_set.hi))


GRID = 20001


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
       lo=st.floats(-2.0, 2.0), width=st.floats(0.0, 3.0))
def test_polynomial_certificate_matches_a_dense_grid(coeffs, lo, width):
    hi = lo + width
    d2 = P.polyder(coeffs, 2)
    grid = np.linspace(lo, hi, GRID)
    curvature = P.polyval(grid, d2)
    tol = CURVATURE_RTOL * (1.0 + np.abs(curvature).max())
    # between grid points p'' falls at most half a step times max |p'''|
    slope = np.abs(P.polyval(grid, P.polyder(d2))).max()
    margin = 0.5 * width / (GRID - 1) * slope + 1e-9
    lowest = curvature.min()
    defect = polynomial_nonconvexity(coeffs, lo, hi)
    if lowest < -tol - margin:
        assert defect is not None
        t, value = defect
        assert lo <= t <= hi
        assert value <= lowest + 1e-12
    elif lowest > -tol + margin:
        assert defect is None
    if defect is None:
        bounds = (np.array([lo]), np.array([hi]))
        cmap = polynomial_constraint_map([coeffs], [coeffs])
        for part in (cmap.G, cmap.H):
            assert verify_k_convexity(part, cmap.cone, 30, bounds,
                                      seed=1).passed


class TestPolynomialCertificate:
    # p'' = 12 (t - 0.123)^2 - 1e-4 dips below zero only on a sliver about
    # 0.006 wide of [-10, 10], which 80 random draws all but surely miss
    SLIVER = [0.0, 0.0, 0.090724, -0.492, 1.0]

    def test_sliver_of_negative_curvature_rejected(self):
        t, value = polynomial_nonconvexity(self.SLIVER, -10.0, 10.0)
        assert t == pytest.approx(0.123, abs=1e-9)
        assert value == pytest.approx(-1e-4, rel=1e-6)
        doc = {"kind": "scalar_dc_polynomial", "box": [[-10.0, 10.0]],
               "objective": {"g0": [0.0, 0.0, 1.0], "h0": [0.0]},
               "constraints": [{"G": self.SLIVER, "H": [0.0]}]}
        with pytest.raises(SchemaError, match=r"constraints\[0\]\.G is not "
                                              r"convex on the box"):
            load_problem(doc)

    def test_convex_on_the_box_only(self):
        # x^3 is convex exactly on [0, inf)
        cube = [0.0, 0.0, 0.0, 1.0]
        assert polynomial_nonconvexity(cube, 0.0, 5.0) is None
        t, value = polynomial_nonconvexity(cube, -1e-3, 5.0)
        assert t == -1e-3 and value == pytest.approx(-6e-3)

    def test_flat_and_multiple_root_curvature_accepted(self):
        # affine parts have no curvature; x^4 and x^6 have p'' = 0 at 0,
        # where the p''' of x^6 has a triple root; a subnormal leading
        # coefficient must not overflow the root finder (any overflow
        # warning fails the test)
        for coeffs in ([3.0], [1.0, -2.0], [0.0, 0.0, 0.0, 0.0, 1.0],
                       [0.0] * 6 + [1.0],
                       [0.0, 0.0, 0.0, 0.0, 1.0, 2.225073858507e-311]):
            assert polynomial_nonconvexity(coeffs, -2.0, 2.0) is None
