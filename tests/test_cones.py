import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coneccp.cones import (Orthant, ProductCone, PsdCone,
                           cone_from_descriptor, dist_to_neg_cone, inner,
                           lambda_max_scalarize, project_pos, slack_cost)
from coneccp.errors import InvalidElement, InvalidPenalty

ORTH2 = Orthant(2)
PSD2 = PsdCone(2)


def random_element(cone, rng):
    blocks = []
    for leaf in cone.leaves():
        if isinstance(leaf, PsdCone):
            M = rng.normal(size=(leaf.order, leaf.order))
            blocks.append(0.5 * (M + M.T))
        else:
            blocks.append(rng.normal(size=leaf.dim))
    return cone.element(blocks)


class TestProjection:
    def test_orthant_componentwise(self):
        y = ORTH2.element(np.array([-1.0, 2.0]))
        assert np.array_equal(project_pos(y).blocks[0], [0.0, 2.0])

    def test_psd_offdiagonal_by_hand(self):
        # eigenvalues +-1 with eigenvectors (1, 1)/sqrt2 and (1, -1)/sqrt2;
        # keeping the positive one gives the all-halves matrix
        y = PSD2.element(np.array([[0.0, 1.0], [1.0, 0.0]]))
        expect = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(project_pos(y).blocks[0], expect, atol=1e-14)

    def test_zero_fixed_point(self):
        y = PSD2.zero()
        assert np.array_equal(project_pos(y).blocks[0], np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidElement):
            ORTH2.element(np.array([np.nan, 0.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidElement):
            PSD2.element(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_mild_asymmetry_symmetrized(self):
        y = PSD2.element(np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]]))
        assert np.array_equal(y.blocks[0], y.blocks[0].T)

    def test_exactly_symmetric_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            for M in (np.array([[bad, 1.0], [1.0, 0.0]]),
                      np.array([[0.0, bad], [bad, 0.0]])):
                with pytest.raises(InvalidElement, match="non-finite"):
                    PSD2.element(M)

    def test_exactly_symmetric_block_checked_for_shape(self):
        with pytest.raises(InvalidElement, match="psd block must be 2x2"):
            PSD2.element(np.eye(3))

    def test_stored_blocks_do_not_alias_the_caller(self):
        cone = ProductCone((PSD2, ORTH2))
        M = np.array([[2.0, 0.5], [0.5, 1.0]])  # exactly symmetric
        v = np.array([1.0, -1.0])
        y = cone.element((M, v))
        M[0, 0], v[0] = 7.0, 7.0
        assert y.blocks[0][0, 0] == 2.0 and y.blocks[1][0] == 1.0
        assert not any(b.flags.writeable for b in y.blocks)
        with pytest.raises(ValueError):
            y.blocks[0][0, 0] = 3.0


class TestDistance:
    def test_already_in_negative_cone(self):
        assert dist_to_neg_cone(ORTH2.element(np.array([-3.0, -1.0]))) == 0.0

    def test_orthant_positive_part_norm(self):
        assert dist_to_neg_cone(ORTH2.element(np.array([3.0, -1.0]))) == \
            pytest.approx(3.0, abs=1e-14)

    def test_psd_diag(self):
        y = PSD2.element(np.diag([2.0, -5.0]))
        assert dist_to_neg_cone(y) == pytest.approx(2.0, abs=1e-12)

    def test_zero_iff_lambda_max_nonpositive(self):
        rng = np.random.default_rng(5)
        for cone in (ORTH2, PSD2, ProductCone((PSD2, Orthant(3)))):
            for _ in range(200):
                y = random_element(cone, rng)
                zero_dist = dist_to_neg_cone(y) == 0.0
                assert zero_dist == (lambda_max_scalarize(y).value <= 1e-12)


class TestMoreau:
    @pytest.mark.parametrize("cone", [
        Orthant(4), PsdCone(3), ProductCone((PsdCone(2), Orthant(2)))])
    def test_decomposition_and_orthogonality(self, cone):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            y = random_element(cone, rng)
            pos = project_pos(y)
            neg = project_pos(-y)
            recon = pos - neg
            ny = y.norm()
            assert (y - recon).norm() <= 1e-9 * (1.0 + ny)
            assert inner(pos, neg) <= 1e-9 * (1.0 + ny * ny)
            # both parts in the cone
            assert lambda_max_scalarize(-pos).value <= 1e-12 * (1.0 + ny)
            assert lambda_max_scalarize(-neg).value <= 1e-12 * (1.0 + ny)


ENTRIES = st.floats(-10.0, 10.0, allow_subnormal=False)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


@st.composite
def psd_orthant_elements(draw):
    """An element of PSD(k) x Orthant(m), with k and m from 1 to 4."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    M = draw(arrays(float, (k, k), elements=ENTRIES))
    v = draw(arrays(float, m, elements=ENTRIES))
    return ProductCone((PsdCone(k), Orthant(m))).element((0.5 * (M + M.T), v))


def _cost(t, s_psd, s_orth):
    """<t e, s> for the cone identity e: t times trace plus sum."""
    return t * (float(np.trace(s_psd)) + float(np.sum(s_orth)))


@PROPERTY
@given(psd_orthant_elements())
def test_moreau_identity_on_psd_orthant_products(y):
    pos, neg = project_pos(y), project_pos(-y)
    ny = y.norm()
    assert (y - (pos - neg)).norm() <= 1e-9 * (1.0 + ny)
    assert abs(inner(pos, neg)) <= 1e-9 * (1.0 + ny * ny)


@PROPERTY
@given(psd_orthant_elements(), st.floats(0.01, 100.0), st.data())
def test_slack_cost_is_the_cheapest_feasible_slack(y, t, data):
    cost, _ = slack_cost(t, y)
    assert cost == pytest.approx(_cost(t, *project_pos(y).blocks),
                                 rel=1e-12, abs=1e-12)
    # a feasible slack s >= 0, s >= y in each block: y plus a PSD matrix,
    # shifted by a multiple of I until it is PSD; max(y + p, q), p, q >= 0
    y_psd, y_orth = y.blocks
    k, m = y_psd.shape[0], y_orth.size
    R = data.draw(arrays(float, (k, k), elements=ENTRIES))
    S = y_psd + R @ R.T
    S = S + max(0.0, -float(np.linalg.eigvalsh(S)[0])) * np.eye(k)
    nonneg = st.floats(0.0, 10.0, allow_subnormal=False)
    p = data.draw(arrays(float, m, elements=nonneg))
    q = data.draw(arrays(float, m, elements=nonneg))
    s_orth = np.maximum(y_orth + p, q)
    assert _cost(t, S, s_orth) >= cost - 1e-9 * (1.0 + abs(cost))


class TestSlackCost:
    def test_scalar_constraint_value(self):
        # value of x^2 + 4x + 3 at x = -0.75
        y = Orthant(1).element(np.array([0.5625]))
        cost, s = slack_cost(1.0, y)
        assert cost == pytest.approx(0.5625, abs=1e-15)
        assert s.blocks[0][0] == pytest.approx(0.5625, abs=1e-15)

    def test_psd_diag_against_diag_brute_force(self):
        y = PSD2.element(np.diag([1.0, -1.0]))
        cost, s = slack_cost(2.0, y)
        assert cost == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(s.blocks[0], np.diag([1.0, 0.0]), atol=1e-14)
        # brute force over s = diag(a, b) with a >= 1, b >= 0
        grid = np.linspace(0.0, 3.0, 301)
        best = min(2.0 * (a + b) for a in grid for b in grid
                   if a >= 1.0 and b >= 0.0)
        assert cost <= best + 1e-12

    def test_feasible_slack_zero(self):
        for cone, data in ((ORTH2, np.array([-1.0, -2.0])),
                           (PSD2, np.diag([-0.5, -3.0]))):
            cost, s = slack_cost(3.0, cone.element(data))
            assert cost == 0.0
            assert s.norm() == 0.0

    def test_psd_brute_force_grid(self):
        # grid minimization of tau * trace(s) over s >= 0, s >= y for a
        # non-diagonal y; grid over the eigenbasis of y is exact up to
        # resolution because the optimal s commutes with y
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.normal(size=(2, 2))
            y = PSD2.element(0.5 * (M + M.T))
            tau = float(rng.uniform(0.5, 2.0))
            cost, _ = slack_cost(tau, y)
            w = np.linalg.eigvalsh(y.blocks[0])
            grid = np.linspace(0.0, max(1.0, w[-1]) + 1.0, 2001)
            step = grid[1] - grid[0]
            best = sum(tau * grid[np.searchsorted(grid, max(wi, 0.0))]
                       for wi in w)
            assert abs(cost - best) <= 2 * tau * step * len(w)

    def test_orthant_brute_force_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            y = rng.uniform(-1.0, 1.0, 3)
            tau = float(rng.uniform(0.5, 2.0))
            cost, _ = slack_cost(tau, Orthant(3).element(y))
            grid = np.linspace(0.0, 1.5, 1501)
            step = grid[1] - grid[0]
            best = sum(tau * grid[np.searchsorted(grid, max(yi, 0.0))]
                       for yi in y)
            assert abs(cost - best) <= 2 * tau * step * y.size

    def test_positive_homogeneity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = random_element(ProductCone((PSD2, Orthant(2))), rng)
            tau = float(rng.uniform(0.1, 8.0))
            assert slack_cost(tau, y)[0] == tau * slack_cost(1.0, y)[0]

    def test_nonpositive_tau_rejected(self):
        y = ORTH2.element(np.array([1.0, 0.0]))
        for tau in (0.0, -1.0):
            with pytest.raises(InvalidPenalty):
                slack_cost(tau, y)


class TestScalarize:
    def test_diagonal(self):
        sc = lambda_max_scalarize(PSD2.element(np.diag([1.0, 3.0])))
        assert sc.value == pytest.approx(3.0, abs=1e-14)
        assert np.allclose(np.abs(sc.vector), [0.0, 1.0], atol=1e-12)

    def test_orthant_max_component(self):
        sc = lambda_max_scalarize(ORTH2.element(np.array([-2.0, -1.0])))
        assert sc.value == -1.0
        assert np.array_equal(sc.vector, [0.0, 1.0])

    def test_offdiagonal(self):
        sc = lambda_max_scalarize(PSD2.element(np.array([[0.0, 1.0],
                                                         [1.0, 0.0]])))
        assert sc.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.abs(sc.vector), np.sqrt(0.5), atol=1e-12)

    def test_product_picks_largest_block(self):
        cone = ProductCone((PsdCone(2), Orthant(2)))
        y = cone.element((np.diag([0.5, -1.0]), np.array([2.0, 1.0])))
        sc = lambda_max_scalarize(y)
        assert sc.block == 1 and sc.value == 2.0


class TestConeTypes:
    def test_ambient_dims(self):
        assert PsdCone(3).ambient_dim == 6
        assert Orthant(4).ambient_dim == 4
        assert ProductCone((PsdCone(3), Orthant(4))).ambient_dim == 10

    def test_descriptor_roundtrip(self):
        for cone in (PsdCone(2), Orthant(3),
                     ProductCone((PsdCone(2), Orthant(1)))):
            assert cone_from_descriptor(cone.descriptor()) == cone

    def test_identity_strictly_interior(self):
        for cone in (PSD2, ORTH2, ProductCone((PSD2, ORTH2))):
            e = cone.identity()
            assert lambda_max_scalarize(-e).value == -1.0

    def test_elements_immutable(self):
        y = ORTH2.element(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            y.blocks[0][0] = 5.0

    def test_arithmetic(self):
        a = ORTH2.element(np.array([1.0, 2.0]))
        b = ORTH2.element(np.array([0.5, -1.0]))
        assert np.allclose((a - b).blocks[0], [0.5, 3.0])
        assert np.allclose((a + b).scale(2.0).blocks[0], [3.0, 2.0])
        assert (-a).blocks[0][0] == -1.0
