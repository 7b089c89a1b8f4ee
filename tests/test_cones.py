import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coneccp.cones import (SYM_RTOL, Orthant, ProductCone, PsdCone,
                           dist_to_neg_cone, eigenpairs, inner,
                           lambda_max_scalarize, project_pos, slack_cost)
from coneccp.errors import InvalidElement, InvalidPenalty

from oracles import as_blocks_reference

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
        y = PSD2.element(np.zeros((2, 2)))
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

    def test_near_symmetric_block_at_the_float_limit(self):
        # the asymmetry norm and the symmetrized sum must not overflow; any
        # overflow warning fails this test under the RuntimeWarning filter
        big = 1.2e308
        y = PSD2.element(np.array([[1.0, big], [big * (1 - 2 ** -52), 1.0]]))
        assert np.isfinite(y.blocks[0]).all()
        assert np.array_equal(y.blocks[0], y.blocks[0].T)
        assert y.blocks[0][0, 1] == pytest.approx(big, rel=1e-15)
        with pytest.raises(InvalidElement, match="asymmetry"):
            PSD2.element(np.array([[1.0, big], [-big, 1.0]]))

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
        for tau in (0.0, -1.0, np.nan, np.inf):
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
    @pytest.mark.parametrize("size", [0, -1, 2.5, 1.9, 2.0, True, False,
                                      "2", [2], None])
    def test_sizes_must_be_positive_ints(self, size):
        for make in (PsdCone, Orthant):
            with pytest.raises(InvalidElement, match="positive integer"):
                make(size)

    @pytest.mark.parametrize("part", [3, None, "psd", PsdCone])
    def test_product_parts_must_be_cones(self, part):
        with pytest.raises(InvalidElement, match="must be cones"):
            ProductCone((PsdCone(2), part))

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


# ---------------------------------------------------------------------------
# Cone.element against its validation as first written

# ordinary entries, entries whose squares overflow np.vdot, signed zeros,
# denormals and non-finites
WIDE = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(1e154, 1.7e308), st.floats(-1.7e308, -1e154),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]))
# relative asymmetries inside and beyond SYM_RTOL
ASYM = st.sampled_from([1e-16, 1e-12, 0.5 * SYM_RTOL, 0.99 * SYM_RTOL,
                        1.01 * SYM_RTOL, 2 * SYM_RTOL, 1e-4, 1.0])
ELEMENT_CONES = (PsdCone(1), PsdCone(2), PsdCone(3), Orthant(1), Orthant(3),
                 ProductCone((PsdCone(2), Orthant(2))),
                 ProductCone((Orthant(1), PsdCone(1), PsdCone(3))))


@st.composite
def raw_block(draw, leaf):
    """Data for one leaf: an exactly symmetric block, one with mirrored
    signed zeros, one asymmetric by a relative amount, arbitrary entries, or
    a wrong shape (orthant data also as a column, which is accepted)."""
    if isinstance(leaf, Orthant):
        shape = draw(st.sampled_from([(leaf.dim,), (leaf.dim, 1),
                                      (leaf.dim + 1,), (leaf.dim, 2)]))
        return draw(arrays(float, shape, elements=WIDE))
    n = leaf.order
    kind = draw(st.sampled_from(["symmetric", "zeros", "near", "any",
                                 "shape"]))
    if kind == "shape":
        n = draw(st.sampled_from([n + 1, n - 1]))
    M = draw(arrays(float, (n, n), elements=WIDE))
    if kind in ("symmetric", "zeros", "near"):
        lower = np.tril_indices(n, -1)
        M[lower] = M.T[lower]
        if n > 1 and kind == "zeros":
            for i, j in zip(*lower):
                if draw(st.booleans()):
                    M[i, j], M[j, i] = draw(st.sampled_from(
                        [(0.0, -0.0), (-0.0, 0.0)]))
        if n > 1 and kind == "near":
            rel = draw(ASYM)
            M[1, 0] = (M[0, 1] * (1.0 + rel) if draw(st.booleans())
                       else M[0, 1] + rel)
    return M


def outcome(validate, cone, blocks):
    """Stored (shape, bits, writeable) per block, or the exception raised."""
    try:
        out = validate(cone, blocks)
    except Exception as exc:
        return type(exc), str(exc)
    return [(b.shape, b.dtype, b.tobytes(), b.flags.writeable) for b in out]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ELEMENT_CONES), st.data())
def test_element_validates_as_the_reference_does(cone, data):
    # the prefilters never warn: the RuntimeWarning filter would fail this
    blocks = [data.draw(raw_block(leaf)) for leaf in cone.leaves()]
    if data.draw(st.integers(0, 9)) == 9:
        blocks = blocks[:-1] if data.draw(st.booleans()) else blocks * 2
    elif len(blocks) == 1 and data.draw(st.booleans()):
        blocks = blocks[0]  # one bare array for a one-leaf cone
    got = outcome(lambda c, b: c.element(b).blocks, cone, blocks)
    assert got == outcome(as_blocks_reference, cone, blocks)


@pytest.mark.parametrize("M", [
    [[1e200, 1.0], [1.0, 1.0]],            # finite, but vdot overflows
    [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]],
    [[1.0, 0.0], [-0.0, 1.0]],             # mirrored signed zeros
    [[-0.0, -0.0], [-0.0, -0.0]],
])
def test_valid_blocks_the_prefilters_defer_are_kept(M):
    M = np.array(M)
    assert outcome(lambda c, b: c.element(b).blocks, PSD2, M) == \
        outcome(as_blocks_reference, PSD2, M)
    assert PSD2.element(M).blocks[0].tobytes() == M.tobytes()


# order-1 PSD blocks are read off, as LAPACK returns them
@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324,
                               2.2250738585072014e-308 / 4, 1.0, -3.5,
                               1e-300, 1.7e308, -1.7e308])
def test_order1_eigenpairs_match_eigh_bit_for_bit(x):
    y = PsdCone(1).element(np.array([[x]]))
    w, v = np.linalg.eigh(np.array([[x]]))
    (_, w1, v1), = eigenpairs(y)
    assert (w1.shape, w1.tobytes()) == (w.shape, w.tobytes())
    assert (v1.shape, v1.tobytes()) == (v.shape, v.tobytes())
    assert not (w1.flags.writeable or v1.flags.writeable)
    sc = lambda_max_scalarize(y)
    assert np.float64(sc.value).tobytes() == w[-1].tobytes()
    assert sc.vector.tobytes() == v[:, -1].tobytes()
    assert not sc.vector.flags.writeable


def count_eigh(monkeypatch):
    """The list that grows by one at each np.linalg.eigh call."""
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw:
                        calls.append(1) or real(a, *args, **kw))
    return calls


# an element keeps its spectral facts: however many of them are asked, each
# PSD block of order 2 or more is decomposed once (order 1 is read off)
def test_an_element_decomposes_each_block_once(monkeypatch):
    cone = ProductCone((PsdCone(3), Orthant(2), PsdCone(1), PsdCone(2)))
    raw = random_element(cone, np.random.default_rng(3)).blocks
    calls = count_eigh(monkeypatch)
    y = cone.element(raw)
    pos, dist = project_pos(y), dist_to_neg_cone(y)
    sc = lambda_max_scalarize(y)
    assert len(calls) == 2
    assert eigenpairs(y) is eigenpairs(y)
    assert lambda_max_scalarize(y) is sc
    assert len(calls) == 2
    # the kept facts are the ones a fresh element computes, bit for bit
    fresh = [cone.element(raw) for _ in range(3)]
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(pos.blocks, project_pos(fresh[0]).blocks))
    assert dist == dist_to_neg_cone(fresh[1])
    sc_fresh = lambda_max_scalarize(fresh[2])
    assert (sc.value, sc.block, sc.vector.tobytes()) == \
        (sc_fresh.value, sc_fresh.block, sc_fresh.vector.tobytes())


def test_large_orthant_identities_are_not_kept():
    # the eigenvectors of a long orthant block go with the element; only
    # small identities are cached
    import gc
    import tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = Orthant(2000).element(np.ones(2000))
        pairs = tuple(eigenpairs(y))
        assert pairs[0][2].shape == (2000, 2000)
        del y, pairs
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20
