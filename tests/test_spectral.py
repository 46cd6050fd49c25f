"""Spectrum of the form operator, coercivity constants, filter factors."""

import numpy as np
import pytest
import scipy.optimize

from nsab.field import reconstruct
from nsab.operators import OperatorSet
from nsab.params import ChannelGeometry, Resolution, derive_params
from nsab.spectral import (C0_THRESHOLD, DEFAULT_SHIFT_GRID, _c0, _lowest_at_zero,
                           _reduced_pencils, eigenpairs_A, garding_constants,
                           spectral_factors)

from conftest import (distinct_blocks, eigenpair_field, grid_quadrature,
                      pair_forms, params_with_k, reference_c0, reference_eigenpairs,
                      reference_garding)


@pytest.fixture(scope="module")
def ops(geo, res_small):
    return OperatorSet(derive_params(0.2, 0.1, 0.0, 0.01), geo, res_small)


def test_eigenpairs_sorted_and_accurate(ops):
    pairs = eigenpairs_A(ops, 20)
    lams = [p.lam for p in pairs]
    assert all(l2 >= l1 - 1e-12 for l1, l2 in zip(lams, lams[1:]))
    assert lams[19] > lams[0]
    assert max(p.residual for p in pairs) <= 1e-10


@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_eigenpairs_match_per_block_loop(request, geometry, res_small):
    """The stacked selection against one eigendecomposition and residual per
    block, candidates concatenated per block group (toroidal, poloidal),
    then the mean, and stably sorted; on geo the (1, 0) and (0, 1) blocks
    tie exactly."""
    g = request.getfixturevalue(geometry)
    ops = OperatorSet(params_with_k(1.0, 5.0), g, res_small)
    found = []
    tor, pol, mean = ops.blocks
    # the mean's rows: its two components
    groups = list(ops.layout.groups.items()) + [((0, 0), slice(0, 1))]
    for key, rows in groups:
        b = ops.layout.block[rows.start]
        for blk in ((tor[b], pol[b]) if key != (0, 0) else (mean[0],)):
            lam, V = np.linalg.eigh(blk.K_a)
            for i, lv in enumerate(lam):
                res = np.linalg.norm(blk.K_a @ V[:, i] - lv * V[:, i]) / (
                    np.abs(lam).max() + abs(lv))
                found.append((lv, V[:, i], key, blk.name,
                              2 * (rows.stop - rows.start), res))
    found.sort(key=lambda p: p[0])
    count = len(found) - 3
    got = eigenpairs_A(ops, count)
    assert len(got) == count
    for p, (lv, v, key, name, mult, res) in zip(got, found):
        assert (p.lam, p.mode, p.block, p.multiplicity) == (lv, key, name, mult)
        assert np.array_equal(p.vector, v)
        assert p.residual <= 1e-14 and abs(p.residual - res) <= 1e-15


EIGS_CONFIGS = {
    # the stationary-n16 benchmark model
    "n16p24": (ChannelGeometry(), derive_params(0.2, 0.1, -1.0, 0.01),
               Resolution(N1=16, N2=16, P=24), 20),
    # benchmarks/output_digests.py eigs-odd-gamma1
    "odd-gamma1": (ChannelGeometry(L2=1.7, H=1.3), derive_params(0.2, 0.1, 1.0, 0.05),
                   Resolution(N1=8, N2=6, P=16), 12),
    # k = 2/H: the mean block holds an exact zero eigenvalue
    "kernel": (ChannelGeometry(), params_with_k(0.0, 2.0 / ChannelGeometry().H),
               Resolution(N1=4, N2=4, P=12), 20),
    # more pairs asked for than there are: all of them
    "all": (ChannelGeometry(), derive_params(0.2, 0.1, 0.0, 0.01),
            Resolution(N1=4, N2=4, P=8), 10**6),
}


@pytest.mark.parametrize("name", list(EIGS_CONFIGS))
def test_eigenpairs_bitwise_against_every_block_eigh(name):
    """Eigenvectors only where the lowest pairs can live give bitwise the
    pairs of an eigendecomposition and residuals of every block."""
    geometry, params, resolution, count = EIGS_CONFIGS[name]
    ops = OperatorSet(params, geometry, resolution)
    want = reference_eigenpairs(ops, count)
    got = eigenpairs_A(ops, count)
    tor, pol, mean = ops.blocks
    pairs = len(ops.layout.groups) * (tor.n + pol.n) + mean.n
    assert len(got) == len(want) == min(count, pairs)
    for p, (lam, v, key, block, mult, res) in zip(got, want):
        assert (p.lam, p.mode, p.block, p.multiplicity, p.residual) == (
            lam, key, block, mult, res)
        assert np.array_equal(p.vector, v)


def test_eigenpairs_take_eigenvectors_of_a_fifth_of_the_blocks(geo, monkeypatch):
    """At N16, P32 and P64 alike, the 20 lowest pairs need eigenvectors of
    12 of the 67 blocks; eigvalsh alone bounds the rest out.  A margin that
    grew with ||K_a|| (1e-10 ||K_a||, ~1e3 at P64) let 36 blocks in at P64."""
    solved, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        solved.append(len(a) if a.ndim == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for P in (32, 64):
        o = OperatorSet(derive_params(0.2, 0.1, -1.0, 0.01), geo,
                        Resolution(N1=16, N2=16, P=P))
        solved.clear()
        assert len(eigenpairs_A(o, 20)) == 20
        assert sum(len(b.K_a) for b in o.blocks) == 67 and sum(solved) == 12, P


def test_eigenpairs_orthonormal_by_quadrature(ops, geo, res_small):
    """Cross-mode orthogonality checked by actual integration, not bookkeeping."""
    pairs = eigenpairs_A(ops, 6)
    wq = grid_quadrature(ops.cache, res_small)
    fields = [eigenpair_field(ops, p) for p in pairs[:4]]
    for i, fi in enumerate(fields):
        Ui = reconstruct(fi, ops.cache)["u"]
        for j, fj in enumerate(fields):
            Uj = reconstruct(fj, ops.cache)["u"]
            val = float(np.sum(Ui * Uj * wq))
            ref = fi.dot(fj)
            assert val == pytest.approx(ref, abs=1e-10 * (1 + abs(ref)))
            if i == j:
                assert ref == pytest.approx(1.0, abs=1e-10)


def test_eigenvector_diagonalizes_form(ops):
    pairs = eigenpairs_A(ops, 8)
    for i, pi in enumerate(pairs):
        fi = eigenpair_field(ops, pi)
        for j, pj in enumerate(pairs):
            fj = eigenpair_field(ops, pj)
            val = ops.form_inner("K_a", fi, fj)
            if i == j:
                assert val == pytest.approx(pi.lam, rel=1e-9)
            elif abs(pi.lam - pj.lam) > 1e-8 * (1 + abs(pi.lam)):
                assert abs(val) <= 1e-9 * (1 + abs(pi.lam))


def test_rayleigh_consistency(ops):
    """lambda_1 equals the minimized Rayleigh quotient, block by block."""
    pairs = eigenpairs_A(ops, 1)
    lam1 = pairs[0].lam
    rng = np.random.default_rng(2)
    best = np.inf
    for blk in distinct_blocks(ops):
        x0 = rng.standard_normal(blk.n)

        def rq(x, K=blk.K_a):
            return float(x @ K @ x) / float(x @ x)

        r = scipy.optimize.minimize(rq, x0, method="L-BFGS-B",
                                    options={"maxiter": 2000, "ftol": 1e-15,
                                             "gtol": 1e-12})
        best = min(best, rq(r.x))
    assert best == pytest.approx(lam1, abs=1e-8 * (1 + abs(lam1)))


def test_eigencount_grows_with_modes_and_stabilizes_in_P(geo):
    par = derive_params(0.2, 0.1, 0.0, 0.01)
    cap = 5e3

    def count(N, P):
        o = OperatorSet(par, geo, Resolution(N1=N, N2=N, P=P))
        total = 0
        for blk in distinct_blocks(o):
            lam = np.linalg.eigvalsh(blk.K_a)
            total += int(np.sum(lam < cap))
        return total

    assert count(8, 12) > count(4, 12)      # compactness proxy: more modes
    assert count(4, 16) == count(4, 24)     # stabilizes under P refinement


def test_garding_cases(geo, res_small):
    # k = 0: coercive without shift for every gamma (flat-wall identity)
    for gamma in (-1.0, 0.0):
        o = OperatorSet(params_with_k(gamma, 0.0), geo, res_small)
        g = garding_constants(o)
        assert g.c0[0.0] > 0.0
        assert g.gamma0_min == 0.0
    # strong wall coupling: a shift is genuinely required and the grid finds it
    o = OperatorSet(params_with_k(1.0, 5.0), geo, res_small)
    g = garding_constants(o)
    assert g.c0[0.0] < 0.0
    assert np.isfinite(g.gamma0_min) and g.c0_at_min > 0.0
    assert g.gamma0_refined <= g.gamma0_min


@pytest.mark.parametrize("k", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_garding_matches_per_block_reference(request, geometry, k, res_small):
    """The reduced pencils against one generalized eigenproblem per block;
    at k = 5 c0(0) is negative and gamma0_refined is the transition s*,
    inside the bracket of the grid; otherwise it is the first shift, 0."""
    o = OperatorSet(params_with_k(1.0, k), request.getfixturevalue(geometry),
                    res_small)
    g = garding_constants(o)
    c0, gmin, s_star = reference_garding(o)
    assert g.grid == tuple(c0)
    for s in g.grid:
        assert abs(g.c0[s] - c0[s]) <= 1e-12 * max(1.0, abs(c0[s]))
    assert g.gamma0_min == gmin
    if k == 5.0:
        assert c0[0.0] < 0.0 and 0.0 < s_star < gmin
        assert abs(g.gamma0_refined - s_star) <= 1e-12 * s_star
    else:
        assert s_star < 0.0 and g.gamma0_refined == 0.0


@pytest.mark.parametrize("k", [5.0, 50.0])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_garding_shift_is_the_transition(request, geometry, k, res_small):
    """gamma0_refined is s* = -lambda_min(K_a - t B) of the oracle to 1e-12:
    c0 crosses the threshold t between s* (1 - 1e-6) and s* (1 + 1e-6).  As
    lambda_min(K_a - t B) <= v1^T (K_a - t B) v1, s* lies at least t v1^T B v1
    above -lambda1 (v1 the lowest eigenpair of K_a), and to first order in t
    at most that: within roundoff of the K_a stacks at this size."""
    o = OperatorSet(params_with_k(1.0, k), request.getfixturevalue(geometry),
                    res_small)
    g = garding_constants(o)
    s_star = reference_garding(o)[2]
    assert abs(g.gamma0_refined - s_star) <= 1e-12 * s_star
    assert reference_c0(o, s_star * (1 - 1e-6)) < C0_THRESHOLD < reference_c0(o, s_star * (1 + 1e-6))
    pair = eigenpairs_A(o, 1)[0]
    tor, pol, mean = o.blocks
    blk = mean[0] if pair.mode == (0, 0) else {"toroidal": tor, "poloidal": pol}[pair.block][
        o.layout.block[o.layout.groups[pair.mode].start]]
    first_order = C0_THRESHOLD * (pair.vector @ blk.h2_form() @ pair.vector)
    roundoff = 10 * np.finfo(float).eps * max(np.abs(b.K_a).max(initial=0.0) for b in o.blocks)
    gap = g.gamma0_refined + pair.lam
    assert gap > 0.0 and abs(gap - first_order) <= roundoff


def test_garding_with_empty_stacks(geo):
    """At N1 = N2 = 2 only the mean block is stored: the toroidal and
    poloidal stacks hold no block, and s* comes from the mean alone."""
    o = OperatorSet(params_with_k(1.0, 5.0), geo, Resolution(N1=2, N2=2, P=10))
    assert [len(b.K_a) for b in o.blocks] == [0, 0, 1]
    g = garding_constants(o)
    s_star = reference_garding(o)[2]
    assert np.isfinite(g.gamma0_min) and g.c0[0.0] < 0.0
    assert abs(g.gamma0_refined - s_star) <= 1e-12 * s_star


@pytest.mark.parametrize("k", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("geometry", ["geo", "geo_odd"])
def test_bracketed_search_is_bitwise_the_minimum_over_every_block(request, geometry, k):
    """lam_b(0) and the Cholesky certificates only choose which blocks to
    solve: c0 on the grid and at shifts between its points is the full
    per-block minimum, bit for bit; at k = 5, c0(0) < 0."""
    o = OperatorSet(params_with_k(1.0, k), request.getfixturevalue(geometry),
                    Resolution(N1=8, N2=8, P=12))
    pencils = _reduced_pencils(o)

    def every_block(s):
        return min(float(np.linalg.eigvalsh(C + s * N)[:, 0].min()) for C, N in pencils)

    g = garding_constants(o)
    assert g.grid == DEFAULT_SHIFT_GRID
    assert all(g.c0[s] == every_block(s) for s in g.grid)
    zero = _lowest_at_zero(pencils)
    for s in np.geomspace(1e-4, 5e3, 20):
        assert _c0(pencils, zero, s) == every_block(s)


def test_garding_solves_at_most_four_eigenproblems_per_block(geo, monkeypatch):
    """At N16/P32 lam_b(0) takes all 67 blocks and each of the nine grid
    shifts one more, its candidate: the certificates clear every other
    block (a full search solves 9 x 67 blocks, a chord search solved 195)."""
    o = OperatorSet(derive_params(0.2, 0.1, -1.0, 0.01), geo,
                    Resolution(N1=16, N2=16, P=32))
    blocks = sum(len(b.K_a) for b in o.blocks)
    solved, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(len(a) if a.ndim == 3 else 1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    garding_constants(o)
    assert blocks == 67 and sum(solved) == blocks + 9


def test_garding_goes_on_by_decades_until_a_shift_is_coercive(geo):
    """At k = 50 no shift of the default grid is coercive, but every shift
    past s* = -lambda_min(K_a - t B) is: the grid goes on past 1e4 to the
    first decade above s*, and gamma0_refined is s*, between the last two."""
    o = OperatorSet(params_with_k(1.0, 50.0), geo, Resolution(N1=4, N2=4, P=8))
    g = garding_constants(o)
    n = len(DEFAULT_SHIFT_GRID)
    assert g.grid[:n] == DEFAULT_SHIFT_GRID and g.c0[DEFAULT_SHIFT_GRID[-1]] < 0.0
    assert g.grid[n:] == tuple(10.0**j for j in range(5, len(g.grid) - n + 5))
    assert np.isfinite(g.gamma0_min) and g.gamma0_min == g.grid[-1]
    assert g.c0_at_min > C0_THRESHOLD and g.c0[g.grid[-2]] <= C0_THRESHOLD
    assert g.grid[-2] < g.gamma0_refined < g.gamma0_min
    ref = reference_c0(o, g.gamma0_min)
    assert abs(g.c0_at_min - ref) <= 1e-12 * max(1.0, abs(ref))


def test_lambda1_exceeds_negative_shift(geo, res_small):
    o = OperatorSet(params_with_k(1.0, 5.0), geo, res_small)
    lam1 = eigenpairs_A(o, 1)[0].lam
    g = garding_constants(o)
    # measured shift makes the quadratic form positive: lam1 > -gamma0
    assert lam1 > -g.gamma0_refined


def test_factor_identities(geo, res_small):
    par = derive_params(0.2, 0.1, 0.5, 0.05)
    o = OperatorSet(par, geo, res_small)
    rng = np.random.default_rng(3)
    for blk in (pair_forms(o, 1, 1)[1], pair_forms(o, 2, 0)[0], o.blocks[2][0]):
        fb = spectral_factors(blk, par.beta)
        assert np.abs(fb.D - fb.D.T).max() <= 1e-12 * np.abs(fb.D).max()
        sq_err = np.linalg.norm(fb.sqrt_lambda @ fb.sqrt_lambda - blk.M_lambda)
        assert sq_err <= 1e-11 * np.linalg.norm(blk.M_lambda)
        c = rng.standard_normal(blk.n)
        lhs = fb.D @ (fb.sqrt_lambda @ c)
        rhs = par.beta**2 * (fb.inv_sqrt_lambda @ (blk.K_a @ c))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_alpha_zero_degenerates_to_identity_filter(geo, res_small):
    # alpha = 0 exactly is outside the admissible range; realize the limit
    # by setting the block's alpha^2 to 0, so the filter form is the mass
    # form I: then the square roots are the identity and D = beta^2 K_a on
    # the orthonormal basis
    import dataclasses
    par = derive_params(0.2, 0.1, 0.0, 0.05)
    o = OperatorSet(par, geo, res_small)
    blk = pair_forms(o, 1, 0)[0]
    blk0 = dataclasses.replace(blk, alpha2=0.0)
    fb = spectral_factors(blk0, par.beta)
    assert np.allclose(fb.sqrt_lambda, np.eye(blk.n), atol=1e-10)
    assert np.allclose(fb.D, par.beta**2 * blk.K_a, atol=1e-9)


def test_d_spectrum_bounded_below(geo, res_small):
    o = OperatorSet(params_with_k(1.0, 5.0), geo, res_small)
    dmin = min(spectral_factors(b, o.params.beta).d_eigvals[0]
               for b in distinct_blocks(o))
    shift = o.shift
    # mu_min >= 1 for the filter form, so min spec(D) >= -beta^2 * shift
    assert dmin >= -o.params.beta**2 * shift - 1e-12


def test_views_taken_in_a_loop_get_their_own_eigenpairs_and_factors(geo):
    """Each ops.blocks[p][g] is a new view that dies after use, so a later
    view can reuse its id(): spectral_factors must answer for the block it
    is given."""
    par = derive_params(0.2, 0.1, 0.5, 0.05)
    o = OperatorSet(par, geo, Resolution(N1=8, N2=8, P=12))
    for p in range(3):
        for g in range(len(o.blocks[p].K_a)):
            fb = spectral_factors(o.blocks[p][g], par.beta, include_gradient=True)
            blk = o.blocks[p][g]
            # D has the spectrum of the pencil (beta^2 K_a + K_grad, M_lambda)
            Li = np.linalg.inv(np.linalg.cholesky(blk.M_lambda))
            want = np.linalg.eigh(Li @ (par.beta**2 * blk.K_a + blk.K_grad) @ Li.T)[0]
            assert np.abs(fb.d_eigvals - want).max() <= 1e-10 * np.abs(want).max()
            sq_err = np.linalg.norm(fb.sqrt_lambda @ fb.sqrt_lambda - blk.M_lambda)
            assert sq_err <= 1e-11 * np.linalg.norm(blk.M_lambda)
