import math

import pytest

from nsab.params import (ChannelGeometry, ParameterError, Resolution,
                         derive_params, min_quadrature_nodes, step_count)


def test_derived_wall_coefficient():
    p = derive_params(0.2, 0.1, 0.0, 0.05)
    assert p.k == p.ell / p.beta**2          # exact float identity
    assert p.k == pytest.approx(5.0, rel=1e-14)


def test_alpha_must_exceed_beta():
    with pytest.raises(ParameterError, match="alpha must exceed beta"):
        derive_params(0.1, 0.2, 0.0, 0.05)


def test_gamma_range():
    with pytest.raises(ParameterError, match=r"\|gamma\| <= 1"):
        derive_params(0.2, 0.1, 1.5, 0.05)


@pytest.mark.parametrize("args", [(0.2, -0.1, 0.0, 0.05), (0.2, 0.1, 0.0, 0.0),
                                  (0.2, 0.1, 0.0, -1.0), (0.2, 0.2, 0.0, 0.05),
                                  (1e200, 0.1, 0.0, 0.05), (1e201, 1e200, 0.0, 0.05)])
def test_other_rejections(args):
    with pytest.raises(ParameterError):
        derive_params(*args)


def test_gamma_endpoints_allowed():
    derive_params(0.2, 0.1, 1.0, 0.05)
    derive_params(0.2, 0.1, -1.0, 0.05)


@pytest.mark.parametrize("lengths", [{"L1": 1e-300}, {"L2": 1e7}, {"H": 1e-100},
                                     {"H": math.nan}])
def test_geometry_lengths_in_range(lengths):
    with pytest.raises(ParameterError, match="outside the admissible lengths"):
        ChannelGeometry(**lengths)
    ChannelGeometry(L1=1e-6, L2=1e6, H=1e-6)


def test_geometry_positive():
    with pytest.raises(ParameterError):
        ChannelGeometry(L1=0.0)
    g = ChannelGeometry(L1=2.0, L2=3.0, H=0.5)
    assert g.area == 6.0


def test_resolution_quadrature_invariant():
    """Q follows from P alone: no Resolution has another node count."""
    for P in (6, 7, 12, 48):
        r = Resolution(N1=4, N2=4, P=P)
        assert r.Q == min_quadrature_nodes(P) == math.ceil((3 * P + 1) / 2)
    with pytest.raises(TypeError):
        Resolution(N1=4, N2=4, P=12, Q=19)


def test_resolution_basic_constraints():
    with pytest.raises(ParameterError):
        Resolution(N1=5, N2=4, P=12)
    with pytest.raises(ParameterError):
        Resolution(N1=4, N2=4, P=4)
    r = Resolution(N1=8, N2=6, P=16)
    assert r.padded_shape == (12, 10)  # 3N2/2 = 9 rounds up to an even 10
    assert r.n_toroidal == 15 and r.n_poloidal == 13


@pytest.mark.parametrize("N", range(2, 129, 2))
def test_padded_grid_is_the_smallest_even_alias_free_grid(N):
    M = Resolution(N1=N, N2=2, P=6).padded_shape[0]
    assert M % 2 == 0 and 2 * M >= 3 * N
    assert M >= 3 * (N // 2 - 1) + 1  # quadratic products of |k| <= N/2 - 1
    assert M - 2 < 1.5 * N  # smallest such


@pytest.mark.parametrize("T, dt, n", [(0.2, 0.02, 10), (0.5, 0.02, 25),
                                      (1.0, 0.005, 200), (1.0, 0.0125, 80)])
def test_step_count_of_horizons_in_use(T, dt, n):
    assert step_count(T, dt) == n


@pytest.mark.parametrize("T, dt", [(0.1, 0.03), (0.1, 0.2), (0.1, 0.0),
                                   (0.1, -0.01), (math.nan, 0.01)])
def test_step_count_rejects_partial_or_empty_horizons(T, dt):
    with pytest.raises(ValueError, match="not a whole multiple"):
        step_count(T, dt)
