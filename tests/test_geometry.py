import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import NetworkConfig, draw_channels, pathloss_db, place_network
from seqcf.config import ConfigError


def cfg(**kw):
    defaults = dict(L=4, N=2, K=5, tau_c=200)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestPlaceNetwork:
    def test_aps_equally_spaced_on_ring(self, rng):
        layout = place_network(cfg(L=4), rng)
        d = np.linalg.norm(layout.ap_positions, axis=1)
        assert np.allclose(d, 300.0)
        angles = np.arctan2(layout.ap_positions[:, 1], layout.ap_positions[:, 0])
        gaps = np.diff(np.sort(angles))
        assert np.allclose(gaps, np.pi / 2)

    def test_user_mean_squared_distance(self, rng):
        # uniform over the disk area: E{d^2} = r^2 / 2
        c = cfg(K=100_000, tau_c=200_000)
        layout = place_network(c, rng)
        msd = np.mean(np.sum(layout.user_positions ** 2, axis=1))
        assert msd == pytest.approx(150.0 ** 2 / 2, rel=0.02)

    def test_deterministic_given_seed(self):
        a = place_network(cfg(), np.random.default_rng(99))
        b = place_network(cfg(), np.random.default_rng(99))
        assert np.array_equal(a.ap_positions, b.ap_positions)
        assert np.array_equal(a.user_positions, b.user_positions)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_users_inside_disk(self, seed):
        layout = place_network(cfg(), np.random.default_rng(seed))
        assert np.all(np.linalg.norm(layout.user_positions, axis=1) <= 150.0 + 1e-9)

    def test_user_ap_distance_bounds(self, rng):
        layout = place_network(cfg(K=200, tau_c=400), rng)
        d = np.linalg.norm(layout.ap_positions[:, None] - layout.user_positions[None],
                           axis=2)
        assert d.min() >= 300.0 - 150.0 - 1e-9
        assert d.max() <= 300.0 + 150.0 + 1e-9


class TestPathloss:
    @pytest.mark.parametrize("d,expected", [(100.0, -103.9), (10.0, -67.2), (1.0, -30.5)])
    def test_direct_formula(self, d, expected):
        assert pathloss_db(d) == pytest.approx(expected, abs=1e-12)

    def test_clamped_below_one_meter(self):
        assert pathloss_db(0.01) == pathloss_db(1.0)
        assert pathloss_db(0.0) == pathloss_db(1.0)
        assert pathloss_db(0.5) <= 0.0

    @pytest.mark.parametrize("d", [-5.0, -1e-12, np.array([10.0, -1.0])])
    def test_rejects_negative_distance(self, d):
        with pytest.raises(ConfigError):
            pathloss_db(d)

    @pytest.mark.parametrize("d", [np.nan, np.array([10.0, np.nan])])
    def test_rejects_nan_distance(self, d):
        with pytest.raises(ConfigError):
            pathloss_db(d)


class TestDrawChannels:
    def test_beta_matches_pathloss(self, rng):
        c = cfg()
        layout = place_network(c, rng)
        chans = draw_channels(c, layout, rng)
        d = np.linalg.norm(layout.ap_positions[:, None] - layout.user_positions[None],
                           axis=2)
        assert np.allclose(chans.beta, 10.0 ** (pathloss_db(d) / 10.0))

    def test_column_covariance_scaled_identity(self, rng):
        # empirical covariance of one user's channel column vs beta * I_N
        c = cfg(L=1, N=3, K=1)
        layout = place_network(c, rng)
        draws = np.stack([draw_channels(c, layout, rng).H[0][:, 0]
                          for _ in range(10_000)])
        emp = draws.conj().T @ draws / len(draws)
        beta = draw_channels(c, layout, rng).beta[0, 0]
        target = beta * np.eye(3)
        err = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert err < 0.05

    def test_deterministic_given_seed(self, rng):
        c = cfg()
        layout = place_network(c, rng)
        a = draw_channels(c, layout, np.random.default_rng(5))
        b = draw_channels(c, layout, np.random.default_rng(5))
        assert all(np.array_equal(x, y) for x, y in zip(a.H, b.H))

    def test_vanishing_gain_scales_column_to_zero(self, rng):
        # the per-column scale is sqrt(beta): beta -> 0 forces the column to 0
        c = cfg(L=1)
        layout = place_network(c, rng)
        chans = draw_channels(c, layout, rng)
        col_power = np.sum(np.abs(chans.H[0]) ** 2, axis=0)
        assert np.all(col_power <= 10 * c.N * chans.beta[0])


class TestConfig:
    def test_invariants(self):
        c = cfg(L=3, N=4)
        assert c.M == 12
        assert c.tau_p == c.K
        assert c.tau_u == c.tau_c - c.K

    @pytest.mark.parametrize("kw", [dict(L=0), dict(K=0), dict(tau_c=3, K=5),
                                    dict(p=0.0), dict(sigma2=-1.0),
                                    dict(ap_ring_radius=0.0),
                                    dict(p=np.nan), dict(sigma2=np.inf),
                                    dict(R_T=np.nan), dict(R_T=-1.0), dict(R_T=0.0),
                                    dict(ap_ring_radius=np.nan),
                                    dict(user_disk_radius=-np.inf),
                                    dict(L=12.5), dict(N=2.5), dict(K=3.0),
                                    dict(L=True), dict(tau_c=100.5),
                                    dict(K=np.float64(5.0)), dict(N=np.bool_(True)),
                                    dict(K=np.uint8(20), tau_c=np.uint8(10))])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            cfg(**kw)

    def test_numpy_integers_accepted(self):
        c = cfg(L=np.int64(3), N=np.int32(2), K=np.uint8(4), tau_c=np.int16(50))
        assert (c.M, c.tau_u) == (6, 46)
        assert all(type(v) is int for v in (c.L, c.N, c.K, c.tau_c))
