import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import (NetworkConfig, Strategy, draw_channels, fuse, gain, initial_state,
                   place_network, run_chain, sinr_fused, split_paths, summarize_path)
from seqcf.experiment import _chains
from seqcf.linalg import PsdError, herm_solve
from seqcf.twopath import (_CERT_LIMIT, PathSummary, _certified_factor, _fusion_gram,
                           _gram)

from oracles import (centralized_combiner, centralized_sinr, complex_randn,
                     cond_fusion_gram, rand_channels, rand_unitary, run_and_expand)


def run_path(H, p, s2, strategy="eiu", rates=None):
    """Summary of one path's chain, and the chain's expansion oracle; the
    chain without compression is EIU at infinite rates."""
    if rates is None:
        rates = np.full(len(H), 6.0)
    st, ex, _ = run_and_expand(p, s2, H, strategy, rates)
    return summarize_path(st, p), ex


class TestSplitPaths:
    def test_even_split(self):
        p1, p2 = split_paths(12)
        assert len(p1) == len(p2) == 6

    def test_odd_split(self):
        p1, p2 = split_paths(3)
        assert (len(p1), len(p2)) == (2, 1)

    def test_paths_partition_the_ring(self):
        for L in (2, 3, 7, 12):
            p1, p2 = split_paths(L)
            assert sorted(p1 + p2) == list(range(L))
            assert not set(p1) & set(p2)

    def test_arcs_are_contiguous_and_end_near_cpu(self):
        p1, p2 = split_paths(8)
        assert p1 == [3, 2, 1, 0]        # ends at 0, ring-adjacent to AP 7
        assert p2 == [4, 5, 6, 7]        # ends at AP 7, the CPU location

    def test_rejects_single_ap(self):
        with pytest.raises(ValueError):
            split_paths(1)


class TestSummarizePath:
    def test_single_ap_no_compression(self, rng):
        p, s2, K, N = 1.0, 0.5, 2, 3
        H = rand_channels(rng, 1, N, K)
        summ, _ = run_path(H, p, s2, rates=[np.inf])
        G1 = gain(p * np.eye(K, dtype=complex), H[0], s2)
        assert np.allclose(summ.G, G1 @ H[0], atol=1e-12)
        assert np.allclose(summ.Z, s2 * G1 @ G1.conj().T, atol=1e-12)

    def test_effective_noise_covariance_monte_carlo(self, rng):
        # empirical covariance of s_tilde - G s over many noise draws vs Z
        p, s2, K, L, N, T = 1.0, 0.4, 2, 2, 2, 100_000
        H = rand_channels(rng, L, N, K)
        summ, ex = run_path(H, p, s2, strategy="eiu")
        # redraw (n, q) in bulk with the chain's fixed V, A, Q
        z = np.zeros((K, T), dtype=complex)
        for Vi, Ai, Qi in zip(ex.V, ex.A, ex.Qs):
            n = np.sqrt(s2) * complex_randn(rng, (N, T))
            w, U = np.linalg.eigh(Qi)
            q = (U * np.sqrt(np.clip(w, 0, None))) @ complex_randn(rng, (K, T))
            z += Vi @ n + Ai @ q
        emp = z @ z.conj().T / T
        err = np.linalg.norm(emp - summ.Z) / np.linalg.norm(summ.Z)
        assert err < 0.03

    def test_useless_path_has_zero_noise(self):
        # a path that forwards nothing (T = 0, C = p I) has Z = 0 exactly
        p = 1.3
        summ = summarize_path(initial_state(3, p), p)
        assert np.array_equal(summ.Z, np.zeros((3, 3)))

    def test_rejects_indefinite_noise(self):
        # C below the error of forwarding nothing: Z = C - p I < 0
        st = initial_state(2, 1.0)
        st.C = 0.5 * st.C
        with pytest.raises(PsdError, match="Z"):
            summarize_path(st, 1.0)


class TestFuse:
    def two_path_setup(self, rng, strategy="eiu", rates=None, L=4, K=2, N=2,
                       p=1.0, s2=0.5):
        # without rates, each path is uncompressed: EIU at infinite rates
        H = rand_channels(rng, L, N, K)
        summs = []
        for idx in split_paths(L):
            r = np.full(len(idx), np.inf) if rates is None else rates[:len(idx)]
            summ, _ = run_path([H[i] for i in idx], p, s2, strategy=strategy, rates=r)
            summs.append(summ)
        return H, summs

    def test_blkdiag_structure_exact(self, rng):
        _, (s1, s2_) = self.two_path_setup(rng)
        f = fuse(s1, s2_, 1.0)
        K = 2
        assert np.array_equal(f.Z[:K, K:], np.zeros((K, K)))
        assert np.array_equal(f.Z[K:, :K], np.zeros((K, K)))
        assert np.array_equal(f.Z[:K, :K], s1.Z)
        assert np.array_equal(f.Z[K:, K:], s2_.Z)

    def test_useless_path_reduces_to_single_path(self, rng):
        p = 1.0
        _, (s1, s2_) = self.two_path_setup(rng)
        huge = PathSummary(G=s2_.G, Z=1e12 * np.eye(2, dtype=complex))
        sinr = sinr_fused(fuse(s1, huge, p))
        f1 = fuse(s1, PathSummary(G=np.zeros((2, 2)), Z=np.eye(2, dtype=complex)), p)
        assert np.allclose(sinr, sinr_fused(f1), rtol=1e-6)

    def test_fusion_never_hurts_either_path(self, rng):
        # LMMSE on both paths dominates LMMSE on each alone, in PSD order
        p = 1.0
        _, (s1, s2_) = self.two_path_setup(rng, rates=np.full(4, 6.0))
        f = fuse(s1, s2_, p)
        K = 2
        S = p * f.G @ f.G.conj().T + f.Z
        C_fused = p * np.eye(K) - p * p * f.G.conj().T @ np.linalg.solve(S, f.G)
        for summ in (s1, s2_):
            Sr = p * summ.G @ summ.G.conj().T + summ.Z
            C_r = p * np.eye(K) - p * p * summ.G.conj().T @ np.linalg.solve(Sr, summ.G)
            w = np.linalg.eigvalsh(C_r - C_fused)
            assert w.min() > -1e-9
            assert np.all(np.diag(C_fused).real <= np.diag(C_r).real + 1e-9)

    def test_no_compression_full_coverage_matches_centralized(self, rng):
        p, s2 = 1.0, 0.5
        # the fused combiner sees the same effective channel as V_cen
        H, (p1, p2) = self.two_path_setup(rng)
        f = fuse(p1, p2, p)
        T_cen = centralized_combiner(H, p, s2) @ np.vstack(H)
        assert np.linalg.norm(f.V @ f.G - T_cen) / np.linalg.norm(T_cen) < 1e-8


class TestFusionGram:
    # one eigvalsh must bump and reject exactly where the condition numbers do

    def assert_same_gram(self, G, Z, p=1.0):
        try:
            ref = cond_fusion_gram(G, Z, p)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                _fusion_gram(G, Z, p)
            return None
        S = _fusion_gram(G, Z, p)
        assert np.array_equal(S, ref)
        return S

    def test_well_conditioned_unchanged(self, rng):
        G = complex_randn(rng, (4, 2))
        Z = np.diag([0.3, 0.5, 0.2, 0.9]).astype(complex)
        self.assert_same_gram(G, Z)

    def test_ill_scaled_path_not_bumped(self, rng):
        G = complex_randn(rng, (4, 2))
        Z = np.diag([0.3, 0.5, 1e12, 1e12]).astype(complex)
        self.assert_same_gram(G, Z)

    def test_near_singular_gets_bump(self):
        G = np.zeros((2, 1), dtype=complex)
        Z = np.diag([1.0, 1e-16]).astype(complex)
        S = self.assert_same_gram(G, Z)
        assert S[1, 1].real == pytest.approx(1e-16 + 1e-12 * (1.0 + 1e-16) / 2, rel=1e-12)

    def test_singular_after_bump_rejected(self):
        # one eigenvalue cancels the bump exactly: S + bump I is singular
        n = 200
        ev = np.ones(n)
        ev[0] = 1e4
        x = 0.0
        for _ in range(5):
            ev[1] = -x
            x = 1e-12 * ev.sum() / n
        ev[1] = -x
        G = np.zeros((n, 1), dtype=complex)
        Z = np.diag(ev).astype(complex)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _fusion_gram(G, Z, 1.0)
        self.assert_same_gram(G, Z)


class TestCertifiedFactor:
    # the O(n^2) bound read from the Cholesky factor may be loose, but it
    # never reads below the condition number, so a certified Gram is one the
    # eigvalsh rule would leave unbumped

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80),
           log_cond=st.floats(0.0, 16.0), log_scale=st.floats(-100.0, 100.0))
    def test_bound_never_below_cond(self, seed, n, log_cond, log_scale):
        rng = np.random.default_rng(seed)
        w = 10.0 ** (log_scale - log_cond * np.linspace(0.0, 1.0, n))
        U = rand_unitary(rng, n)
        S = _gram(np.zeros((n, 1)), (U * rng.permutation(w)) @ U.conj().T, 1.0)
        _, bound = _certified_factor(S)
        assert bound >= np.linalg.cond(S)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 40),
           log_noise=st.floats(-3.0, 16.0), forwards_nothing=st.booleans())
    def test_bound_with_one_useless_path(self, seed, K, log_noise, forwards_nothing):
        # the second path forwards nothing (G = Z = 0, as summarize_path
        # gives for a chain at its prior: S is singular) or pure noise
        rng = np.random.default_rng(seed)
        p = 1.0
        useful = summarize_path(run_chain(p, 0.5, rand_channels(rng, 3, 2, K), "eiu",
                                          np.full(3, 4.0 * K)), p)
        noise = 0.0 if forwards_nothing else 10.0 ** log_noise
        G = np.vstack([useful.G, np.zeros((K, K))])
        Z = np.zeros((2 * K, 2 * K), dtype=complex)
        Z[:K, :K] = useful.Z
        Z[K:, K:] = noise * np.eye(K)
        S = _gram(G, Z, p)
        _, bound = _certified_factor(S)
        assert bound >= np.linalg.cond(S)
        if forwards_nothing:
            assert bound == np.inf

    def test_non_finite_gram_is_not_certified(self):
        S = np.eye(3, dtype=complex)
        S[1, 1] = np.nan
        assert _certified_factor(S)[1] == np.inf

    @pytest.mark.parametrize("K", [5, 20, 40])
    def test_network_fusions_skip_the_eigensolve(self, monkeypatch, K):
        # on L=12 drops every fusion is certified: no eigvalsh runs, and V is
        # the eigvalsh rule's bit for bit
        cfg = NetworkConfig(L=12, N=10, K=K)
        p = cfg.p
        rng = np.random.default_rng(K)
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        real = np.linalg.eigvalsh
        for label in ("tp-ef-scnm", "tp-lf-eiu", "tp-lf-wsinm"):
            strategy = Strategy.parse(label)
            paths = [summarize_path(run_chain(p, cfg.sigma2, [H[i] for i in idx],
                                              strategy.compression, rates), p)
                     for idx, rates in _chains(cfg, strategy)]
            calls = []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: calls.append(1) or real(S))
            f = fuse(*paths, p)
            monkeypatch.setattr(np.linalg, "eigvalsh", real)
            assert calls == []
            assert _certified_factor(_gram(f.G, f.Z, p))[1] <= _CERT_LIMIT
            V = p * herm_solve(_fusion_gram(f.G, f.Z, p), f.G).conj().T
            assert np.array_equal(f.V, V)


class TestSinrFused:
    def test_single_user_no_interference(self, rng):
        p = 1.0
        g = complex_randn(rng, (2, 1))
        Z = np.diag([0.3, 0.8]).astype(complex)
        f = fuse(PathSummary(g[:1], Z[:1, :1]), PathSummary(g[1:], Z[1:, 1:]), p)
        expected = p * np.real(g[:, 0].conj() @ np.linalg.solve(Z, g[:, 0]))
        assert sinr_fused(f)[0] == pytest.approx(expected, rel=1e-10)

    def test_matches_centralized_sinr(self, rng):
        p, s2 = 1.0, 0.5
        helper = TestFuse()
        H, (p1, p2) = helper.two_path_setup(rng)
        f = fuse(p1, p2, p)
        assert np.allclose(sinr_fused(f), centralized_sinr(H, p, s2), rtol=1e-8)

    def test_matches_centralized_sinr_experiment_size(self):
        # a geometry drop at the experiments' size, without compression
        cfg = NetworkConfig(L=12, N=10, K=20)
        p, s2 = cfg.p, cfg.sigma2
        rng = np.random.default_rng(2026)
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        summs = []
        for idx in split_paths(cfg.L):
            st = run_chain(p, s2, [H[i] for i in idx], "eiu", np.full(len(idx), np.inf))
            summs.append(summarize_path(st, p))
        f = fuse(summs[0], summs[1], p)
        assert np.allclose(sinr_fused(f), centralized_sinr(H, p, s2), rtol=1e-8)
