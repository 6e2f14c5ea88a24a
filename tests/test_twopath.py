import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import (NetworkConfig, Strategy, draw_channels, fuse, gain, initial_state,
                   place_network, run_chain, sinr_fused, split_paths, summarize_path)
from seqcf.experiment import _chains
from seqcf.linalg import PsdError, herm_solve
from seqcf.twopath import PathSummary

from oracles import (centralized_combiner, centralized_sinr, complex_randn, lmmse_sinr,
                     rand_channels, run_and_expand)


def run_path(H, p, s2, strategy="eiu", rates=None):
    """Summary of one path's chain, and the chain's expansion oracle; the
    chain without compression is EIU at infinite rates."""
    if rates is None:
        rates = np.full(len(H), 6.0)
    st, ex, _ = run_and_expand(p, s2, H, strategy, rates)
    return summarize_path(st, p), ex


def stacked(paths):
    """The fused observation model written out: the stacked G and the
    block-diagonal noise covariance of independent paths."""
    return (np.vstack([path.G for path in paths]),
            scipy.linalg.block_diag(*[path.Z for path in paths]))


def network_paths(label, arcs=None, K=20, seed=2026):
    """Path summaries of one strategy on a Fig-2 network drop (L=12, N=10,
    R_T=500), over its own chains or over the given arcs at R_T/L per AP."""
    cfg = NetworkConfig(L=12, N=10, K=K)
    rng = np.random.default_rng(seed)
    H = draw_channels(cfg, place_network(cfg, rng), rng).H
    strategy = Strategy.parse(label)
    chains = (_chains(cfg, strategy) if arcs is None else
              [(idx, np.full(len(idx), cfg.R_T / cfg.L)) for idx in arcs])
    return [summarize_path(run_chain(cfg.p, cfg.sigma2, [H[i] for i in idx],
                                     strategy.compression, rates), cfg.p)
            for idx, rates in chains], cfg.p


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
        G1, _ = gain(p * np.eye(K, dtype=complex), H[0], s2)
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

    @pytest.mark.parametrize("label, K", [("tp-ef-wsinm", 20), ("tp-lf-eiu", 5)])
    def test_matches_explicit_block_diagonal_gram(self, label, K):
        # the in-place Gram is p G G^H + blkdiag(Z1, Z2) written out and
        # ridged by 1e-12 S_kk (1e-12 p where S_kk <= 0), bit for bit; it is
        # not symmetrized, as herm_solve reads only its upper triangle
        paths, p = network_paths(label, K=K)
        G, Z = stacked(paths)
        S = p * (G @ G.conj().T) + Z
        s = S.diagonal().real
        S[np.diag_indices_from(S)] += 1e-12 * np.where(s > 0.0, s, p)
        V, G_fused = fuse(paths, p)
        assert np.array_equal(G_fused, G)
        assert np.array_equal(V, p * herm_solve(S, G).conj().T)

    @pytest.mark.parametrize("arcs", [[list(range(12))],
                                      [[3, 2, 1, 0], [4, 5, 6, 7], [8, 9, 10, 11]]],
                             ids=["one-path", "three-paths"])
    def test_any_number_of_paths_matches_lmmse(self, arcs):
        # the fusion of n paths is the LMMSE of their stacked observation with
        # block-diagonal noise, up to the ridge
        paths, p = network_paths("sp-ef-eiu", arcs)
        got = sinr_fused(*fuse(paths, p))
        ref = lmmse_sinr(*stacked(paths), p)
        assert np.allclose(got, ref, rtol=1e-10, atol=0.0)
        assert np.all(got <= ref)

    def test_useless_path_reduces_to_single_path(self, rng):
        p = 1.0
        _, (s1, s2_) = self.two_path_setup(rng)
        huge = PathSummary(G=s2_.G, Z=1e12 * np.eye(2, dtype=complex))
        sinr = sinr_fused(*fuse([s1, huge], p))
        f1 = fuse([s1, PathSummary(G=np.zeros((2, 2)), Z=np.eye(2, dtype=complex))], p)
        assert np.allclose(sinr, sinr_fused(*f1), rtol=1e-6)

    def test_fusion_never_hurts_either_path(self, rng):
        # LMMSE on both paths dominates LMMSE on each alone, in PSD order
        p = 1.0
        _, (s1, s2_) = self.two_path_setup(rng, rates=np.full(4, 6.0))
        V, G = fuse([s1, s2_], p)
        K = 2
        C_fused = p * (np.eye(K) - V @ G)      # p I - p^2 G^H S^-1 G
        for summ in (s1, s2_):
            Sr = p * summ.G @ summ.G.conj().T + summ.Z
            C_r = p * np.eye(K) - p * p * summ.G.conj().T @ np.linalg.solve(Sr, summ.G)
            w = np.linalg.eigvalsh(C_r - C_fused)
            assert w.min() > -1e-9
            assert np.all(np.diag(C_fused).real <= np.diag(C_r).real + 1e-9)

    def test_no_compression_full_coverage_matches_centralized(self, rng):
        p, s2 = 1.0, 0.5
        # the fused combiner sees the same effective channel as V_cen
        H, paths = self.two_path_setup(rng)
        V, G = fuse(paths, p)
        T_cen = centralized_combiner(H, p, s2) @ np.vstack(H)
        assert np.linalg.norm(V @ G - T_cen) / np.linalg.norm(T_cen) < 1e-8


class TestRidgedFusion:
    # the Gram matrix is solved with a relative diagonal ridge of 1e-12: the
    # SINR is the unridged LMMSE's to 1e-10, whatever the scale of either path

    @staticmethod
    def useful_path(rng, K, p=1.0):
        H = rand_channels(rng, 3, 2, K)
        return summarize_path(run_chain(p, 0.5, H, "eiu", np.full(3, 4.0 * K)), p)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 40),
           log_noise=st.floats(-3.0, 16.0), forwards_nothing=st.booleans(),
           first=st.booleans())
    def test_useless_path_gives_the_useful_paths_sinr(self, seed, K, log_noise,
                                                      forwards_nothing, first):
        # the other path forwards nothing (G = Z = 0, a chain at its prior:
        # the unridged Gram is singular) or pure noise, on either side
        rng = np.random.default_rng(seed)
        p = 1.0
        useful = self.useful_path(rng, K, p)
        useless = (summarize_path(initial_state(K, p), p) if forwards_nothing else
                   PathSummary(G=np.zeros((K, K), dtype=complex),
                               Z=10.0 ** log_noise * np.eye(K, dtype=complex)))
        paths = (useful, useless) if first else (useless, useful)
        got = sinr_fused(*fuse(paths, p))
        ref = lmmse_sinr(useful.G, useful.Z, p)
        assert np.allclose(got, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("K", [1, 3, 20])
    def test_no_path_forwards_anything(self, K):
        # both paths at their prior: the Gram is all zero, each entry gets the
        # ridge 1e-12 p instead of a share of max_k S_kk = 0, and every SINR is 0
        p = 1.3
        nothing = summarize_path(initial_state(K, p), p)
        assert np.array_equal(sinr_fused(*fuse([nothing, nothing], p)), np.zeros(K))

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_row_scaling_leaves_the_sinr(self, rng, scale):
        # scaling one path's observation by c scales its G by c and its Z by c^2
        p = 1.0
        H, (s1, s2_) = TestFuse().two_path_setup(rng, rates=np.full(4, 6.0), K=3)
        ref = sinr_fused(*fuse([s1, s2_], p))
        scaled = PathSummary(G=scale * s2_.G, Z=scale * scale * s2_.Z)
        assert np.allclose(sinr_fused(*fuse([s1, scaled], p)), ref, rtol=1e-10, atol=0.0)
        assert np.allclose(sinr_fused(*fuse([scaled, s1], p)), ref, rtol=1e-10, atol=0.0)

    def test_indefinite_gram_raises(self):
        # Z_22 = -1e-6 is far beyond the ridge of 1e-12 max_k S_kk
        zero = np.zeros((1, 1), dtype=complex)
        paths = (PathSummary(G=zero, Z=np.ones((1, 1), dtype=complex)),
                 PathSummary(G=zero, Z=np.full((1, 1), -1e-6, dtype=complex)))
        with pytest.raises(np.linalg.LinAlgError):
            fuse(paths, 1.0)

    def test_round_off_floor_covers_a_cancelled_noise(self):
        # Z = [[1, 1e-3], [1e-3, 1e-6 - 1e-16]] has an eigenvalue of about
        # -1e-16, as cancellation leaves on an overloaded arc: beyond the
        # ridge of its second entry (1e-18), within its path's floor of
        # len(S) eps max S_kk (8.9e-16). That path sees nothing, so the
        # fusion is the other path's LMMSE
        blind = PathSummary(G=np.zeros((2, 2), dtype=complex),
                            Z=np.array([[1.0, 1e-3], [1e-3, 1e-6 - 1e-16]], dtype=complex))
        seen = PathSummary(G=np.eye(2, dtype=complex), Z=np.eye(2, dtype=complex))
        got = sinr_fused(*fuse([blind, seen], 1.0))
        assert np.allclose(got, lmmse_sinr(seen.G, seen.Z, 1.0), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_raises(self, rng, bad):
        _, (s1, s2_) = TestFuse().two_path_setup(rng)
        Z = s2_.Z.copy()
        Z[1, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            fuse([s1, PathSummary(G=s2_.G, Z=Z)], 1.0)

    @pytest.mark.parametrize("K", [5, 20, 40])
    def test_network_fusions_match_unridged_lmmse(self, K):
        # on L=12 drops the ridge moves no SINR by more than 1e-10 relative,
        # and as extra noise it never raises one
        for label in ("tp-ef-scnm", "tp-lf-eiu", "tp-lf-wsinm"):
            paths, p = network_paths(label, K=K, seed=K)
            got, ref = sinr_fused(*fuse(paths, p)), lmmse_sinr(*stacked(paths), p)
            assert np.allclose(got, ref, rtol=1e-10, atol=0.0)
            assert np.all(got <= ref)


class TestSinrFused:
    def test_single_user_no_interference(self, rng):
        p = 1.0
        g = complex_randn(rng, (2, 1))
        Z = np.diag([0.3, 0.8]).astype(complex)
        f = fuse([PathSummary(g[:1], Z[:1, :1]), PathSummary(g[1:], Z[1:, 1:])], p)
        expected = p * np.real(g[:, 0].conj() @ np.linalg.solve(Z, g[:, 0]))
        assert sinr_fused(*f)[0] == pytest.approx(expected, rel=1e-10)

    def test_matches_centralized_sinr(self, rng):
        p, s2 = 1.0, 0.5
        helper = TestFuse()
        H, paths = helper.two_path_setup(rng)
        assert np.allclose(sinr_fused(*fuse(paths, p)), centralized_sinr(H, p, s2),
                           rtol=1e-8)

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
        assert np.allclose(sinr_fused(*fuse(summs, p)), centralized_sinr(H, p, s2),
                           rtol=1e-8)
