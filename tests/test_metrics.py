import numpy as np
import pytest

from seqcf import gain, interference_context, run_chain, se_from_sinr, sinr_chain

from oracles import (centralized_sinr, complex_randn, rand_channels, rand_psd,
                     run_and_expand)


def chain_families(rng, p=1.0, sigma2=0.4, K=2, L=3, N=3, strategy="eiu", rates=None):
    """A chain on random channels and its expansion oracle; the chain without
    compression is EIU at infinite rates."""
    H = rand_channels(rng, L, N, K)
    if rates is None:
        rates = np.full(L, 6.0)
    st, ex, _ = run_and_expand(p, sigma2, H, strategy, rates)
    return H, st, ex


class TestSinrChain:
    def test_single_user_single_ap_matched_filter(self, rng):
        # K=1, no compression: SINR = p |Gamma h|^2 / (sigma2 Gamma Gamma^H)
        p, s2, N = 1.0, 0.3, 4
        H, st, _ = chain_families(rng, p=p, sigma2=s2, K=1, L=1, N=N,
                                  strategy="eiu", rates=[np.inf])
        G, _ = gain(p * np.eye(1, dtype=complex), H[0], s2)
        expected = p * np.abs(G @ H[0][:, 0]) ** 2 / (s2 * (G @ G.conj().T).real)
        sinr = sinr_chain(st.T, st.C, p)
        assert sinr[0] == pytest.approx(float(expected[0, 0]), rel=1e-10)
        # for the single-antenna-stack LMMSE combiner this is p ||h||^2 / s2
        assert sinr[0] == pytest.approx(
            p * np.linalg.norm(H[0][:, 0]) ** 2 / s2, rel=1e-10)

    def test_matches_centralized_without_compression(self, rng):
        p, s2 = 1.0, 0.5
        H, st, _ = chain_families(rng, p=p, sigma2=s2, K=3, L=4, N=2,
                                  strategy="eiu", rates=np.full(4, np.inf))
        sinr = sinr_chain(st.T, st.C, p)
        cen = centralized_sinr(H, p, s2)
        assert np.allclose(sinr, cen, rtol=1e-8)

    def test_zero_channel_user_gets_zero_sinr(self, rng):
        p, s2, K, N = 1.0, 0.5, 2, 3
        H = [complex_randn(rng, (N, K))]
        H[0][:, 0] = 0.0
        st = run_chain(p, s2, H, "eiu", [np.inf])
        sinr = sinr_chain(st.T, st.C, p)
        assert sinr[0] == 0.0

    def test_row_scaling_invariance(self, rng):
        # scaling user k's row of every combiner by c gives T' = D T and
        # noise D Z D^H; C' follows from C = p (I-T)(I-T)^H + Z
        p, s2 = 1.0, 0.4
        _, st, _ = chain_families(rng, K=3, strategy="eiu")
        sinr = sinr_chain(st.T, st.C, p)
        c = 0.3 - 1.7j
        k = 1
        D = np.eye(3, dtype=complex)
        D[k, k] = c
        I = np.eye(3)
        Z = st.C - p * (I - st.T) @ (I - st.T).conj().T
        T2 = D @ st.T
        C2 = D @ Z @ D.conj().T + p * (I - T2) @ (I - T2).conj().T
        sinr2 = sinr_chain(T2, C2, p)
        assert sinr2[k] == pytest.approx(sinr[k], rel=1e-10)

    def test_psd_increment_never_helps(self, rng):
        # extra compression noise dQ at AP i reaches the terminal error
        # covariance as A_i dQ A_i^H
        p, s2 = 1.0, 0.4
        _, st, ex = chain_families(rng, K=3, L=4, strategy="scnm")
        before = sinr_chain(st.T, st.C, p)
        assert np.allclose(before, ex.sinr, rtol=1e-9)
        for i in range(4):
            Qs = [Q.copy() for Q in ex.Qs]
            dQ = rand_psd(rng, 3) * 0.1
            Qs[i] = Qs[i] + dQ
            after = sinr_chain(st.T, st.C + ex.A[i] @ dQ @ ex.A[i].conj().T, p)
            assert np.allclose(after, ex.sinr_with(Qs), rtol=1e-9)
            assert np.all(after <= before + 1e-12)


class TestInterferenceContext:
    def test_first_ap_terms(self, rng):
        p, s2 = 1.3, 0.6
        H, st, _ = chain_families(rng, p=p, sigma2=s2, K=2, L=1, N=3,
                                  strategy="eiu", rates=[np.inf])
        base = interference_context(st.T, st.C, p)   # Q_1 = 0: C_pre = C
        G, _ = gain(p * np.eye(2, dtype=complex), H[0], s2)
        T = G @ H[0]
        for k in range(2):
            inter = sum(p * np.abs(T[k, j]) ** 2 for j in range(2) if j != k)
            noise = s2 * np.sum(np.abs(G[k, :]) ** 2)
            assert base[k] == pytest.approx(inter + noise, rel=1e-12)

    def test_history_increment_never_decreases_base(self, rng):
        p, s2 = 1.0, 0.4
        _, st, ex = chain_families(rng, K=3, L=3, strategy="eiu")
        C_pre = st.C - ex.Qs[-1]
        base = interference_context(st.T, C_pre, p)
        assert np.allclose(base, ex.bases[-1], rtol=1e-9)
        dQ = rand_psd(rng, 3)
        base2 = interference_context(st.T, C_pre + ex.A[0] @ dQ @ ex.A[0].conj().T, p)
        assert np.all(base2 >= base - 1e-12)

    def test_consistency_with_sinr_denominator(self, rng):
        p, s2 = 1.0, 0.4
        _, st, ex = chain_families(rng, K=3, L=3, strategy="scnm")
        Q_l = ex.Qs[-1]
        base = interference_context(st.T, st.C - Q_l, p)
        sinr = sinr_chain(st.T, st.C, p)
        num = p * np.abs(np.diag(st.T)) ** 2
        den = base + np.diag(Q_l).real
        assert np.allclose(num / den, sinr, rtol=1e-12)


class TestSeFromSinr:
    def test_zero_sinr_zero_se(self):
        rep = se_from_sinr(np.zeros(3), 180, 200)
        assert np.all(rep.se == 0.0)
        assert rep.sum_se == 0.0

    def test_sinr_below_eps_keeps_its_se(self):
        # 1 + 1e-20 rounds to 1, so log2(1 + sinr) would read 0; log1p keeps it
        rep = se_from_sinr(np.array([1e-20, 1e-300]), 180, 200)
        assert rep.se == pytest.approx(0.9 * np.array([1e-20, 1e-300]) / np.log(2.0),
                                       rel=1e-15, abs=0.0)
        assert rep.sum_se > 0.0

    def test_unit_sinr(self):
        rep = se_from_sinr(np.array([1.0]), 180, 200)
        assert rep.se[0] == pytest.approx(0.9)

    def test_uplink_fraction_prelog(self):
        # K=20 pilots out of tau_c=200 leaves a 0.9 prelog
        rep = se_from_sinr(np.ones(20), 200 - 20, 200)
        assert rep.prelog == pytest.approx(0.9)
        assert rep.sum_se == pytest.approx(20 * 0.9)

    def test_rejects_negative_sinr(self):
        with pytest.raises(ValueError):
            se_from_sinr(np.array([-0.1]), 180, 200)
