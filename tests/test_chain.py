import numpy as np
import pytest

import seqcf.chain
import seqcf.compression
from seqcf import (NetworkConfig, centralized, draw_channels, gain, initial_state,
                   interference_context, place_network, schedule,
                   propagate_combiners, refine, run_chain, sinr_chain,
                   update_error_cov, update_pre_compression_corr)
from seqcf.compression import LN2
from seqcf.linalg import PsdError, herm

from oracles import (centralized_combiner, centralized_error_cov, complex_randn,
                     gh_step_chain, rand_channels, run_and_expand, run_recorded)


def run_random_chain(rng, p=1.0, sigma2=0.4, K=2, L=3, N=3, strategy="eiu", rates=None):
    """A chain on random channels and its expansion oracle."""
    H = rand_channels(rng, L, N, K)
    if rates is None:
        rates = np.full(L, 6.0)
    st, ex, _ = run_and_expand(p, sigma2, H, strategy, rates)
    return st, ex, H


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# (strategy, rate schedule) cases: every compression design, the lossless
# chain (EIU at infinite rates, whose noise is exactly 0), a LOG schedule
# whose first link is dead, and an equal schedule with a dead mid-chain link
def chain_cases(R_T, L):
    ef = np.full(L, R_T / L)
    dead_mid = ef.copy()
    dead_mid[L // 2] = 0.0
    return [("eiu", ef), ("scnm", ef), ("wsinm", ef), ("eiu", np.full(L, np.inf)),
            ("eiu", schedule("log", R_T, L)), ("eiu", dead_mid)]


CASE_IDS = ["eiu", "scnm", "wsinm", "infinite", "log-eiu", "dead-mid-eiu"]


class TestGain:
    def test_scalar_wiener(self):
        p, s2, h = 2.0, 0.5, np.array([[0.7 - 0.2j]])
        G, _ = gain(p * np.eye(1, dtype=complex), h, s2)
        expected = p * np.conj(h[0, 0]) / (p * abs(h[0, 0]) ** 2 + s2)
        assert G[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_zero_prior_covariance(self, rng):
        H = complex_randn(rng, (3, 2))
        G, _ = gain(np.zeros((2, 2), dtype=complex), H, 0.7)
        assert np.allclose(G, 0.0)

    def test_matches_direct_solve(self, rng):
        K, N, s2 = 2, 3, 0.3
        C = complex_randn(rng, (K, K))
        C = C @ C.conj().T
        H = complex_randn(rng, (N, K))
        G, HC = gain(C, H, s2)
        S = H @ C @ H.conj().T + s2 * np.eye(N)
        expected = C @ H.conj().T @ np.linalg.inv(S)
        assert np.allclose(G, expected, atol=1e-12)
        # the N x K product the gain is formed from, handed back for Gamma H C
        assert np.array_equal(HC, H @ C)

    def test_rejects_nonpositive_noise(self, rng):
        with pytest.raises(ValueError):
            gain(np.eye(2, dtype=complex), complex_randn(rng, (2, 2)), 0.0)


class TestRefine:
    def test_zero_gain_keeps_estimate(self, rng):
        s_prev = complex_randn(rng, 2)
        H = complex_randn(rng, (3, 2))
        out = refine(s_prev, np.zeros((2, 3)), H, complex_randn(rng, 3))
        assert np.array_equal(out, s_prev)

    def test_first_ap_base_case(self, rng):
        G = complex_randn(rng, (2, 3))
        y = complex_randn(rng, 3)
        out = refine(np.zeros(2, dtype=complex), G, complex_randn(rng, (3, 2)), y)
        assert np.allclose(out, G @ y)

    def test_noiseless_limit_recovers_signal(self, rng):
        # single user, many antennas, vanishing noise: the estimate tends to
        # the truth, so T -> I and the error covariance C -> 0
        p, s2, N = 1.0, 1e-12, 8
        H = [complex_randn(rng, (N, 1))]
        st = run_chain(p, s2, H, "eiu", [np.inf])
        assert p * np.abs(1.0 - st.T[0, 0]) ** 2 < 1e-6 * p
        assert st.C[0, 0].real < 1e-6 * p


class TestCovarianceUpdates:
    def test_first_ap_pre_compression_identity(self, rng):
        # P_1 = p G H must equal G (p H H^H + s2 I) G^H
        p, s2, K, N = 1.3, 0.6, 2, 3
        H = complex_randn(rng, (N, K))
        C0 = p * np.eye(K, dtype=complex)
        G, HC = gain(C0, H, s2)
        Z = np.zeros((K, K), dtype=complex)
        P1 = update_pre_compression_corr(Z, Z, G, H, G @ HC)
        direct = G @ (p * H @ H.conj().T + s2 * np.eye(N)) @ G.conj().T
        assert np.linalg.norm(P1 - direct) / np.linalg.norm(direct) < 1e-9

    def test_compression_free_reduction(self, rng):
        K, N = 3, 2
        C = complex_randn(rng, (K, K))
        C = C @ C.conj().T
        P_prev = complex_randn(rng, (K, K))
        P_prev = P_prev @ P_prev.conj().T
        H = complex_randn(rng, (N, K))
        G, HC = gain(C, H, 0.5)
        Z = np.zeros((K, K), dtype=complex)
        P = update_pre_compression_corr(P_prev, Z, G, H, G @ HC)
        assert np.allclose(P, herm(P_prev + G @ H @ C), atol=1e-12)

    @pytest.mark.parametrize("helper, case", [
        ("update_pre_compression_corr", 0), ("update_pre_compression_corr", 4),
        ("update_pre_compression_corr", 5), ("update_error_cov", 0),
        ("update_error_cov", 4), ("update_error_cov", 5)],
        ids=["eiu", "log-eiu", "dead-mid-eiu",
             "error-cov-eiu", "error-cov-log-eiu", "error-cov-dead-mid-eiu"])
    def test_diagonal_q_matches_matrix_form(self, helper, case, monkeypatch):
        # an EIU chain hands P's and C's updates a diagonal noise as its
        # diagonal; at every AP of the Fig-2 network that the chain runs, the
        # first one after the last dead link included, each update gives the
        # matrix form's result bit for bit. P's update gets the previous AP's
        # noise, Q_prev = 0 at the first AP run; C's the AP's own
        cfg = NetworkConfig(L=12, N=10, K=20)
        rng = np.random.default_rng(2026)
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        strategy, rates = chain_cases(cfg.R_T, cfg.L)[case]
        real = getattr(seqcf.chain, helper)
        zero_q = []

        def both(X, q, *products):
            assert q.shape == (cfg.K,)
            # the matrix form first: the diagonal one may update X in place
            dense = real(X, np.diag(q).astype(complex), *products)
            out = real(X, q, *products)
            assert np.array_equal(out, dense)
            zero_q.append(not q.any())
            return out

        monkeypatch.setattr(seqcf.chain, helper, both)
        run_chain(cfg.p, cfg.sigma2, H, strategy, rates)
        # only the APs after the last dead link are run
        run = len(rates) - 1 - max(np.flatnonzero(rates == 0.0), default=-1)
        assert len(zero_q) == run
        if helper == "update_pre_compression_corr":
            assert zero_q == [True] + [False] * (run - 1)
        else:
            assert not any(zero_q)

    def test_error_cov_trivial(self, rng):
        C = np.eye(2, dtype=complex) * 0.8
        GH = np.zeros((2, 3)) @ complex_randn(rng, (3, 2))
        out = update_error_cov(C - GH @ C, np.zeros((2, 2)))
        assert np.allclose(out, C)

    def test_error_cov_scalar_algebra(self):
        p, s2, h, q = 1.0, 0.4, 0.9 + 0.1j, 0.05
        C = np.array([[p]], dtype=complex)
        H = np.array([[h]])
        G, HC = gain(C, H, s2)
        out = update_error_cov(C - G @ HC, np.array([[q]], dtype=complex))
        expected = s2 * p / (p * abs(h) ** 2 + s2) + q
        assert out[0, 0].real == pytest.approx(expected, rel=1e-12)

    def test_error_cov_rejects_indefinite(self):
        C_pre = np.diag([1.0, -1e-3]).astype(complex)
        with pytest.raises(PsdError):
            update_error_cov(C_pre, np.zeros((2, 2), dtype=complex))

    def test_indefinite_p_rejected_on_eiu_step(self, rng, monkeypatch):
        # EIU reads only P's diagonal; an off-diagonal that makes P
        # indefinite leaves that diagonal alone, and the P check still fires
        real = seqcf.chain.update_pre_compression_corr
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = bad[1, 0] = 100.0

        def corrupt(P_prev, *args):
            return real(P_prev + bad, *args)

        monkeypatch.setattr(seqcf.chain, "update_pre_compression_corr", corrupt)
        H = rand_channels(rng, 2, 3, 2)
        with pytest.raises(PsdError, match="P"):
            run_chain(1.0, 0.5, H, "eiu", [6.0, 6.0])

    @pytest.mark.parametrize("strategy", ["eiu", "scnm", "wsinm"])
    def test_p_checked_once_per_ap_run(self, rng, strategy, monkeypatch):
        # the P update only symmetrizes P; the design checks it, once per AP
        # the chain runs (WSINM once per call, not per BCD iteration)
        real = seqcf.compression.check_psd
        names = []

        def counting(X, name="matrix"):
            names.append(name)
            return real(X, name)

        monkeypatch.setattr(seqcf.compression, "check_psd", counting)
        H = rand_channels(rng, 4, 3, 2)
        run_chain(1.0, 0.5, H, strategy, [6.0, 0.0, 6.0, 6.0])
        assert names == ["P", "P"]

    def test_p_update_does_not_check(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        assert np.array_equal(
            update_pre_compression_corr(bad, np.zeros(2), zero, zero, zero), bad)


class TestCombinerFamilies:
    # propagate_combiners is the effective-channel step: T_l = sum_i V_il H_i
    # without the combiner families V_il = F_l ... F_{i+1} Gamma_i themselves

    def test_base_case(self, rng):
        G = complex_randn(rng, (2, 3))
        H = complex_randn(rng, (3, 2))
        T = propagate_combiners(np.zeros((2, 2), dtype=complex), G, H)
        assert np.array_equal(T, G @ H)

    def test_two_step_product_form(self, rng):
        p, s2, K, N = 1.0, 0.5, 2, 3
        H1, H2 = complex_randn(rng, (N, K)), complex_randn(rng, (N, K))
        C0 = p * np.eye(K, dtype=complex)
        G1, _ = gain(C0, H1, s2)
        C1 = update_error_cov(C0 - G1 @ H1 @ C0, np.zeros((K, K)))
        G2, _ = gain(C1, H2, s2)
        T0 = np.zeros((K, K), dtype=complex)
        T = propagate_combiners(propagate_combiners(T0, G1, H1), G2, H2)
        F2 = np.eye(K) - G2 @ H2
        # V_12 = F2 G1, V_22 = G2
        assert np.allclose(T, F2 @ G1 @ H1 + G2 @ H2, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["eiu", "scnm", "wsinm", "infinite"])
    def test_recursion_matches_expansion(self, rng, strategy):
        # the tracked T equals sum_i V_i H_i; "infinite" is the lossless
        # chain, EIU at infinite rates
        rates = np.full(3, np.inf) if strategy == "infinite" else None
        strategy = "eiu" if strategy == "infinite" else strategy
        st, ex, _ = run_random_chain(rng, strategy=strategy, rates=rates)
        assert rel_err(st.T, ex.T) < 1e-9


class TestRunChain:
    def test_no_compression_matches_centralized(self, rng):
        p, s2 = 1.0, 0.5
        H = rand_channels(rng, 4, 2, 3)
        st = run_chain(p, s2, H, "eiu", np.full(4, np.inf))
        T_cen = centralized_combiner(H, p, s2) @ np.vstack(H)
        assert np.linalg.norm(st.T - T_cen) / np.linalg.norm(T_cen) < 1e-8
        C_cen = centralized_error_cov(H, p, s2)
        assert np.linalg.norm(st.C - C_cen) / np.linalg.norm(C_cen) < 1e-8

    @pytest.mark.parametrize("K,L,N", [(1, 1, 1), (3, 4, 2), (5, 2, 4), (20, 12, 10)])
    def test_closed_form_matches_recursion(self, rng, K, L, N):
        # chain.centralized is the compression-free recursion (EIU at
        # infinite rates) in closed form
        p, s2 = 1.0, 0.5
        H = rand_channels(rng, L, N, K)
        st = run_chain(p, s2, H, "eiu", np.full(L, np.inf))
        cen = centralized(p, s2, H)
        assert rel_err(cen.C, st.C) < 1e-12
        assert rel_err(cen.T, st.T) < 1e-12
        assert np.array_equal(cen.P, np.zeros((K, K)))
        C_cen = centralized_error_cov(H, p, s2)
        assert rel_err(cen.C, C_cen) < 1e-10

    def test_single_ap_reduces_to_lmmse_plus_compression(self, rng):
        p, s2, K, N = 1.0, 0.5, 2, 3
        H = rand_channels(rng, 1, N, K)
        st, outcomes = run_recorded(p, s2, H, "eiu", [8.0])
        Gamma, _ = gain(p * np.eye(K, dtype=complex), H[0], s2)
        assert np.allclose(st.T, Gamma @ H[0], atol=1e-10)
        assert np.allclose(st.C, centralized_error_cov(H, p, s2) + outcomes[0].Q,
                           atol=1e-10)

    def test_terminal_mse_non_increasing_in_rate(self, rng):
        p, s2, L = 1.0, 0.5, 3
        H = rand_channels(rng, L, 2, 2)
        base_rates = np.full(L, 4.0)
        for l in range(L):
            traces = []
            for extra in (0.0, 2.0, 6.0, 12.0):
                rates = base_rates.copy()
                rates[l] += extra
                st = run_chain(p, s2, H, "scnm", rates)
                traces.append(np.trace(st.C).real)
            assert np.all(np.diff(traces) <= 1e-9)

    def test_trace_inequality_every_step(self, rng):
        # run chain prefixes to observe intermediate traces
        p, s2 = 1.0, 0.4
        H = rand_channels(rng, 4, 3, 2)
        prev = np.trace(initial_state(2, p).C).real
        for l in range(1, 5):
            stl, outcomes = run_recorded(p, s2, H[:l], "scnm", np.full(l, 6.0))
            tr = np.trace(stl.C).real
            assert tr <= prev + np.trace(outcomes[-1].Q).real + 1e-9
            prev = tr

    def test_psd_state_every_step(self, rng):
        st, ex, _ = run_random_chain(rng, L=4, strategy="wsinm")
        for X in [st.C, st.P] + ex.Qs:
            w = np.linalg.eigvalsh(herm(X))
            assert w.min() >= -1e-10 * max(abs(w).max(), 1e-300)

    def test_infinite_is_not_a_design(self, rng):
        # a compression-free chain is chain.centralized, or EIU at infinite
        # rates; run_chain itself knows only the three designs
        H = rand_channels(rng, 2, 3, 2)
        with pytest.raises(ValueError, match="unknown compression strategy"):
            run_chain(1.0, 0.5, H, "infinite", np.full(2, np.inf))

    def test_unknown_design_rejected_where_it_enters(self):
        # every link is dead, so no AP compresses: the check cannot wait for one
        with pytest.raises(ValueError, match="unknown compression strategy"):
            run_chain(1.0, 0.5, [np.ones((2, 2))], "bogus", [0.0])

    @pytest.mark.parametrize("p, sigma2, rate", [
        (-1.0, 0.5, 6.0), (0.0, 0.5, 6.0), (np.nan, 0.5, 6.0), (np.inf, 0.5, 6.0),
        (1.0, 0.0, 6.0), (1.0, -0.5, 6.0), (1.0, np.nan, 6.0), (1.0, np.inf, 6.0),
        (1.0, 0.5, np.nan), (1.0, 0.5, -1.0), (1.0, 0.5, -1e-300), (1.0, 0.5, -np.inf),
        (True, 0.5, 6.0)])
    def test_bad_input_rejected_at_entry(self, p, sigma2, rate):
        # not a numerical failure later on: p and sigma2 must be finite and > 0,
        # and a rate must be neither NaN nor negative (<= ZERO_RATE_TOL is a
        # dead link, inf lossless)
        H = [np.ones((2, 2), dtype=complex)]
        for strategy in ("eiu", "scnm", "wsinm"):
            with pytest.raises(ValueError, match="sigma2|p must|NaN or negative"):
                run_chain(p, sigma2, H, strategy, [rate])
        if not rate >= 0.0:
            return
        with pytest.raises(ValueError, match="sigma2|p must"):
            centralized(p, sigma2, H)
        if not 0.0 < sigma2 < np.inf:
            with pytest.raises(ValueError, match="sigma2"):
                gain(np.eye(2, dtype=complex), H[0], sigma2)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="chain is empty"):
            run_chain(1.0, 0.5, [], "eiu", [])
        with pytest.raises(ValueError, match="chain is empty"):
            centralized(1.0, 0.5, [])

    def test_state_is_its_statistics(self, rng):
        st = run_chain(1.0, 0.5, rand_channels(rng, 2, 3, 2), "eiu", [6.0, 0.0])
        assert list(vars(st)) == ["C", "P", "T"]

    def test_zero_rate_link_restarts_chain(self, rng):
        # a dead first link must leave AP 2 with a fresh prior
        p, s2, K, N = 1.0, 0.5, 2, 3
        H = rand_channels(rng, 2, N, K)
        st = run_chain(p, s2, H, "eiu", [0.0, 10.0])
        fresh = run_chain(p, s2, H[1:], "eiu", [10.0])
        assert np.allclose(st.C, fresh.C, atol=1e-12)
        assert np.allclose(st.T, fresh.T, atol=1e-12)

    def test_dead_link_forms_no_gain(self, rng, monkeypatch):
        # a gain is formed only at the APs after the last dead link
        calls = []
        real = seqcf.chain.gain
        monkeypatch.setattr(seqcf.chain, "gain", lambda *a: calls.append(1) or real(*a))
        H = rand_channels(rng, 4, 3, 2)
        run_chain(1.0, 0.5, H[:1], "eiu", [0.0])
        assert calls == []
        run_chain(1.0, 0.5, H, "eiu", [0.0, 10.0, 0.0, 10.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("strategy", ["eiu", "scnm", "wsinm"])
    def test_aps_before_last_dead_link_are_not_run(self, rng, strategy):
        # the last dead link forwards nothing, so the chain after it is the
        # fresh chain over its APs: a NaN channel at a live AP before it
        # cannot fail it
        H = rand_channels(rng, 4, 3, 2)
        H[0] = np.full_like(H[0], np.nan)
        st = run_chain(1.0, 0.5, H, strategy, [6.0, 0.0, 6.0, 6.0])
        fresh = run_chain(1.0, 0.5, H[2:], strategy, [6.0, 6.0])
        for X, Y in zip((st.C, st.P, st.T), (fresh.C, fresh.P, fresh.T)):
            assert np.array_equal(X, Y)

    @pytest.mark.parametrize("rates, run", [([6.0, 6.0, 6.0], 3), ([6.0, 0.0, 6.0], 1),
                                            ([0.0, 0.0, 0.0], 0)])
    def test_each_design_called_once_per_run_ap(self, rng, monkeypatch, rates, run):
        # the design is looked up in seqcf.compression at every AP, so a wrapper
        # patched onto the module, as a tracer's or a recorder's, sees each call
        calls = {"eiu": 0, "scnm": 0, "wsinm": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(seqcf.compression, name,
                                counting(name, getattr(seqcf.compression, name)))
        H = rand_channels(rng, 3, 3, 2)
        for strategy in calls:
            before = dict(calls)
            run_chain(1.0, 0.5, H, strategy, rates)
            assert {k: calls[k] - before[k] for k in calls} == {
                k: run if k == strategy else 0 for k in calls}

    def test_lossless_chain_is_uncompressed_recursion(self, rng):
        # EIU at infinite rates adds exactly zero noise: C and T are the
        # uncompressed recursions, on the gain's factors, bit for bit
        p, s2, K, L, N = 1.0, 0.4, 3, 5, 3
        H = rand_channels(rng, L, N, K)
        st = run_chain(p, s2, H, "eiu", np.full(L, np.inf))
        ref = initial_state(K, p)
        zero_q = np.zeros((K, K), dtype=complex)
        for H_l in H:
            Gamma, HC = gain(ref.C, H_l, s2)
            ref.T = propagate_combiners(ref.T, Gamma, H_l)
            ref.C = update_error_cov(ref.C - Gamma @ HC, zero_q)
        assert np.array_equal(st.C, ref.C)
        assert np.array_equal(st.T, ref.T)


class TestFactorStep:
    # run_chain applies each AP's gain only as its K x N factor Gamma;
    # oracles.gh_step_chain is the same chain with the explicit K x K Gamma H
    # step, so the two may differ by round-off alone

    @pytest.mark.parametrize("dead", [False, True], ids=["live", "dead-link"])
    @pytest.mark.parametrize("strategy", ["eiu", "scnm", "wsinm"])
    @pytest.mark.parametrize("K, N", [(2, 3), (3, 3), (5, 2)], ids=["K<N", "K=N", "K>N"])
    def test_matches_explicit_gain_step(self, rng, K, N, strategy, dead):
        L = 5
        H = rand_channels(rng, L, N, K)
        rates = np.full(L, 6.0)
        if dead:
            rates[1] = 0.0
        st = run_chain(1.0, 0.4, H, strategy, rates)
        ref = gh_step_chain(1.0, 0.4, H, strategy, rates)
        for X, Y in zip((st.C, st.P, st.T), (ref.C, ref.P, ref.T)):
            assert rel_err(X, Y) < 1e-12

    def test_wsinm_stop_unmoved_on_fig2_drops(self):
        # a round-off change must not shift WSINM's BCD stop (ROADMAP item 4):
        # on the first two drops of the fig2-wsinm benchmark pool, every WSINM
        # call of sp-lf-wsinm and tp-lf-wsinm stops at the BCD iteration it
        # stops at under the explicit Gamma H step
        from seqcf.experiment import Strategy, _chains, _draw_drop

        cfg = NetworkConfig(L=12, N=10, K=20, R_T=500.0)
        iters, ref_iters = [], []
        for seed in (0, 1):
            H = _draw_drop(cfg, np.random.default_rng(np.random.SeedSequence((seed, 0))))
            for label in ("sp-lf-wsinm", "tp-lf-wsinm"):
                for idx, rates in _chains(cfg, Strategy.parse(label)):
                    H_path = [H[i] for i in idx]
                    for run, out in ((None, iters), (gh_step_chain, ref_iters)):
                        _, outcomes = run_recorded(cfg.p, cfg.sigma2, H_path, "wsinm",
                                                   rates, run=run)
                        out += [o.bcd_iters for o in outcomes]
        assert len(iters) == 2 * 2 * cfg.L
        assert iters == ref_iters


class TestExperimentSize:
    # the (T, C) closed forms against the expansion oracle at the size the
    # experiments run, on a drop from the paper's geometry

    @pytest.mark.parametrize("case", range(len(CASE_IDS)), ids=CASE_IDS)
    def test_closed_forms_match_expansion(self, case):
        cfg = NetworkConfig(L=12, N=10, K=20)
        p, s2 = cfg.p, cfg.sigma2
        rng = np.random.default_rng(2026)
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        strategy, rates = chain_cases(cfg.R_T, cfg.L)[case]
        st, ex, outcomes = run_and_expand(p, s2, H, strategy, rates)

        assert rel_err(st.T, ex.T) < 1e-9
        D = np.eye(cfg.K) - st.T
        assert rel_err(st.C - p * D @ D.conj().T, ex.Z) < 1e-9
        sinr = sinr_chain(st.T, st.C, p)
        assert np.max(np.abs(sinr - ex.sinr) / ex.sinr) < 1e-9
        # the terminal AP's interference base, and for WSINM the base each AP
        # used, recovered from its final weights w_k = 1 / (ln2 (base_k + Q_kk))
        Q_L = outcomes[-1].Q
        base = interference_context(st.T, st.C - Q_L, p)
        assert np.max(np.abs(base - ex.bases[-1]) / ex.bases[-1]) < 1e-9
        if strategy == "wsinm":
            for o, ref in zip(outcomes, ex.bases):
                used = 1.0 / (LN2 * o.weights) - np.diag(o.Q).real
                assert np.max(np.abs(used - ref) / ref) < 1e-9
