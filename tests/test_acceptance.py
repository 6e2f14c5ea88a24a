# Acceptance gate: one test per exit criterion, each printing a PASS line
# with its measured margin (run with -s to see them).
import itertools

import numpy as np
import pytest

from seqcf import (ExperimentSpec, NetworkConfig, Strategy, eiu, gain,
                   run_chain, run_experiment, scnm, sinr_chain,
                   update_error_cov, update_pre_compression_corr,
                   weighted_scnm, wsinm)
from seqcf.allocation import equal
from seqcf.chain import propagate_combiners, refine
from seqcf.compression import LN2, achieved_rate_bits
from seqcf.geometry import draw_channels, place_network
from seqcf.linalg import sample_cn

from oracles import (centralized_combiner, centralized_error_cov,
                     centralized_sinr, complex_randn, grid_min_trace,
                     rand_channels, rand_psd, run_and_expand)


def test_centralized_equivalence():
    rng = np.random.default_rng(2024)
    p, sigma2 = 1.0, 0.5
    combos = list(itertools.product((1, 2, 5), (2, 4), (1, 2, 4)))
    worst_T, worst_sinr = 0.0, 0.0
    for i in range(100):
        K, L, N = combos[i % len(combos)]
        H = rand_channels(rng, L, N, K)
        st = run_chain(p, sigma2, H, "infinite", np.full(L, np.inf))
        T_cen = centralized_combiner(H, p, sigma2) @ np.vstack(H)
        worst_T = max(worst_T, np.linalg.norm(st.T - T_cen) / np.linalg.norm(T_cen))
        sinr = sinr_chain(st.T, st.C, p)
        ref = centralized_sinr(H, p, sigma2)
        worst_sinr = max(worst_sinr, np.max(np.abs(sinr - ref) / ref))
        C_cen = centralized_error_cov(H, p, sigma2)
        assert np.linalg.norm(st.C - C_cen) / np.linalg.norm(C_cen) < 1e-8
    assert worst_T < 1e-8
    assert worst_sinr < 1e-8
    print(f"\n[PASS] centralized-equivalence: worst T err {worst_T:.2e}, "
          f"worst SINR err {worst_sinr:.2e} (tol 1e-8)")


def test_algebraic_reconstruction():
    rng = np.random.default_rng(7)
    worst = 0.0
    strategies = ("eiu", "scnm", "wsinm", "infinite")
    for i in range(100):
        K = int(rng.integers(1, 4))
        L = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        H = rand_channels(rng, L, N, K)
        strat = strategies[i % 4]
        rates = rng.uniform(3.0, 10.0, size=L)
        st, ex = run_and_expand(1.0, 0.5, H, strat, rates)
        worst = max(worst, np.linalg.norm(st.T - ex.T) / np.linalg.norm(ex.T))
    assert worst < 1e-9
    print(f"\n[PASS] algebraic-reconstruction: worst relative T err {worst:.2e} "
          f"(tol 1e-9)")


def _chain_realizations(rng, p, sigma2, H, gammas, Qs, n):
    """n joint realizations of a chain's signals: yields (s, s_hat, s_tilde)
    after each AP, s_hat by chain.refine and s_tilde = s_hat + CN(0, Q_l)."""
    K = H[0].shape[1]
    s = np.sqrt(p) * complex_randn(rng, (K, n))
    s_tilde = np.zeros((K, n), dtype=complex)
    for Hl, G, Q in zip(H, gammas, Qs):
        y = Hl @ s + np.sqrt(sigma2) * complex_randn(rng, (Hl.shape[0], n))
        s_hat = refine(s_tilde, G, Hl, y)
        s_tilde = s_hat + sample_cn(rng, Q, n)
        yield s, s_hat, s_tilde


def _rel(emp, model):
    return np.linalg.norm(emp - model) / np.linalg.norm(model)


def test_covariance_fidelity_monte_carlo():
    rng = np.random.default_rng(31)
    p, sigma2, K, N, L, T = 1.0, 0.5, 2, 2, 3, 100_000
    H = rand_channels(rng, L, N, K)
    R_l = 6.0

    # deterministic pass: Gamma_l, Q_l, C_l, P_l, T_l at every step
    C = p * np.eye(K, dtype=complex)
    P = np.zeros((K, K), dtype=complex)
    T_eff = np.zeros((K, K), dtype=complex)
    Q_prev = np.zeros((K, K), dtype=complex)
    gammas, Qs, Cs, Ps, Ts = [], [], [], [], []
    for Hl in H:
        G = gain(C, Hl, sigma2)
        GH = G @ Hl
        GHC = GH @ C
        T_eff = propagate_combiners(T_eff, GH)
        Ts.append(T_eff)
        P = update_pre_compression_corr(P, Q_prev, GH, GHC)
        Q = eiu(P, R_l).Q
        C = update_error_cov(C - GHC, Q)
        gammas.append(G)
        Qs.append(Q)
        Cs.append(C)
        Ps.append(P)
        Q_prev = Q

    # vectorized Monte-Carlo re-simulation of the same chain
    worst_P, worst_C, worst_T = 0.0, 0.0, 0.0
    draws = _chain_realizations(rng, p, sigma2, H, gammas, Qs, T)
    for (s, s_hat, s_tilde), C_l, P_l, T_l in zip(draws, Cs, Ps, Ts):
        worst_P = max(worst_P, _rel(s_hat @ s_hat.conj().T / T, P_l))
        e = s - s_tilde
        worst_C = max(worst_C, _rel(e @ e.conj().T / T, C_l))
        # effective channel: E[s_tilde s^H] = p T
        worst_T = max(worst_T, _rel(s_tilde @ s.conj().T / (p * T), T_l))
    assert worst_P < 0.03
    assert worst_C < 0.03
    assert worst_T < 0.03
    print(f"\n[PASS] covariance-fidelity: worst Frobenius err P {worst_P:.3f}, "
          f"C {worst_C:.3f}, T {worst_T:.3f} at {T} realizations (tol 0.03)")


@pytest.mark.parametrize("strategy", ["eiu", "scnm", "wsinm"])
def test_covariance_fidelity_monte_carlo_experiment_size(strategy):
    # C and T of run_chain against 4e4 realizations of the Fig-2 network
    # (L=12, N=10, K=20, equal split of R_T=500). At seed 7 the sampling
    # error is about 0.023 (C) and 0.06 (T) and halves at 4x the draws; the
    # tolerances leave about half that again. P stays checked at K=2, L=3
    cfg = NetworkConfig(L=12, N=10, K=20)
    rng = np.random.default_rng(7)
    H = draw_channels(cfg, place_network(cfg, rng), rng).H
    rates = equal(cfg.R_T, cfg.L)
    # the chain after each AP: every prefix is run_chain's own pass
    states = [run_chain(cfg.p, cfg.sigma2, H[:l], strategy, rates[:l])
              for l in range(1, cfg.L + 1)]
    C_before = [cfg.p * np.eye(cfg.K)] + [st.C for st in states[:-1]]
    gammas = [gain(C, Hl, cfg.sigma2) for C, Hl in zip(C_before, H)]
    Qs = [st.outcomes[-1].Q for st in states]
    n = 40_000
    worst_C, worst_T = 0.0, 0.0
    draws = _chain_realizations(rng, cfg.p, cfg.sigma2, H, gammas, Qs, n)
    for (s, _, s_tilde), st in zip(draws, states):
        e = s - s_tilde
        worst_C = max(worst_C, _rel(e @ e.conj().T / n, st.C))
        worst_T = max(worst_T, _rel(s_tilde @ s.conj().T / (cfg.p * n), st.T))
    assert worst_C < 0.035
    assert worst_T < 0.085
    print(f"\n[PASS] covariance-fidelity ({strategy}, L=12, K=20): worst Frobenius "
          f"err C {worst_C:.3f} (tol 0.035), T {worst_T:.3f} (tol 0.085) at {n} realizations")


def test_scnm_optimality_and_rate_equality():
    rng = np.random.default_rng(55)
    worst_gap, worst_rate = 0.0, 0.0
    for _ in range(50):
        P = rand_psd(rng, 2, jitter=0.01)
        R = float(rng.uniform(1.0, 18.0))
        out = scnm(P, R)
        grid_trace, _ = grid_min_trace(np.linalg.eigvalsh(P), R)
        worst_gap = max(worst_gap,
                        abs(np.trace(out.Q).real - grid_trace) / grid_trace)
        worst_rate = max(worst_rate, abs(achieved_rate_bits(P, out.Q) - R))
        w = rng.uniform(0.3, 3.0, size=2)
        out_w = weighted_scnm(P, R, w)
        worst_rate = max(worst_rate, abs(achieved_rate_bits(P, out_w.Q) - R))
        out_i = wsinm(P, R, rng.uniform(0.1, 1.0, size=2))
        worst_rate = max(worst_rate, abs(achieved_rate_bits(P, out_i.Q) - R))
    assert worst_gap < 1e-3
    assert worst_rate < 1e-6
    print(f"\n[PASS] scnm-optimality: worst trace gap vs grid {worst_gap:.2e} "
          f"(tol 1e-3), worst rate-constraint err {worst_rate:.2e} bits (tol 1e-6)")


def test_wsinm_convergence():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        K = int(rng.integers(1, 5))
        P = rand_psd(rng, K, jitter=0.01)
        base = rng.uniform(0.02, 3.0, size=K)
        out = wsinm(P, float(rng.uniform(0.5, 25.0)), base)
        tr = np.asarray(out.objective_trace)
        assert np.all(np.diff(tr) <= 1e-9 * np.maximum(np.abs(tr[:-1]), 1.0))
        X = base + np.diag(out.Q).real
        bound = float(np.sum(1.0 / LN2 + np.log2(LN2) + np.log2(X)))
        assert tr[-1] >= bound - 1e-9 * max(abs(bound), 1.0)
    # scalar closed form of the per-user weight objective minimum
    for X in (0.037, 1.0, 42.0):
        w_star = 1.0 / (LN2 * X)
        f_star = w_star * X - np.log2(w_star)
        assert abs(f_star - (1.0 / LN2 + np.log2(LN2) + np.log2(X))) < 1e-12
    print("\n[PASS] wsinm-convergence: BCD monotone on 1000 instances, final "
          "objective above closed-form bound, scalar minimum exact to 1e-12")


def _fig_strategies(names):
    return tuple(Strategy.parse(s) for s in names)


def test_figure2_desk_scale():
    base = NetworkConfig(L=12, N=10, K=20, R_T=500.0, tau_c=200)
    spec = ExperimentSpec(
        base=base, sweep="rate", values=(500.0,),
        strategies=_fig_strategies(["sp-ef-wsinm", "sp-lf-wsinm", "tp-ef-wsinm",
                                    "tp-lf-wsinm", "sp-ef-infinite"]),
        trials=200, seed=42)
    rows = run_experiment(spec)
    mean = {r.strategy.label(): r.mean_sum_se for r in rows}
    assert mean["sp-ef-infinite"] > mean["tp-lf-wsinm"]
    assert mean["tp-lf-wsinm"] > mean["tp-ef-wsinm"]
    assert mean["tp-ef-wsinm"] > mean["sp-lf-wsinm"]
    assert mean["sp-lf-wsinm"] >= mean["sp-ef-wsinm"]
    r_lf_tp = mean["tp-lf-wsinm"] / mean["sp-ef-wsinm"]
    r_ef_tp = mean["tp-ef-wsinm"] / mean["sp-ef-wsinm"]
    assert abs(r_lf_tp - 4.61) / 4.61 < 0.20
    assert abs(r_ef_tp - 3.62) / 3.62 < 0.20
    print(f"\n[PASS] figure2-reproduction: LF-TP/EF-SP {r_lf_tp:.2f} "
          f"(target 4.61 +-20%), EF-TP/EF-SP {r_ef_tp:.2f} (target 3.62 +-20%), "
          f"ordering Infinite > LF-TP > EF-TP > LF-SP >= EF-SP holds")


def test_figure3_trend_desk_scale():
    base = NetworkConfig(L=12, N=10, K=20, tau_c=200)
    values = tuple(float(v) for v in range(100, 1001, 100))
    names = ["sp-ef-eiu", "tp-ef-eiu", "sp-lf-wsinm", "tp-lf-wsinm",
             "sp-ef-infinite"]
    spec = ExperimentSpec(base=base, sweep="rate", values=values,
                          strategies=_fig_strategies(names), trials=60, seed=3)
    rows = run_experiment(spec)
    trials = {}
    for r in rows:
        trials[(r.sweep_value, r.strategy.label())] = r.per_trial

    # monotone in R_T within one paired standard error, per strategy
    for name in names[:-1]:
        for lo, hi in zip(values[:-1], values[1:]):
            diff = trials[(hi, name)] - trials[(lo, name)]
            se = diff.std(ddof=1) / np.sqrt(len(diff))
            assert diff.mean() >= -se, (name, lo, hi)

    # TP dominates its SP counterpart at every sweep point
    for sp_name, tp_name in (("sp-ef-eiu", "tp-ef-eiu"),
                             ("sp-lf-wsinm", "tp-lf-wsinm")):
        for v in values:
            diff = trials[(v, tp_name)] - trials[(v, sp_name)]
            se = diff.std(ddof=1) / np.sqrt(len(diff))
            assert diff.mean() > se, (tp_name, v)

    # gap to the infinite-capacity curve shrinks as R_T grows
    for name in names[:-1]:
        gap_lo = np.mean(trials[(values[0], "sp-ef-infinite")]
                         - trials[(values[0], name)])
        gap_hi = np.mean(trials[(values[-1], "sp-ef-infinite")]
                         - trials[(values[-1], name)])
        assert gap_hi < gap_lo, name
    print("\n[PASS] figure3-trend: all curves non-decreasing in R_T (1 paired "
          "stderr), TP above SP everywhere, gap to infinite capacity shrinks")


def test_sinr_monotone_in_compression_noise():
    rng = np.random.default_rng(17)
    checks = 0
    while checks < 100:
        K = int(rng.integers(2, 4))
        L = int(rng.integers(2, 5))
        H = rand_channels(rng, L, 3, K)
        st, ex = run_and_expand(1.0, 0.5, H, "scnm", rng.uniform(3.0, 8.0, size=L))
        before = sinr_chain(st.T, st.C, 1.0)
        assert np.allclose(before, ex.sinr, rtol=1e-9)
        for i in range(L):
            # with the combiners fixed, extra noise dQ at AP i reaches the
            # terminal error covariance as A_i dQ A_i^H
            Qs = [Q.copy() for Q in ex.Qs]
            dQ = rand_psd(rng, K) * rng.uniform(0.01, 1.0)
            Qs[i] = Qs[i] + dQ
            after = sinr_chain(st.T, st.C + ex.A[i] @ dQ @ ex.A[i].conj().T, 1.0)
            assert np.allclose(after, ex.sinr_with(Qs), rtol=1e-9)
            assert np.all(after <= before + 1e-12)
            checks += 1
    print(f"\n[PASS] sinr-monotonicity: {checks} PSD-increment injections, "
          f"no SINR increase")
