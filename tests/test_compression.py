import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import (NetworkConfig, achieved_rate_bits, draw_channels, eiu, place_network,
                   run_chain, schedule, scnm, weighted_scnm, wsinm)
from seqcf import compression as comp
from seqcf.compression import LN2, SolverError
from seqcf.linalg import PSD_REL_TOL, PsdError, check_psd, herm

import oracles
from oracles import (bisect_mode_noises, complex_randn, eigh_mode_covariance,
                     feasible_q_on_constraint, grid_min_trace, rand_psd, rate_bracket,
                     stacked_wsinm)


class TestEiu:
    def test_one_bit_unit_variance(self):
        out = eiu(np.eye(1, dtype=complex), 1.0)
        assert out.Q[0, 0] == pytest.approx(1.0)

    def test_two_bits(self):
        out = eiu(3.0 * np.eye(1, dtype=complex), 2.0)
        assert out.Q[0, 0] == pytest.approx(1.0)

    def test_per_element_bits_sum_to_budget(self, rng):
        K, R = 4, 13.0
        P = rand_psd(rng, K)
        out = eiu(P, R)
        bits = np.log2(np.diag(P).real / np.diag(out.Q).real + 1.0)
        assert bits.sum() == pytest.approx(R, abs=1e-9)
        assert np.allclose(bits, R / K)

    def test_off_diagonals_zero(self, rng):
        out = eiu(rand_psd(rng, 3), 9.0)
        assert np.allclose(out.Q, np.diag(np.diag(out.Q)))

    @pytest.mark.parametrize("R", [0.0, -1.0, -np.inf, np.nan])
    def test_nonpositive_bits_rejected(self, rng, R):
        with pytest.raises(SolverError, match="strictly positive per-user bit budget"):
            eiu(rand_psd(rng, 2), R)

    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    def test_negative_diagonal_judged_in_p_units(self, scale):
        # the package's PSD rule, relative to max P_kk: a -0.1% entry raises
        # and a -5e-11 relative one passes, in any power unit, as in scnm
        bad = scale * np.diag([1e-10, -1e-13]).astype(complex)
        ok = scale * np.diag([0.1, -5e-12]).astype(complex)
        for design in (eiu, scnm):
            with pytest.raises(PsdError):
                design(bad, 8.0)
            assert np.all(np.diag(design(ok, 8.0).Q).real >= 0.0)

    def test_indefinite_p_rejected(self):
        # EIU reads only P's diagonal, which is fine here; the package's PSD
        # rule still rejects the indefinite P (eigenvalues -1 and 3)
        with pytest.raises(PsdError, match="P"):
            eiu(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex), 8.0)

    def test_reported_rate_matches_general_form(self, rng):
        # the diagonal-Q rate equals log2 det(P Q^-1 + I) on Q's support,
        # also when a user with a zero P entry leaves that support; by
        # Hadamard's inequality it stays within the per-entry bit budget
        P = rand_psd(rng, 3)
        P0 = P.copy()
        P0[1, :] = P0[:, 1] = 0.0
        for X in (P, P0):
            out = eiu(X, 12.0)
            assert out.achieved_rate == pytest.approx(achieved_rate_bits(X, out.Q),
                                                      abs=1e-9)
        assert eiu(P, 12.0).achieved_rate <= 12.0 + 1e-9

    def test_rate_formed_on_first_read(self, rng, monkeypatch):
        # only diagnostics read EIU's rate: eiu does not form it, the first
        # read does, once, and gets the float the eager formula gives
        P = rand_psd(rng, 4)
        P[2, :] = P[:, 2] = 0.0
        q = eiu(P, 12.0).noise
        keep = q > comp.RANK_TOL * q.max()
        expected = comp._support_rate_bits(P[np.ix_(keep, keep)], q[keep])
        calls = []
        real = comp._support_rate_bits
        monkeypatch.setattr(comp, "_support_rate_bits",
                            lambda *a: calls.append(1) or real(*a))
        out = eiu(P, 12.0)
        assert calls == []
        assert out.achieved_rate == expected
        assert out.achieved_rate == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("b", [1023.9, 1024.0, 1041.7, 1100.0, 1e4, np.inf])
    def test_beyond_the_float_range_of_two_to_the_b(self, rng, b):
        # 2^b overflows from b = 1024 on, but the noise never forms it: it is
        # P_kk 2^-b / (1 - 2^-b) at every b, subnormal from about 1022 bits on
        # and 0 from about 1100 on and at b = inf. The reported rate never
        # exceeds the budget
        K = 3
        P = rand_psd(rng, K, jitter=0.1)
        pdiag = np.diag(P).real
        out = eiu(P, b * K)
        b = b * K / K                      # the bits eiu sees
        assert np.array_equal(out.noise, pdiag * (2.0 ** -b / -math.expm1(-b * LN2)))
        assert np.all(out.noise >= 0.0)
        assert np.all(np.isfinite(out.Q))
        assert out.achieved_rate <= b * K
        if b >= 1100.0:
            assert not out.noise.any()

    @pytest.mark.parametrize("scale", [1e-200, 1e-6, 1.0, 1e6, 1e200])
    def test_each_entry_carries_its_bits(self, scale):
        # log2(1 + P_kk / q_k) is the budget's b bits to round-off at every b
        # from 5e-14 (a live 1e-12-bit link shared by K = 20 users) to
        # 1023.9, wherever q_k is a normal float: P_kk / (2^b - 1) would
        # cancel in 2^b - 1 at small b, off by 1e-3 relative near b = 1e-13
        P = scale * np.diag([0.3, 1.0, 7.5]).astype(complex)
        pdiag = np.diag(P).real
        for b in np.concatenate([np.geomspace(5e-14, 1023.9, 400), [1e-13, 1e-12, 1.0, 54.0]]):
            out = eiu(P, 3.0 * b)
            b = 3.0 * b / 3.0
            normal = out.noise >= np.finfo(float).tiny
            bits = np.log1p(pdiag[normal] / out.noise[normal]) / LN2
            assert np.all(np.abs(bits - b) <= 1e-15 * b), (b, bits)

    @pytest.mark.parametrize("b", [1100.0, 1e4, np.inf])
    def test_lossless_entries_count_their_bits(self, rng, b):
        # from about 1100 bits per entry every noise is exactly 0: each entry
        # with P_kk > 0 is sent losslessly and counts its b bits, so the rate
        # is the budget, not 0; an entry with P_kk = 0 sends nothing
        K = 3
        P = rand_psd(rng, K, jitter=0.1)
        out = eiu(P, b * K)
        assert not out.noise.any()
        assert out.achieved_rate == b * K
        P[1, :] = P[:, 1] = 0.0
        rate = eiu(P, b * K).achieved_rate
        assert 0.0 < rate <= b * K
        assert rate == (b * K) * (2 / K)


class TestScnm:
    def test_single_mode_closed_form(self):
        P = np.array([[2.5]], dtype=complex)
        for R in (1.0, 3.0, 10.0):
            out = scnm(P, R)
            assert out.Q[0, 0].real == pytest.approx(2.5 / (2.0 ** R - 1.0), rel=1e-8)

    def test_scaled_identity_symmetry(self):
        K, lam, R = 3, 0.7, 6.0
        out = scnm(lam * np.eye(K, dtype=complex), R)
        expected = lam / (2.0 ** (R / K) - 1.0)
        assert np.allclose(out.Q, expected * np.eye(K), rtol=1e-8)

    @pytest.mark.parametrize("c", [1e-160, 1e-300, 1e200])
    def test_scaled_identity_beyond_the_float_range_of_lam_squared(self, c):
        # lam * lam underflows or overflows here; the solve runs on the
        # spectrum scaled by a power of two instead
        ref = scnm(np.eye(2, dtype=complex), 4.0).Q
        out = scnm(c * np.eye(2, dtype=complex), 4.0)
        assert np.abs(out.Q / c - ref).max() <= 1e-15
        assert abs(out.achieved_rate - 4.0) <= comp.RATE_TOL_BITS

    def test_matches_eiu_on_scaled_identity(self):
        K, lam, R = 4, 1.9, 8.0
        q_scnm = scnm(lam * np.eye(K, dtype=complex), R)
        q_eiu = eiu(lam * np.eye(K, dtype=complex), R)
        assert np.allclose(q_scnm.Q, q_eiu.Q, rtol=1e-8)

    def test_rate_constraint_equality(self, rng):
        for _ in range(20):
            P = rand_psd(rng, 3, jitter=0.01)
            R = float(rng.uniform(0.5, 25.0))
            out = scnm(P, R)
            assert abs(achieved_rate_bits(P, out.Q) - R) < 1e-6

    def test_grid_search_oracle_k2(self, rng):
        for _ in range(10):
            P = rand_psd(rng, 2, jitter=0.01)
            lam = np.linalg.eigvalsh(P)
            R = float(rng.uniform(1.0, 15.0))
            out = scnm(P, R)
            grid_trace, _ = grid_min_trace(lam, R)
            assert np.trace(out.Q).real <= grid_trace * (1 + 1e-3)
            assert np.trace(out.Q).real >= grid_trace * (1 - 1e-3)

    def test_beats_random_feasible_points(self, rng):
        # optimality: no random Q on the constraint surface does better
        for K in (2, 3):
            P = rand_psd(rng, K, jitter=0.05)
            R = 6.0
            best = np.trace(scnm(P, R).Q).real
            for _ in range(200):
                Qp = feasible_q_on_constraint(rng, P, R)
                assert best <= np.trace(Qp).real * (1 + 1e-3)

    def test_rank_deficient_null_space_gets_no_noise(self, rng):
        # P with an exact null direction: Q must share it
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        P = np.outer(u, u) * 3.0
        out = scnm(P.astype(complex), 4.0)
        null = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.linalg.norm(out.Q @ null) < 1e-12
        assert out.achieved_rate == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("R", [0.0, -1.0, -np.inf, np.nan])
    def test_nonpositive_rate_rejected(self, rng, R):
        # before any rate solve: a NaN rate would rate every midpoint
        with pytest.raises(SolverError, match="needs R_l > 0"):
            scnm(rand_psd(rng, 2), R)

    def test_rejects_genuinely_indefinite(self):
        with pytest.raises(PsdError):
            scnm(np.diag([1.0, -1e-3]).astype(complex), 4.0)

    def test_roundoff_negative_mode_gets_no_noise(self):
        out = scnm(np.diag([1.0, -1e-12]).astype(complex), 4.0)
        assert out.Q[1, 1] == 0.0
        assert out.Q[0, 0].real == pytest.approx(1.0 / 15.0, rel=1e-8)


def solve_outcome(solve, lam, R):
    """The noises a rate solver returns, or the message of its SolverError."""
    try:
        return solve(lam, R)
    except SolverError as exc:
        return str(exc)


def count_calls(monkeypatch, module, name):
    """Wrap module.<name> so that every call appends to the returned list."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("design", ["eiu", "scnm", "wsinm"])
def test_chain_forms_outcomes_only_as_far_as_read(monkeypatch, design):
    # a chain carries each outcome's noise alone: no design rates its outcome
    # inside run_chain, and EIU forms no dense Q there (EIU's noise is its
    # diagonal q). The first read of each recorded outcome forms them, once,
    # as the eager formulas give them: the rate of the last rate solve's scaled
    # modes (R_l for a lossless one) or EIU's support log-det, and Q, the
    # complex diag(q) for EIU and the noise itself for the others
    cfg = NetworkConfig(L=12, N=10, K=20)
    rng = np.random.default_rng(2026)
    H = draw_channels(cfg, place_network(cfg, rng), rng).H
    real_solve, real_rate = comp._solve_mode_noises, comp._mode_rate
    real_support, real_design = comp._support_rate_bits, getattr(comp, design)
    solves, rated, recorded = [], [], []

    def solve(*a):
        n = len(rated)
        solves.append(real_solve(*a))
        del rated[n:]                # the bisection's own rate evaluations
        return solves[-1]

    def record(P, R_l, *a):
        recorded.append((real_design(P, R_l, *a), P, R_l, solves[-1] if solves else None))
        return recorded[-1][0]

    monkeypatch.setattr(comp, "_solve_mode_noises", solve)
    monkeypatch.setattr(comp, "_mode_rate", lambda *a: rated.append(1) or real_rate(*a))
    support_rated = count_calls(monkeypatch, comp, "_support_rate_bits")
    monkeypatch.setattr(comp, design, record)
    with monkeypatch.context() as mp:
        # WSINM's interference context reads diag(T) and diag(C) with np.diag
        diags = count_calls(mp, np, "diag") if design == "eiu" else []
        run_chain(cfg.p, cfg.sigma2, H, design, schedule("ef", cfg.R_T, cfg.L))
    assert len(recorded) == cfg.L
    assert rated == support_rated == diags == []
    for out, P, R_l, last in recorded:
        if design == "eiu":
            q = out.noise
            assert q.all()           # no entry is sent losslessly at this budget
            keep = q > comp.RANK_TOL * q.max()
            rate = real_support(P[np.ix_(keep, keep)], q[keep])
            Q = np.diag(q).astype(complex)
        else:
            lam, dn = last[2:]
            rate, Q = real_rate(lam, dn) if dn.all() else R_l, out.noise
        assert "Q" not in vars(out) and "achieved_rate" not in vars(out)
        assert out.achieved_rate == rate
        assert out.achieved_rate == rate
        got = out.Q
        assert got.dtype == complex and np.array_equal(got, Q)
        assert out.Q is got
    # each outcome was rated once, by its first read
    assert len(rated) + len(support_rated) == cfg.L


def assert_same_solve(lam, R, mu0=np.nan, rated=(), oracle_rated=()):
    """Check the solve of (lam, R, mu0) against the bisection oracle, with lam
    in the ascending order the solve takes; return the number of calls the
    lists rated and oracle_rated gained during each."""
    lam = np.sort(np.asarray(lam, dtype=float))
    with np.errstate(all="ignore"):
        n = len(rated)
        got = solve_outcome(lambda l, r: comp._solve_mode_noises(l, r, mu0)[0], lam, R)
        n, m = len(rated) - n, len(oracle_rated)
        ref = solve_outcome(bisect_mode_noises, lam, R)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
    return n, len(oracle_rated) - m


def rated_per_solve(monkeypatch, solves):
    """Check each (lam, R, mu0) solve against the bisection oracle and return
    the pairs (mu the solve rated, mu the oracle rated)."""
    rated = count_calls(monkeypatch, comp, "_mode_rate")
    oracle_rated = count_calls(monkeypatch, oracles, "_bisect_rate")
    return [assert_same_solve(lam, R, mu0, rated, oracle_rated) for lam, R, mu0 in solves]


def rated_per_call(monkeypatch):
    """Wrap _solve_mode_noises so that each call appends the number of mu it
    rated (_mode_rate calls) to the returned list."""
    rated = count_calls(monkeypatch, comp, "_mode_rate")
    per_solve, real = [], comp._solve_mode_noises

    def solve(*a):
        before = len(rated)
        out = real(*a)
        per_solve.append(len(rated) - before)
        return out

    monkeypatch.setattr(comp, "_solve_mode_noises", solve)
    return per_solve


def random_solves(seed, n=30):
    rng = np.random.default_rng(seed)
    return [(10.0 ** rng.uniform(-6.0, 3.0, int(rng.integers(1, 30))),
             float(10.0 ** rng.uniform(-2.0, 2.5)), np.nan) for _ in range(n)]


class TestRateSolve:
    # the rate solve must make the plain bisection's every decision, rated or
    # decided by the certified rate model

    @settings(max_examples=400, deadline=None)
    @given(log_lam=st.lists(st.floats(-10.0, 6.0), min_size=1, max_size=40),
           log_R=st.floats(-12.0, np.log10(2000.0)),
           guess=st.one_of(st.sampled_from(["none", "lo", "hi", "zero", "inf"]),
                           st.floats(-3.0, 4.0)))
    def test_matches_scalar_bisection(self, log_lam, log_R, guess):
        # the guess only starts the model's Newton: none (scnm's solve), inside
        # the bracket, at its ends or outside it, the solve is the bisection's;
        # rates below about 1e-8 bits leave no model, and every mu is rated
        lam, R = 10.0 ** np.array(log_lam), 10.0 ** log_R
        with np.errstate(all="ignore"):
            try:
                mu_lo, mu_hi = rate_bracket(lam, R)
            except SolverError:
                mu_lo, mu_hi = 1.0, 2.0
            ends = {"none": np.nan, "lo": mu_lo, "hi": mu_hi, "zero": 0.0, "inf": np.inf}
            t_lo, t_hi = np.log(mu_lo), np.log(mu_hi)
            mu0 = ends[guess] if isinstance(guess, str) else float(
                np.exp(t_lo + guess * (t_hi - t_lo)))
        assert_same_solve(lam, R, mu0)

    def test_bracket_far_below_lam_max(self, monkeypatch):
        # one mode at 19.2, 60 and 61.5 bits: the bracket lies 7, 20 and 21 x8
        # steps below lam.max(). At 60 bits the root is the grid point 8^-20
        # itself, so that solve rates it; the others rate nothing
        lam = np.array([1.0])
        for R, steps in ((19.2, 7), (60.0, 20), (61.5, 21)):
            assert rate_bracket(lam, R)[0] == np.ldexp(1.0, -3 * steps)
        counts = rated_per_solve(monkeypatch, [(lam, R, np.nan) for R in (19.2, 60.0, 61.5)])
        assert [got for got, _ in counts] == [0, 1, 0]

    @pytest.mark.parametrize("j", [-1, 0, 1])
    @pytest.mark.parametrize("guess", [1.0, 0.25, 4.0])
    def test_root_on_a_grid_point(self, monkeypatch, j, guess):
        # R is within RATE_TOL_BITS / 2 of the rate of the grid point
        # lam.max() 8^j, which then lies between the model's outer
        # thresholds: a hit there does not decide the bracket search, which
        # must rate it; mu0 at, below and above the root changes nothing
        solves = []
        for lam in (np.array([2.5]), np.geomspace(3.0, 1e-3, 7), np.full(4, 0.7)):
            root = float(np.ldexp(lam.max(), 3 * j))
            r = comp._mode_rate(lam, comp._mode_noise(lam, root))
            solves += [(lam, r + off * comp.RATE_TOL_BITS, guess * root)
                       for off in (-0.5, 0.0, 0.5)]
        for got, _ in rated_per_solve(monkeypatch, solves):
            assert 1 <= got <= 2

    @pytest.mark.parametrize("K, R", [(1, 2000.0), (3, 1500.0), (1, 150.0), (20, 1900.0)])
    def test_huge_rate(self, K, R):
        # one mode at 2000 bits: its water-filling point lies 2000 binades
        # below it, so it is sent losslessly; the other roots are bisected
        lam = np.geomspace(1.0, 1e-3, K)[::-1]
        assert_same_solve(lam, R)
        d, mu, _, dn = comp._solve_mode_noises(lam, R)
        lossless = (K, R) == (1, 2000.0)
        assert (not d.any() and not dn.any() and mu == 0.0) == lossless
        assert np.all(dn > 0.0) != lossless

    @pytest.mark.parametrize("K, R", [(1, 180.0), (3, 1500.0)])
    def test_beyond_200_midpoints_solves(self, K, R):
        # halving [8^-60, 1] down to a single mode's root at 180 bits, or
        # three modes' at 1500 bits, takes more than 200 midpoints
        lam = np.geomspace(1.0, 1e-3, K)[::-1]
        with np.errstate(all="ignore"):
            d = comp._solve_mode_noises(lam, R)[0]
        assert abs(comp._mode_rate(lam, d) - R) <= comp.RATE_TOL_BITS
        assert_same_solve(lam, R)

    def test_roots_far_below_the_spectrum_are_modelled(self, monkeypatch):
        # roots near 2^-505, 2^-700 and 2^-595, below 2^-500 but inside the
        # model's range of mu for these spectra: each solve rates at most
        # 2 mu, where the plain bisection rates hundreds
        solves = [(np.geomspace(1.0, 1e-3, 3), 1500.0, np.nan),
                  (np.array([1.0]), 700.0, np.nan),
                  (np.geomspace(1e3, 1.0, 10), 6000.0, np.nan)]
        for got, ref in rated_per_solve(monkeypatch, solves):
            assert got <= 2
            assert ref > 500

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_power_of_two_scaling_is_exact(self, e):
        # the solve is scale-free: a spectrum beyond the range in which
        # lam * lam is a normal float gives the noises and multiplier scaled
        # by the same power of two, exactly, and the same scaled modes
        lam = np.geomspace(1e-3, 1.0, 5)
        for R in (0.3, 20.0):
            d, mu, lam_n, dn = comp._solve_mode_noises(np.ldexp(lam, e), R, np.ldexp(0.01, e))
            ref = comp._solve_mode_noises(lam, R)
            assert np.array_equal(d, np.ldexp(ref[0], e)) and mu == np.ldexp(ref[1], e)
            assert np.array_equal(lam_n, ref[2]) and np.array_equal(dn, ref[3])

    @pytest.mark.parametrize("R", [1e-3, 0.7, 6.0, 80.0])
    def test_equal_modes(self, R):
        lam = np.full(5, 0.7)
        assert_same_solve(lam, R)
        d = comp._solve_mode_noises(lam, R)[0]
        assert np.all(d == d[0])
        assert 5 * np.log2(1.0 + 0.7 / d[0]) == pytest.approx(R, abs=1e-9)

    @pytest.mark.parametrize("R", [1e-3, 1.0, 10.0, 30.0])
    def test_single_mode(self, R):
        assert_same_solve(np.array([2.5]), R)

    @pytest.mark.parametrize("estimate", ["low", "high", "geometric", "narrow"])
    def test_poor_estimate_changes_nothing(self, monkeypatch, estimate):
        # a poor guess only starts the model's Newton, which still ends near
        # the root: a guess a factor 8 below the root (low) or above it
        # (high), the bracket's geometric mean, or 1010 binades below
        # lam.max() (narrow), under the floor of the model's range of mu, to
        # which Newton's start is pinned. Every solve returns the bisection's
        # result and rates the mu it rates from no guess
        solves = random_solves(4)
        guesses = []
        with np.errstate(all="ignore"):
            for lam, R, _ in solves:
                root = comp._solve_mode_noises(np.sort(lam), R)[1]
                mu_lo, mu_hi = rate_bracket(lam, R)
                guesses.append({"low": root / 8.0, "high": root * 8.0,
                                "geometric": float(np.sqrt(mu_lo * mu_hi)),
                                "narrow": float(np.ldexp(lam.max(), -1010))}[estimate])
        from_none = rated_per_solve(monkeypatch, solves)
        poor = rated_per_solve(monkeypatch, [(lam, R, mu0) for (lam, R, _), mu0
                                             in zip(solves, guesses)])
        assert poor == from_none

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_estimate_off_inside_the_fences(self, monkeypatch, sign):
        # a guess 2e-8 bits off the root passes Newton's stopping test, so
        # the model is placed about it with one rate and slope evaluation;
        # its thresholds still decide as the root's do: every solve returns
        # the bisection's result and rates the mu it rates from no guess
        solves = random_solves(4)
        guesses = []
        with np.errstate(all="ignore"):
            for lam, R, _ in solves:
                root = comp._solve_mode_noises(np.sort(lam), R)[1]
                g = comp._rate_slope(np.sort(lam).tolist(), root)[1]
                guesses.append(root * np.exp(sign * 2e-8 / g))
        from_none = rated_per_solve(monkeypatch, solves)
        slopes = count_calls(monkeypatch, comp, "_rate_slope")
        off = rated_per_solve(monkeypatch, [(lam, R, mu0) for (lam, R, _), mu0
                                            in zip(solves, guesses)])
        assert off == from_none
        assert len(slopes) == len(solves)

    def test_no_model_rates_every_mu(self, monkeypatch):
        # with no rate model nothing decides a comparison: every solve rates
        # each mu the bisection rates, and returns the bisection's result
        monkeypatch.setattr(comp, "_rate_model", lambda lam, R_l, mu0: None)
        for got, ref in rated_per_solve(monkeypatch, random_solves(3)):
            assert got == ref

    def test_shrunk_model_rates_more(self, monkeypatch):
        # the model's outer thresholds moved out x8 and its hit band emptied
        # decide fewer comparisons: each solve rates at least the mu it rates
        # with the real model, some rate more, and all return the bisection's
        # result
        solves = random_solves(4)
        with_model = [got for got, _ in rated_per_solve(monkeypatch, solves)]
        real = comp._rate_model

        def shrunk(lam, R_l, mu0):
            lo, _, _, hi = real(lam, R_l, mu0)
            return lo / 8.0, np.inf, 0.0, hi * 8.0

        monkeypatch.setattr(comp, "_rate_model", shrunk)
        shrunk_rated = [got for got, _ in rated_per_solve(monkeypatch, solves)]
        assert all(a >= b for a, b in zip(shrunk_rated, with_model))
        assert sum(shrunk_rated) > sum(with_model)

    @settings(max_examples=300, deadline=None)
    @given(log_lam=st.lists(st.floats(-10.0, 6.0), min_size=1, max_size=40),
           log_R=st.floats(-8.0, np.log10(800.0)), log_guess=st.floats(-3.0, 3.0))
    def test_thresholds_hold_at_their_edges(self, log_lam, log_R, log_guess):
        # the computed rate just outside lo and hi, and just inside the hit
        # band, is on the side the model claims; a guess off the root leaves
        # Newton's last point off it too, where the curvature term counts.
        # Below 890 bits no spectrum 54 binades wide is sent losslessly
        lam = np.sort(10.0 ** np.array(log_lam))
        lam = np.ldexp(lam, -np.frexp(lam[-1])[1])
        R, tol = 10.0 ** log_R, comp.RATE_TOL_BITS
        mu0 = float(lam[-1] * 10.0 ** log_guess)
        model = comp._rate_model(lam.tolist(), R, mu0)
        if model is None:
            return
        lo, hit_lo, hit_hi, hi = model

        def rate(mu):
            return comp._mode_rate(lam, comp._mode_noise(lam, mu))

        assert rate(np.nextafter(lo, 0.0)) > R + tol
        assert rate(np.nextafter(hi, np.inf)) < R - tol
        if hit_lo < hit_hi:
            assert abs(rate(np.nextafter(hit_lo, np.inf)) - R) <= tol
            assert abs(rate(np.nextafter(hit_hi, 0.0)) - R) <= tol

    def test_uncertain_midpoints_are_rated(self, monkeypatch):
        # with the rounding bound inflated to half of RATE_TOL_BITS the model
        # still decides every mu far from the root, but its hit band is empty:
        # each solve rates a few mu near the root, and returns the bisection's
        # result
        rated = count_calls(monkeypatch, comp, "_mode_rate")
        for lam, R, _ in random_solves(6, 40):
            K = lam.size
            monkeypatch.setattr(comp, "_EPS", 0.5 * comp.RATE_TOL_BITS / (64.0 * K * (R + K)))
            before = len(rated)
            assert_same_solve(lam, R)
            assert 1 <= len(rated) - before < 10

    @pytest.mark.parametrize("scale", [0, -40, 700])
    def test_iteration_limit_raises(self, monkeypatch, scale):
        # the error gives the bracket the bisection stopped in, in lam's
        # units: scaled back by 2^-scale with lam, its ends' rates lie
        # either side of R
        monkeypatch.setattr(comp, "RATE_MAX_ITER", 3)
        lam = np.ldexp([0.01, 0.3, 1.0], scale)
        with pytest.raises(SolverError, match="did not converge") as err:
            comp._solve_mode_noises(lam, 5.0)
        bracket = re.search(r"mu=\[(.*),(.*)\]", str(err.value)).groups()
        lam1 = np.ldexp(lam, -scale)
        rate = [comp._mode_rate(lam1, comp._mode_noise(lam1, np.ldexp(float(mu), -scale)))
                for mu in bracket]
        assert rate[0] > 5.0 > rate[1]
        assert_same_solve(lam, 5.0)

    def test_few_rate_evaluations_per_solve(self, monkeypatch):
        # on an L=12, N=10, K=20 WSINM chain a solve rates at most 2 mu and
        # fewer than one in ten rate any, where the plain bisection rates ~40;
        # the rate model evaluates the rate and its slope fewer than 3 times
        per_solve = rated_per_call(monkeypatch)
        slopes = count_calls(monkeypatch, comp, "_rate_slope")
        cfg = NetworkConfig(L=12, N=10, K=20)
        rng = np.random.default_rng(7)
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        run_chain(cfg.p, cfg.sigma2, H, "wsinm", schedule("ef", cfg.R_T, cfg.L))
        assert len(per_solve) > cfg.L
        assert max(per_solve) <= 2
        assert sum(n > 0 for n in per_solve) < 0.1 * len(per_solve)
        assert len(slopes) < 3 * len(per_solve)


def smooth_noise(lam):
    # a nonlinear, 1-Lipschitz function of the eigenvalues in place of the
    # rate solve, so that Q compares the eigensolvers alone
    top = lam.max(initial=0.0)
    return lam * top / (lam + top)


def smooth_solve(lam, R_l, mu0):
    # smooth_noise as the rate solve returns it, with lam as its own modes
    d = smooth_noise(lam)
    return d, np.nan, lam, d


class TestEigenSolve:
    # _eigen_solve runs LAPACK zheevd on P's lower triangle; the oracle is
    # numpy's eigh of herm(P)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
           rank=st.floats(0.0, 1.0),
           log_scale=st.one_of(st.sampled_from([-100.0, 100.0]), st.floats(-100.0, 100.0)))
    def test_matches_eigh(self, seed, k, rank, log_scale):
        # eigenvalues over 8 decades, some modes (all, at rank 0) exactly zero
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-8.0, 0.0, k) * (rng.uniform(size=k) < rank)
        U, _ = np.linalg.qr(complex_randn(rng, (k, k)))
        P = herm(10.0 ** log_scale * ((U * w) @ U.conj().T))
        lam_ref, Q_ref = eigh_mode_covariance(P, smooth_noise)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(comp, "_solve_mode_noises", smooth_solve)
            solve = comp._eigen_solve(P, 1.0, np.nan)
        lam = solve[4]
        assert lam.shape == lam_ref.shape
        if lam.size:
            assert np.abs(lam - lam_ref).max() <= 1e-12 * lam_ref[-1]
        Q = comp._outcome(1.0, solve).Q
        assert np.linalg.norm(Q - Q_ref) <= 1e-10 * np.linalg.norm(Q_ref)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
           log_spread=st.floats(0.0, 30.0))
    def test_weighted_p_exactly_hermitian(self, seed, k, log_spread):
        # wsinm hands zheevd P * outer(ws, ws) without symmetrizing it
        rng = np.random.default_rng(seed)
        P = herm(complex_randn(rng, (k, k)))
        ws = np.sqrt(10.0 ** rng.uniform(-log_spread, log_spread, k))
        W = P * np.outer(ws, ws)
        assert np.array_equal(W, W.conj().T)

    def test_zheevd_failure_raises(self, monkeypatch):
        monkeypatch.setattr(comp, "_ZHEEVD", lambda P, lower: (np.ones(2), np.eye(2), 1))
        with pytest.raises(np.linalg.LinAlgError, match="zheevd"):
            scnm(np.eye(2, dtype=complex), 4.0)


class TestLosslessSolve:
    # a water-filling point below the rate model's floor, 2^-_SPAN_BINADES /
    # lam.min() on the scaled spectrum (about 1000 bits per mode), is not
    # bisected: both designs send every mode losslessly, Q = 0 at rate R_l,
    # as EIU does at b = inf

    @pytest.mark.parametrize("design", ["scnm", "wsinm"])
    @pytest.mark.parametrize("b", [1000.0, 1023.0, 1100.0, 1e4, np.inf])
    def test_beyond_1000_bits_per_mode(self, rng, design, b):
        K = 5
        P = rand_psd(rng, K)
        base = rng.uniform(0.5, 2.0, K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = scnm(P, K * b) if design == "scnm" else wsinm(P, K * b, base)
        assert not out.Q.any()
        assert out.achieved_rate == K * b

    def test_threshold(self, rng, monkeypatch):
        # the water-filling point half a binade above the floor is bisected,
        # to the plain bisection's noises bit for bit; half a binade below it,
        # no rate model or bisection runs and every noise is 0, as the
        # oracle's. The floor lies at R = sum_k log2 lam_k + K (1000 + log2 lam_min)
        K = 5
        P = rand_psd(rng, K)
        lam = comp._eigen_solve(P, 1.0, np.nan)[4]
        offset = float(np.log2(lam).sum()) + K * float(np.log2(lam[0]))
        models = count_calls(monkeypatch, comp, "_rate_model")
        R = K * 999.5 + offset
        dn = comp._eigen_solve(P, R, np.nan)[5]
        assert len(models) == 1
        assert np.array_equal(dn, bisect_mode_noises(lam, R))
        assert np.all(dn > 0.0) and abs(comp._mode_rate(lam, dn) - R) <= comp.RATE_TOL_BITS
        R = K * 1000.5 + offset
        d, mu, _, dn = comp._eigen_solve(P, R, np.nan)[2:]
        assert len(models) == 1
        assert np.array_equal(d, np.zeros(K)) and np.array_equal(dn, np.zeros(K)) and mu == 0.0
        assert np.array_equal(dn, bisect_mode_noises(lam, R))


class TestScaleFreeSolve:
    # the rate solve runs on the spectrum scaled to lam.max() in [1/2, 1):
    # its roots stay normal floats down to the lossless depth, whatever the
    # unit of power, so no solve raises or warns near 1000 bits per mode

    BITS = (900.0, 950.0, 970.0, 980.0, 990.0, 995.0, 999.0, 1005.0, 1100.0)

    @staticmethod
    def stress_family():
        # 300 spectra: K 1-5, lam.max() 2^-60 to 2^60, up to 40 binades wide;
        # yields (P, base, R) for each at every b in BITS
        rng = np.random.default_rng(2026)
        for _ in range(300):
            K = int(rng.integers(1, 6))
            lam = 2.0 ** (rng.uniform(-60.0, 60.0) - np.r_[0.0, rng.uniform(0.0, 40.0, K - 1)])
            U = oracles.rand_unitary(rng, K)
            P = herm((U * lam) @ U.conj().T)
            base = lam.max() * rng.uniform(0.5, 2.0, K)
            for b in TestScaleFreeSolve.BITS:
                yield P, base, K * b

    def test_random_spectra_near_the_lossless_depth(self):
        for P, base, R in self.stress_family():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outs = scnm(P, R), wsinm(P, R, base)
            for out in outs:
                assert abs(out.achieved_rate - R) <= 1e-6

    def test_no_solve_rates_more_than_two_mu(self, monkeypatch):
        # every root the solve bisects lies inside the rate model's range, so
        # no solve of the stress family rates mu by mu
        per_solve = rated_per_call(monkeypatch)
        for P, base, R in self.stress_family():
            scnm(P, R), wsinm(P, R, base)
        assert len(per_solve) > 2 * 300 * len(self.BITS)
        assert max(per_solve) <= 2

    @pytest.mark.parametrize("e", [-33, -22, -10, 0, 40])
    def test_single_mode_from_900_to_1200_bits(self, e):
        # one mode at 2^e, 1/2 once scaled: its water-filling point 2^-(b + 1)
        # lies below the floor 2^-999 iff b > 998, so every such b is lossless
        # and every b up to it is bisected; the oracle agrees from 990 bits on
        lam = np.array([np.ldexp(1.0, e)])
        for b in np.linspace(900.0, 1200.0, 401):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d, mu, lam_n, dn = comp._solve_mode_noises(lam, b)
            if b > 998.0:
                assert not d.any() and not dn.any() and mu == 0.0
            else:
                assert dn[0] > 0.0 and abs(comp._mode_rate(lam_n, dn) - b) <= comp.RATE_TOL_BITS
            if b >= 990.0:
                assert np.array_equal(d, bisect_mode_noises(lam, b))


class TestNonFiniteP:
    @pytest.mark.parametrize("design", ["eiu", "scnm", "wsinm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (2, 0)])
    def test_rejected(self, rng, design, bad, where):
        P = rand_psd(rng, 4, jitter=0.1)
        i, j = where
        P[i, j] = P[j, i] = bad
        solve = {"eiu": lambda: eiu(P, 8.0), "scnm": lambda: scnm(P, 4.0),
                 "wsinm": lambda: wsinm(P, 4.0, np.ones(4))}[design]
        with np.errstate(all="ignore"), pytest.raises((PsdError, np.linalg.LinAlgError)):
            solve()


class TestOnePsdRule:
    # every design judges its P by the package's one rule, check_psd: a
    # Cholesky shift of PSD_REL_TOL max(P_kk), stricter than a spectrum
    # bound of PSD_REL_TOL ||P||_2, which allows up to K times more. No
    # eigensolve judges P or its weighted form again

    @staticmethod
    def spectrum_only_psd():
        """ones(20, 20) - 5e-10 u u^H, u = (e_0 - e_1) / sqrt(2): spectrum
        -5e-10 ... 20 with max P_kk = 1, PSD by the spectrum rule only."""
        u = np.zeros(20)
        u[:2] = (1.0, -1.0)
        u /= np.sqrt(2.0)
        return (np.ones((20, 20)) - 5e-10 * np.outer(u, u)).astype(complex)

    @pytest.mark.parametrize("design", ["scnm", "weighted_scnm", "wsinm"])
    def test_vector_wise_designs_apply_the_cholesky_rule(self, design):
        P = self.spectrum_only_psd()
        w = np.linalg.eigvalsh(P)
        assert w[0] == pytest.approx(-5e-10, rel=1e-3) and w[-1] == pytest.approx(20.0)
        assert w[0] >= -PSD_REL_TOL * w[-1]
        solve = {"scnm": lambda: scnm(P, 40.0),
                 "weighted_scnm": lambda: weighted_scnm(P, 40.0, np.ones(20)),
                 "wsinm": lambda: wsinm(P, 40.0, np.ones(20))}[design]
        with pytest.raises(PsdError, match="P is not PSD"):
            solve()

    @pytest.mark.parametrize("design, weighting", [("weighted_scnm", [1.0, 1e8]),
                                                   ("wsinm", [1.0, 1e-9])])
    def test_weighting_keeps_a_round_off_negative_mode(self, design, weighting):
        # P passes check_psd, and its -5e-11 mode, weighted to -5e-3 of the
        # largest by weighted_scnm's weights, or to about -5e-2 by the weights
        # 1 / (ln2 X) that wsinm forms from its interference base, gets no
        # noise; the kept mode meets R_l
        P = np.diag([1.0, -5e-11]).astype(complex)
        check_psd(P)
        out = (weighted_scnm if design == "weighted_scnm" else wsinm)(P, 4.0, weighting)
        assert abs(out.achieved_rate - 4.0) <= comp.RATE_TOL_BITS
        assert abs(achieved_rate_bits(P, out.Q) - 4.0) <= comp.RATE_TOL_BITS
        assert not out.Q[1].any() and not out.Q[:, 1].any()
        assert out.Q[0, 0].real > 0.0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 20),
           frac=st.floats(0.0, 0.5), R=st.floats(0.5, 40.0))
    def test_weights_raise_no_psd_error_once_p_passes(self, seed, k, frac, R):
        # a random PSD block and one negative mode inside the Cholesky shift,
        # on a random coordinate, with weights spread over 1e-8 ... 1e8; a
        # large weight on that coordinate takes the weighted negative mode far
        # beyond PSD_REL_TOL of the largest, and the solve still meets R_l
        rng = np.random.default_rng(seed)
        P = np.zeros((k, k), dtype=complex)
        P[1:, 1:] = rand_psd(rng, k - 1)
        P[0, 0] = -frac * PSD_REL_TOL * P.diagonal().real.max()
        perm = rng.permutation(k)
        P = P[np.ix_(perm, perm)]
        check_psd(P)
        weights = 10.0 ** rng.uniform(-8.0, 8.0, k)
        out = weighted_scnm(P, R, weights)
        assert abs(out.achieved_rate - R) <= comp.RATE_TOL_BITS

    def test_integer_p_accepted(self):
        # the check runs on a complex copy of an integer P
        P = np.diag([1, 4])
        assert np.array_equal(eiu(P, 2.0).noise, [1.0, 4.0])
        assert scnm(P, 2.0).achieved_rate == pytest.approx(2.0, abs=1e-9)


class TestWeightedScnm:
    def test_unit_weights_reduce_to_scnm(self, rng):
        P = rand_psd(rng, 3, jitter=0.01)
        a = weighted_scnm(P, 7.0, np.ones(3))
        b = scnm(P, 7.0)
        # one solve: unit weights scale P and the modes by exactly 1
        assert np.array_equal(a.Q, b.Q)
        assert a.achieved_rate == b.achieved_rate

    def test_rate_invariant_under_congruence(self, rng):
        for _ in range(10):
            P = rand_psd(rng, 3, jitter=0.01)
            w = rng.uniform(0.2, 5.0, size=3)
            R = float(rng.uniform(1.0, 20.0))
            out = weighted_scnm(P, R, w)
            assert abs(achieved_rate_bits(P, out.Q) - R) < 1e-6

    def test_grid_search_oracle_weighted(self, rng):
        w = np.array([1.0, 4.0])
        for _ in range(10):
            P = rand_psd(rng, 2, jitter=0.01)
            R = float(rng.uniform(1.0, 12.0))
            out = weighted_scnm(P, R, w)
            wtrace = float(w @ np.diag(out.Q).real)
            ws = np.sqrt(w)
            Pbar = (ws[:, None] * P) * ws[None, :]
            lam = np.linalg.eigvalsh(0.5 * (Pbar + Pbar.conj().T))
            grid_trace, _ = grid_min_trace(lam, R)
            assert wtrace == pytest.approx(grid_trace, rel=1e-3)

    def test_nonpositive_weight_rejected(self, rng):
        with pytest.raises(SolverError):
            weighted_scnm(rand_psd(rng, 2), 5.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("w", [[np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [-np.inf, 1.0, 1.0],
                                   [1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], 2.0],
                             ids=["nan", "inf", "-inf", "two", "four", "row", "scalar"])
    def test_bad_weights_rejected_at_entry(self, w):
        # a non-finite weight would reach zheevd, and a weight per user too
        # few or too many numpy's broadcasting: each is the design's own error
        with pytest.raises(SolverError, match="one finite, strictly positive value per user"):
            weighted_scnm(np.diag([1.0, 2.0, 3.0]).astype(complex), 3.0, np.array(w))


class TestWsinm:
    def test_symmetric_fixed_point(self):
        K, lam, R = 3, 1.2, 6.0
        out = wsinm(lam * np.eye(K, dtype=complex), R, np.full(K, 0.8))
        expected = lam / (2.0 ** (R / K) - 1.0)
        assert np.allclose(out.Q, expected * np.eye(K), rtol=1e-8)
        assert np.allclose(out.weights, out.weights[0])

    def test_objective_trace_non_increasing(self, rng):
        for _ in range(30):
            K = int(rng.integers(2, 5))
            P = rand_psd(rng, K, jitter=0.01)
            base = rng.uniform(0.05, 2.0, size=K)
            out = wsinm(P, float(rng.uniform(1.0, 20.0)), base)
            diffs = np.diff(out.objective_trace)
            assert np.all(diffs <= 1e-9 * np.maximum(np.abs(out.objective_trace[:-1]), 1.0))

    def test_final_objective_meets_lower_bound(self, rng):
        for _ in range(20):
            K = 3
            P = rand_psd(rng, K, jitter=0.01)
            base = rng.uniform(0.05, 2.0, size=K)
            out = wsinm(P, 8.0, base)
            X = base + np.diag(out.Q).real
            bound = np.sum(1.0 / LN2 + np.log2(LN2) + np.log2(X))
            assert out.objective_trace[-1] >= bound - 1e-9

    def test_weight_fixed_point_self_consistency(self, rng):
        P = rand_psd(rng, 3, jitter=0.01)
        base = np.array([0.3, 0.7, 1.1])
        out = wsinm(P, 10.0, base)
        X = base + np.diag(out.Q).real
        w_re = 1.0 / (LN2 * X)
        assert np.allclose(w_re, out.weights, rtol=1e-6)

    def test_zero_interference_rejected(self, rng):
        # also a negative or non-finite base: the weights are 1 / (ln2 X) with
        # X >= base, so the base is what keeps them positive and finite; and a
        # base that is not one value per user, which numpy would broadcast
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(SolverError):
                wsinm(rand_psd(rng, 2), 5.0, np.array([bad, 1.0]))
        for base in (0.4, np.ones(1), np.ones(2), np.ones(4), np.ones((1, 3))):
            with pytest.raises(SolverError, match="one finite, strictly positive value per user"):
                wsinm(rand_psd(rng, 3), 3.0, base)

    @pytest.mark.parametrize("R", [0.0, -1.0, -np.inf, np.nan])
    def test_nonpositive_rate_rejected(self, rng, R):
        with pytest.raises(SolverError, match="needs R_l > 0"):
            wsinm(rand_psd(rng, 2), R, np.ones(2))

    def test_reports_iterations(self, rng):
        out = wsinm(rand_psd(rng, 2, jitter=0.01), 5.0, np.array([0.5, 0.9]))
        assert 1 <= out.bcd_iters <= 100


def assert_same_bcd(P, R, base):
    # wsinm forms only diag Q per iteration and warm-starts each rate solve;
    # the oracle forms the full weighted SCNM every iteration
    got, ref = wsinm(P, R, base), stacked_wsinm(P, R, base)
    assert got.bcd_iters == ref.bcd_iters
    assert np.linalg.norm(got.Q - ref.Q) <= 1e-12 * np.linalg.norm(ref.Q)
    assert np.allclose(got.weights, ref.weights, rtol=1e-12, atol=0.0)
    assert np.allclose(got.objective_trace, ref.objective_trace, rtol=1e-12, atol=0.0)
    assert abs(got.achieved_rate - R) <= comp.RATE_TOL_BITS
    assert got.achieved_rate == pytest.approx(achieved_rate_bits(P, got.Q), abs=1e-6)


class TestWsinmMatchesStackedBcd:
    def test_fig2_chain(self, monkeypatch):
        # every WSINM solve of an L=12, N=10, K=20 chain, on its own P and base
        cfg = NetworkConfig(L=12, N=10, K=20)
        rng = np.random.default_rng(5)
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        seen = []
        real = comp.wsinm
        monkeypatch.setattr(comp, "wsinm",
                            lambda P, R, b: seen.append((P, R, b)) or real(P, R, b))
        run_chain(cfg.p, cfg.sigma2, H, "wsinm", schedule("ef", cfg.R_T, cfg.L))
        assert len(seen) == cfg.L
        for P, R, base in seen:
            assert_same_bcd(P, R, base)

    def test_random_small_instances(self, rng):
        for _ in range(40):
            K = int(rng.integers(1, 7))
            P = rand_psd(rng, K, jitter=float(rng.choice([0.0, 0.01])))
            base = 10.0 ** rng.uniform(-3.0, 1.0, size=K)
            assert_same_bcd(P, float(10.0 ** rng.uniform(-1.0, 1.5)), base)

    def test_rank_deficient(self, rng):
        # a null direction of P stays out of every iteration's support
        X = complex_randn(rng, (4, 2))
        assert_same_bcd(herm(X @ X.conj().T), 6.0, np.full(4, 0.2))


class TestAppendixScalarBound:
    # f(w) = w X - log2 w has minimizer 1/(ln2 X) and a closed-form minimum

    def test_closed_form_minimum(self):
        for X in (0.01, 0.5, 3.0, 250.0):
            w_star = 1.0 / (LN2 * X)
            f_star = w_star * X - np.log2(w_star)
            assert f_star == pytest.approx(1.0 / LN2 + np.log2(LN2) + np.log2(X),
                                           abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(X=st.floats(1e-6, 1e6), logw=st.floats(-20, 20))
    def test_minimum_dominates_log_grid(self, X, logw):
        w = 2.0 ** logw
        w_star = 1.0 / (LN2 * X)
        f = w * X - np.log2(w)
        f_star = w_star * X - np.log2(w_star)
        assert f >= f_star - 1e-9 * max(abs(f_star), 1.0)
