import re

import numpy as np
import pytest

from seqcf import (ExperimentSpec, NetworkConfig, Strategy, dbm_to_watt, emit_csv,
                   parse_config_file, parse_csv, run_experiment)
from seqcf.cli import main
from seqcf.compression import SolverError
from seqcf.config import ConfigError
from seqcf.experiment import CSV_HEADER, ExperimentError, ResultRow

# the default network's p and sigma2, both 90 dB lower: the same SNR
LOW_UNITS = dict(p=dbm_to_watt(-70.0), sigma2=dbm_to_watt(-175.0))


def small_cfg(**kw):
    defaults = dict(L=3, N=2, K=2, tau_c=50, R_T=30.0)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def small_spec(strategies, trials=4, values=(2, 3), sweep="users", seed=11):
    return ExperimentSpec(base=small_cfg(), sweep=sweep, values=tuple(values),
                          strategies=tuple(Strategy.parse(s) for s in strategies),
                          trials=trials, seed=seed)


class TestStrategyParsing:
    def test_parse(self):
        s = Strategy.parse("tp-lf-wsinm")
        assert (s.path_mode, s.allocation, s.compression) == ("tp", "lf", "wsinm")

    @pytest.mark.parametrize("bad", ["sp-ef", "xx-ef-eiu", "sp-yy-eiu",
                                     "sp-ef-zz", "sp-ef-eiu-extra"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            Strategy.parse(bad)


class TestSpecValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            small_spec(["sp-ef-eiu"], seed=-1)

    @pytest.mark.parametrize("kw, message", [
        (dict(trials=2.5), "trials must be an integer, got 2.5"),
        (dict(trials=True), "trials must be an integer, got True"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=np.float64(1.0)), "seed must be an integer"),
    ])
    def test_non_integer_trials_or_seed_rejected(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            small_spec(["sp-ef-eiu"], **kw)

    def test_numpy_integer_trials_and_seed_run(self):
        rows = run_experiment(small_spec(["sp-ef-eiu"], trials=np.int64(2), values=(2,),
                                         seed=np.uint32(11)))
        ref = run_experiment(small_spec(["sp-ef-eiu"], trials=2, values=(2,), seed=11))
        assert np.array_equal(rows[0].per_trial, ref[0].per_trial)

    @pytest.mark.parametrize("L, strategy", [(1, "tp-ef-eiu"), (1, "sp-log-eiu"),
                                             (3, "tp-log-eiu"), (1, "tp-log-wsinm")])
    def test_chain_too_short_rejected(self, L, strategy):
        with pytest.raises(ConfigError, match=strategy):
            ExperimentSpec(base=small_cfg(L=L), sweep="users", values=(2,),
                           strategies=(Strategy.parse("sp-ef-eiu"), Strategy.parse(strategy)),
                           trials=1, seed=0)

    @pytest.mark.parametrize("sweep, values, message", [
        ("users", (2, 0), "sweep value 0: L, N and K must be positive integers"),
        ("users", (2, 50), "sweep value 50: tau_c must exceed tau_p = K"),
        ("users", (2, 2.5), "sweep value 2.5: K must be an integer"),
        ("rate", (30.0, float("nan")), "sweep value nan: R_T must be finite"),
        ("rate", (30.0, -5.0), "sweep value -5.0: R_T must be finite"),
        ("rate", (30.0, float("inf")), "sweep value inf: R_T must be finite"),
        ("users", (2, 3, 2), "sweep value 2 is given twice"),
        ("rate", (30.0, 30), "sweep value 30 is given twice"),
        # NetworkConfig judges a sweep value as any other: no whole float K,
        # no bool on either axis
        ("users", (2.0,), "sweep value 2.0: K must be an integer, got 2.0"),
        ("users", (True,), "sweep value True: K must be an integer, got True"),
        ("rate", (True,), "sweep value True: R_T must be finite and strictly positive"),
    ])
    def test_every_sweep_point_checked(self, sweep, values, message):
        # a bad point is rejected when the spec is built, before any trial
        with pytest.raises(ConfigError, match=message):
            small_spec(["sp-ef-eiu"], values=values, sweep=sweep)

    @pytest.mark.parametrize("L, strategy", [(2, "tp-ef-eiu"), (2, "sp-log-eiu"),
                                             (4, "tp-log-eiu")])
    def test_shortest_chains_run(self, L, strategy):
        spec = ExperimentSpec(base=small_cfg(L=L), sweep="users", values=(2,),
                              strategies=(Strategy.parse(strategy),), trials=1, seed=0)
        assert np.isfinite(run_experiment(spec)[0].mean_sum_se)


class TestRunExperiment:
    def test_row_count(self, tmp_path):
        rows = run_experiment(small_spec(["sp-ef-eiu", "sp-lf-scnm"], values=(2, 3, 4)))
        assert len(rows) == 6

    def test_deterministic_csv(self, tmp_path):
        spec = small_spec(["sp-ef-eiu"], trials=1, values=(2,))
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(spec), str(f1))
        emit_csv(run_experiment(spec), str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_adding_strategies_keeps_existing_results(self):
        a = run_experiment(small_spec(["sp-ef-eiu"]))
        b = run_experiment(small_spec(["sp-ef-eiu", "tp-ef-scnm"]))
        a_vals = a[0].per_trial
        b_vals = [r for r in b if r.strategy.compression == "eiu"][0].per_trial
        assert np.array_equal(a_vals, b_vals)

    def test_infinite_matches_centralized_oracle_on_average(self):
        # no compression: every trial's chain is exactly the batch LMMSE
        import oracles
        from seqcf import metrics
        from seqcf.experiment import _draw_drop
        spec = small_spec(["sp-ef-infinite"], trials=6, values=(2,))
        rows = run_experiment(spec)
        cfg = spec.base
        ses = []
        for t in range(spec.trials):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, t)))
            H = _draw_drop(cfg, rng)
            sinr = oracles.centralized_sinr(H, cfg.p, cfg.sigma2)
            ses.append(metrics.se_from_sinr(sinr, cfg.tau_u, cfg.tau_c).sum_se)
        assert rows[0].mean_sum_se == pytest.approx(np.mean(ses), rel=1e-8)

    def test_failure_threshold(self, monkeypatch):
        import seqcf.experiment as exp

        def boom(*a, **k):
            raise SolverError("solver blew up")

        monkeypatch.setattr(exp, "simulate_trial", boom)
        with pytest.raises(ExperimentError):
            exp.run_experiment(small_spec(["sp-ef-eiu"], trials=3, values=(2,)))

    def test_indefinite_error_cov_fails_one_trial(self, monkeypatch):
        # an indefinite C at one AP of trial 1 raises PsdError: that trial is
        # counted as failed and the others still run, unchanged
        import seqcf.chain
        import seqcf.experiment as exp

        spec = small_spec(["sp-ef-eiu"], trials=3, values=(2,))
        clean = exp.run_experiment(spec)[0]
        real = seqcf.chain.update_error_cov
        calls = []

        def corrupt(C_pre, Q_l):
            calls.append(1)
            if len(calls) == spec.base.L + 1:        # trial 1, first AP
                C_pre = C_pre - 10.0 * np.eye(len(C_pre))
            return real(C_pre, Q_l)

        monkeypatch.setattr(seqcf.chain, "update_error_cov", corrupt)
        monkeypatch.setattr(exp, "MAX_FAILURE_FRAC", 0.5)
        row = exp.run_experiment(spec)[0]
        assert row.trials == 2
        assert np.isnan(row.per_trial[1])
        assert row.per_trial[0] == clean.per_trial[0]
        assert row.per_trial[2] == clean.per_trial[2]

    @pytest.mark.parametrize("allowance", [None, 1.0])
    def test_non_finite_cell_raises(self, monkeypatch, allowance):
        # a sum SE that is not finite is a failed trial, and a cell without a
        # finite one has no mean, whatever the allowance
        import seqcf.experiment as exp

        monkeypatch.setattr(exp, "simulate_trial", lambda *a, **k: np.nan)
        if allowance is not None:
            monkeypatch.setattr(exp, "MAX_FAILURE_FRAC", allowance)
        with pytest.raises(ExperimentError, match="3/3 trials failed"):
            exp.run_experiment(small_spec(["sp-ef-eiu"], trials=3, values=(2,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sum_se_fails_one_trial(self, monkeypatch, bad):
        import seqcf.experiment as exp

        spec = small_spec(["sp-ef-eiu"], trials=3, values=(2,))
        clean = exp.run_experiment(spec)[0]
        real = exp.simulate_trial
        calls = []

        def second_bad(*a, **k):
            calls.append(1)
            return bad if len(calls) == 2 else real(*a, **k)

        monkeypatch.setattr(exp, "simulate_trial", second_bad)
        monkeypatch.setattr(exp, "MAX_FAILURE_FRAC", 0.5)
        row = exp.run_experiment(spec)[0]
        assert row.trials == 2
        assert row.per_trial[0] == clean.per_trial[0]
        assert row.per_trial[2] == clean.per_trial[2]
        assert row.mean_sum_se == np.mean(clean.per_trial[[0, 2]])

    @pytest.mark.parametrize("L,K", [(12, 20), (48, 20), (12, 40), (13, 20)])
    @pytest.mark.parametrize("label", ["sp-ef-infinite", "sp-log-infinite", "tp-lf-infinite"])
    def test_closed_form_infinite_matches_recursion(self, monkeypatch, L, K, label):
        # simulate_trial's closed-form chains give the sum SE of the per-AP
        # compression-free recursion, an EIU chain at infinite rates
        import seqcf.experiment as exp
        from seqcf import draw_channels, place_network, run_chain

        cfg = NetworkConfig(L=L, N=10, K=K)
        rng = np.random.default_rng(100 * L + K)
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        strategy = Strategy.parse(label)
        got = exp.simulate_trial(cfg, strategy, H)
        chains = []

        def recursion(p, s2, H_chain):
            chains.append(len(H_chain))
            return run_chain(p, s2, H_chain, "eiu", np.full(len(H_chain), np.inf))

        monkeypatch.setattr(exp, "centralized", recursion)
        ref = exp.simulate_trial(cfg, strategy, H)
        assert sum(chains) == L and len(chains) == (1 if label[:2] == "sp" else 2)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_sum_se_invariant_to_user_order(self):
        # relabelling the users, the columns of every H_l, permutes every
        # chain statistic and every design's noise alike, so no strategy's
        # sum SE moves beyond round-off
        import seqcf.experiment as exp
        from seqcf import draw_channels, place_network

        cfg = NetworkConfig()
        strategies = [Strategy(pm, alloc, compr) for pm in exp.PATH_MODES
                      for alloc in ("ef", "lf") for compr in exp.COMPRESSIONS]
        worst = 0.0
        for drop in range(4):
            rng = np.random.default_rng(np.random.SeedSequence((42, drop)))
            H = draw_channels(cfg, place_network(cfg, rng), rng).H
            perm = rng.permutation(cfg.K)
            for strategy in strategies:
                ref = exp.simulate_trial(cfg, strategy, H)
                got = exp.simulate_trial(cfg, strategy, [h[:, perm] for h in H])
                worst = max(worst, abs(got - ref) / ref)
        assert worst <= 1e-12

    def test_eiu_beyond_1023_bits_per_user(self):
        # R_T = 250000 over L = 12, K = 20 gives b of about 1042 bits per user,
        # past the largest power of two a float holds: the cell completes and
        # stays at or below the uncompressed chain
        spec = ExperimentSpec(base=NetworkConfig(L=12, N=10, K=20), sweep="rate",
                              values=(250000.0,), trials=1, seed=0,
                              strategies=(Strategy.parse("sp-ef-eiu"),
                                          Strategy.parse("sp-ef-infinite")))
        eiu_row, inf_row = run_experiment(spec)
        assert eiu_row.trials == inf_row.trials == 1
        assert eiu_row.mean_sum_se <= inf_row.mean_sum_se * (1 + 1e-9)

    def test_vector_designs_beyond_1000_bits_per_user(self):
        # at R_T = 250000 linear allocation gives the last APs up to about
        # 1900 bits per user: their rate solves are lossless, the cells
        # complete and stay at or below the uncompressed chain
        spec = ExperimentSpec(base=NetworkConfig(L=12, N=10, K=20), sweep="rate",
                              values=(250000.0,), trials=1, seed=0,
                              strategies=(Strategy.parse("sp-lf-scnm"),
                                          Strategy.parse("tp-lf-wsinm"),
                                          Strategy.parse("sp-ef-infinite")))
        scnm_row, wsinm_row, inf_row = run_experiment(spec)
        assert scnm_row.trials == wsinm_row.trials == inf_row.trials == 1
        assert scnm_row.mean_sum_se <= inf_row.mean_sum_se * (1 + 1e-9)
        assert wsinm_row.mean_sum_se <= inf_row.mean_sum_se * (1 + 1e-9)

    @pytest.mark.parametrize("R_T, overrides, strategies", [
        # about 1042 bits per user on an EIU chain, past the largest power of
        # two a float holds, and about 1900 on the last APs of the LF chains,
        # whose SCNM and WSINM solves are lossless there; the Two-Path fusion
        # meets its most correlated Grams
        pytest.param(250000.0, {}, ("sp-ef-eiu", "sp-lf-scnm", "tp-lf-wsinm"),
                     id="250000"),
        # the default SNR with p and sigma2 both 90 dB lower: about 990 bits
        # per user, whose SCNM and WSINM roots lie near 2^-1023 in these
        # units, below the smallest normal float. SCNM is held to the default
        # units by test_power_unit_changes_nothing; WSINM is only held to
        # finish below centralized here, since its BCD stop reads an
        # objective whose -sum log2 w term shifts with the unit, so its
        # sum SE moves with the unit (ROADMAP item 4)
        pytest.param(237600.0, LOW_UNITS, ("sp-ef-scnm", "sp-lf-scnm", "tp-lf-wsinm"),
                     id="237600-units"),
        # per-AP rates of about 1e-7 to 1e-6 bits, where the rate model's
        # curvature term is largest against the rate tolerance and its hit
        # band narrowest. The compressed sums (1e-55 to 1e-20) are set by
        # round-off, not by the budget; test_small_budget_meets_every_rate
        # holds each AP's rate to its R_l
        pytest.param(1e-5, {}, ("sp-ef-scnm", "sp-lf-scnm", "sp-ef-wsinm", "tp-lf-wsinm"),
                     id="1e-5"),
        # the LOG split gives each chain's first AP no bits, so every chain
        # runs from its second AP: a live EIU, SCNM and WSINM chain after a
        # dead link, and a Two-Path fusion of such chains
        pytest.param(500.0, {}, ("sp-log-eiu", "sp-log-scnm", "sp-log-wsinm", "tp-log-scnm"),
                     id="log-500"),
        # R_T w would overflow the LF split: every link is lossless, so each
        # Single-Path row is centralized LMMSE's and the two Two-Path rows are
        # the same fusion of lossless arcs
        pytest.param(1e308, {}, ("sp-lf-eiu", "sp-lf-wsinm", "tp-lf-scnm", "tp-lf-eiu"),
                     id="1e308"),
        # 20 users on two single-antenna APs, one per arc: each arc's Z loses
        # its noise floor to cancellation, and the fusion's per-path
        # round-off floor keeps its Gram positive definite
        pytest.param(500.0, dict(K=20, N=1, L=2), ("tp-ef-infinite", "tp-lf-wsinm", "tp-ef-scnm"),
                     id="overloaded-arcs"),
    ])
    def test_budget_cell_end_to_end(self, R_T, overrides, strategies):
        # every trial succeeds, and every sum SE is finite, non-negative and at
        # most centralized LMMSE's on the same drop
        rows = run_experiment(ExperimentSpec(
            base=NetworkConfig(**overrides), sweep="rate", values=(R_T,), trials=1, seed=1,
            strategies=tuple(Strategy.parse(s) for s in strategies + ("sp-ef-infinite",))))
        ref = rows[-1].per_trial
        for row in rows:
            assert row.trials == 1, row
            assert np.isfinite(row.per_trial).all(), row
            assert (0 <= row.per_trial).all() and (row.per_trial <= ref * (1 + 1e-9)).all(), row
        if R_T == 1e308:
            sp = [r.per_trial for r in rows if r.strategy.path_mode == "sp"]
            tp = [r.per_trial for r in rows if r.strategy.path_mode == "tp"]
            for se in sp:
                assert np.allclose(se, ref, rtol=1e-12, atol=0.0), (se, ref)
            assert len(tp) == 2 and np.allclose(tp[0], tp[1], rtol=1e-12, atol=0.0), tp

    def test_two_path_when_no_path_forwards_anything(self):
        # at R_T = 1e-13 and 5e-12 every link is dead (rate <= ZERO_RATE_TOL),
        # so neither path forwards anything and the fusion Gram is all zero:
        # every Two-Path trial reads 0, as Single-Path's does
        strategies = ("sp-ef-eiu", "tp-ef-eiu", "tp-lf-scnm", "tp-log-wsinm")
        rows = run_experiment(ExperimentSpec(
            base=NetworkConfig(), sweep="rate", values=(1e-13, 5e-12),
            strategies=tuple(Strategy.parse(s) for s in strategies), trials=1, seed=1))
        assert len(rows) == 8
        for row in rows:
            assert row.trials == 1 and np.array_equal(row.per_trial, [0.0])

    def test_small_budget_meets_every_rate(self):
        # at R_T = 1e-5 the sum SEs (1e-55 to 1e-20) are set by round-off in
        # P, but each AP's rate is set by the budget: every live SCNM and
        # WSINM outcome meets its R_l and every EIU outcome stays within it.
        # EIU's log-det rate of about 1e-6 bits is a difference of two terms
        # near 1e3 nats, so even with its exact noise it may read a few
        # 1e-12 bits over its R_l (up to 3.6e-12 on six default drops)
        import oracles
        from seqcf import draw_channels, place_network
        from seqcf.chain import ZERO_RATE_TOL
        from seqcf.compression import RATE_TOL_BITS
        from seqcf.experiment import _chains

        cfg = NetworkConfig(R_T=1e-5)
        rng = np.random.default_rng(np.random.SeedSequence((1, 0)))
        H = draw_channels(cfg, place_network(cfg, rng), rng).H
        live = 0
        for label in ("sp-ef-scnm", "sp-lf-scnm", "sp-ef-wsinm", "tp-lf-wsinm",
                      "sp-ef-eiu", "tp-lf-eiu"):
            strategy = Strategy.parse(label)
            for idx, rates in _chains(cfg, strategy):
                _, outcomes = oracles.run_recorded(cfg.p, cfg.sigma2, [H[i] for i in idx],
                                                   strategy.compression, rates)
                for R_l, out in zip(rates, outcomes):
                    if R_l <= ZERO_RATE_TOL:
                        continue
                    live += 1
                    if strategy.compression == "eiu":
                        assert out.achieved_rate <= R_l + RATE_TOL_BITS, \
                            (label, R_l, out.achieved_rate)
                    else:
                        assert abs(out.achieved_rate - R_l) <= RATE_TOL_BITS, \
                            (label, R_l, out.achieved_rate)
        assert live == 6 * cfg.L

    def test_programming_error_propagates(self, monkeypatch):
        # only typed numerical failures count as failed trials; a bug stops
        # the run even when it hits fewer trials than the failure allowance
        import seqcf.experiment as exp

        real = exp.simulate_trial
        calls = []

        def buggy(*a, **k):
            calls.append(1)
            if len(calls) == 2:
                raise TypeError("bad argument")
            return real(*a, **k)

        monkeypatch.setattr(exp, "simulate_trial", buggy)
        monkeypatch.setattr(exp, "MAX_FAILURE_FRAC", 1.0)
        with pytest.raises(TypeError):
            exp.run_experiment(small_spec(["sp-ef-eiu"], trials=3, values=(2,)))


    def test_power_unit_changes_nothing(self):
        # the same network with p and sigma2 both 90 dB lower has the same
        # SNR: every per-trial sum SE matches the default units' to 1e-12,
        # also where the SCNM solves meet roots near 1000 bits per mode
        strategies = ("sp-ef-eiu", "sp-ef-scnm", "sp-lf-scnm", "sp-ef-infinite")
        cfg = NetworkConfig()
        rows = [run_experiment(ExperimentSpec(
            base=base, sweep="rate", values=(500.0, 237600.0, 250000.0),
            strategies=tuple(Strategy.parse(s) for s in strategies), trials=2, seed=1))
            for base in (cfg, cfg.replace(**LOW_UNITS))]
        assert len(rows[0]) == len(rows[1]) == 12
        for ref, got in zip(*rows):
            assert (got.sweep_value, got.strategy) == (ref.sweep_value, ref.strategy)
            assert np.allclose(got.per_trial, ref.per_trial, rtol=1e-12, atol=0.0)

class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip(self, tmp_path):
        rows = run_experiment(small_spec(["sp-ef-eiu", "tp-lf-wsinm"], trials=3))
        path = tmp_path / "out.csv"
        emit_csv(rows, str(path))
        back = parse_csv(str(path))
        assert len(back) == len(rows)
        for r, b in zip(rows, back):
            assert b.sweep_value == r.sweep_value
            assert b.strategy == r.strategy
            assert b.mean_sum_se == r.mean_sum_se
            assert b.stderr == r.stderr
            assert (b.trials, b.seed) == (r.trials, r.seed)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([ResultRow(1.0, Strategy("sp", "ef", "eiu"), 2.0, 0.1, 5, 7)] * 2,
                 str(path))
        head, row = path.read_text().splitlines()[:2]
        path.write_text(f"{head}\n\n{row}\n  \n{row}\n\n")
        assert [r.mean_sum_se for r in parse_csv(str(path))] == [2.0, 2.0]

    @pytest.mark.parametrize("line, message", [
        ("1,sp,ef,eiu,2,0.1,5", "not enough values to unpack"),
        ("1,sp,ef,eiu,2,0.1,5,7,9", "too many values to unpack"),
        ("1,sp,ef,eiu,two,0.1,5,7", "could not convert string to float: 'two'"),
        ("1,sp,ef,eiu,2,0.1,5.5,7", "invalid literal for int"),
        ("1,sp,zz,eiu,2,0.1,5,7", "unknown allocation scheme 'zz'"),
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "out.csv"
        path.write_text(f"{CSV_HEADER}\n1,sp,ef,eiu,2,0.1,5,7\n\n{line}\n")
        with pytest.raises(ExperimentError, match=f"^{re.escape(str(path))}:4: malformed row: {re.escape(message)}"):
            parse_csv(str(path))

    def test_byte_order_mark_skipped(self, tmp_path):
        # a result CSV saved back with a UTF-8 byte-order mark, as Windows
        # editors save it, reads as the file without one
        row = "500,tp,lf,wsinm,12.5,0.25,3,7"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{CSV_HEADER}\n{row}\n".encode())
        (back,) = parse_csv(str(path))
        assert back.strategy == Strategy("tp", "lf", "wsinm")
        assert (back.sweep_value, back.mean_sum_se, back.stderr) == (500.0, 12.5, 0.25)
        assert (back.trials, back.seed) == (3, 7)
        out = tmp_path / "out.csv"
        emit_csv([back], str(out))
        assert out.read_text() == f"{CSV_HEADER}\n{row}\n"

    def test_bad_header_names_path(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("sweep,mean\n")
        with pytest.raises(ExperimentError, match=f"^{re.escape(str(path))}:1: unexpected CSV header"):
            parse_csv(str(path))

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([ResultRow(1.0, Strategy("sp", "ef", "eiu"), 2.0, 0.1, 5, 7)],
                 str(path))
        assert b"\r" not in path.read_bytes()


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        f = tmp_path / "net.cfg"
        f.write_text("# overrides\nL = 4\nN = 3\nK = 2\n"
                     "p_dbm = 20\nsigma2_dbm = -85\ntau_c = 100\nR_T = 40\n")
        cfg = parse_config_file(str(f))
        assert (cfg.L, cfg.N, cfg.K) == (4, 3, 2)
        assert cfg.p == pytest.approx(0.1)
        assert cfg.sigma2 == pytest.approx(10 ** (-11.5))

    def test_byte_order_mark_skipped(self, tmp_path):
        # as Windows editors save UTF-8; the first key would read '\ufeffL'
        f = tmp_path / "bom.cfg"
        f.write_bytes(b"\xef\xbb\xbfL = 4\nK = 2\n")
        cfg = parse_config_file(str(f))
        assert (cfg.L, cfg.K) == (4, 2)

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "net.cfg"
        f.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(f))

    @pytest.mark.parametrize("line", ["L = 3.5", "K = abc", "R_T = lots",
                                      "p_dbm = 1e9", "tau_c ="])
    def test_bad_number_rejected_with_line(self, tmp_path, line):
        f = tmp_path / "net.cfg"
        f.write_text(f"# header\n{line}\n")
        with pytest.raises(ConfigError, match=f"{f}:2: "):
            parse_config_file(str(f))

    @pytest.mark.parametrize("line, reason", [
        pytest.param(line, reason, id=line) for line, reason in [
            ("R_T = -1", "R_T must be finite and strictly positive, got -1.0"),
            ("R_T = nan", "R_T must be finite and strictly positive, got nan"),
            ("ap_ring_radius = 0", "ap_ring_radius must be finite and strictly positive, "
                                   "got 0.0"),
            ("ap_ring_radius = -5", "ap_ring_radius must be finite and strictly positive, "
                                    "got -5.0"),
            ("L = 0", "L, N and K must be positive integers")]])
    def test_bad_value_rejected(self, tmp_path, line, reason):
        # every field's own rule is checked at the line that gives it, as
        # NetworkConfig checks it, so the error names that line and key
        f = tmp_path / "net.cfg"
        f.write_text(f"N = 4\n{line}\n")
        key, val = line.split(" = ")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(str(f))
        assert str(exc.value) == f"{f}:2: {key} = {val!r}: {reason}"

    @pytest.mark.parametrize("line, reason", [
        pytest.param(line, reason, id=line) for line, reason in [
            ("p_dbm = 4000", " is out of range"),
            ("p_dbm = nan", ": p must be finite and strictly positive, got nan"),
            ("p_dbm = inf", ": p must be finite and strictly positive, got inf"),
            ("sigma2_dbm = -4000", ": sigma2 must be finite and strictly positive, got 0.0"),
            ("sigma2_dbm = -inf", ": sigma2 must be finite and strictly positive, got 0.0")]])
    def test_bad_dbm_power_rejected_at_its_line(self, tmp_path, line, reason):
        # a power is checked in watts at the line that gives it in dBm, so the
        # error names that line and the key written there
        f = tmp_path / "net.cfg"
        f.write_text(f"L = 4\n{line}\n")
        key, val = line.split(" = ")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(str(f))
        assert str(exc.value) == f"{f}:2: {key} = {val!r}{reason}"

    @pytest.mark.parametrize("text, key", [("K = 5\nK = 10\n", "K"),
                                           ("p_dbm = 20\nL = 4\np_dbm = 10\n", "p_dbm")])
    def test_repeated_key_rejected_with_line(self, tmp_path, text, key):
        # the last value would silently win
        f = tmp_path / "net.cfg"
        f.write_text(text)
        lineno = text.count("\n")
        with pytest.raises(ConfigError, match=f"^{f}:{lineno}: config key '{key}' "
                                              f"is given twice$"):
            parse_config_file(str(f))

    @pytest.mark.parametrize("key", ["trials", "rng_seed"])
    def test_experiment_keys_rejected(self, tmp_path, key):
        # trials and seed belong to the experiment (--trials, --seed)
        f = tmp_path / "net.cfg"
        f.write_text(f"L = 4\n{key} = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(f))


class TestCli:
    def test_sweep_users_smoke(self, tmp_path):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("L = 3\nN = 2\ntau_c = 50\nR_T = 30\n")
        out = tmp_path / "res.csv"
        rc = main(["sweep-users", "--config", str(cfg), "--values", "2,3",
                   "--strategies", "sp-ef-eiu", "--trials", "2", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        rows = parse_csv(str(out))
        assert [r.sweep_value for r in rows] == [2.0, 3.0]

    def test_sweep_rate_smoke(self, tmp_path):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("L = 3\nN = 2\nK = 2\ntau_c = 50\n")
        out = tmp_path / "res.csv"
        rc = main(["sweep-rate", "--config", str(cfg), "--values", "20,40",
                   "--strategies", "tp-lf-scnm", "--trials", "2", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        assert len(parse_csv(str(out))) == 2

    def test_bad_strategy_exits_nonzero(self, tmp_path, capsys):
        rc = main(["sweep-users", "--values", "2", "--strategies", "nope",
                   "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, values", [("sweep-users", "5,abc"),
                                                 ("sweep-users", "5,2.5"),
                                                 ("sweep-rate", "100,x"),
                                                 ("sweep-rate", "100,-5"),
                                                 ("sweep-rate", "nan")])
    def test_bad_sweep_value_exits_nonzero(self, tmp_path, capsys, command, values):
        rc = main([command, "--values", values, "--strategies", "sp-ef-eiu",
                   "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.csv").exists()

    def test_users_sweep_checks_the_config_at_its_first_value(self, tmp_path, capsys):
        # the file's K, or the default K = 20 if it gives none, is not swept
        outs = []
        for text in ("tau_c = 15\n", "tau_c = 15\nK = 2\n"):
            cfg, out = tmp_path / f"net{len(outs)}.cfg", tmp_path / f"res{len(outs)}.csv"
            cfg.write_text(text)
            assert main(["sweep-users", "--config", str(cfg), "--values", "2,5",
                         "--strategies", "sp-ef-eiu", "--trials", "1",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert main(["sweep-users", "--config", str(cfg), "--values", "15,2",
                     "--strategies", "sp-ef-eiu", "--trials", "1",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg} with K = 15: tau_c must exceed tau_p = K\n")
        assert not (tmp_path / "x.csv").exists()

    def test_bad_config_line_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("N = 2\nL = 3.5\n")
        rc = main(["sweep-rate", "--config", str(cfg), "--values", "100",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert f"error: {cfg}:2: L = '3.5' is not a valid integer" in capsys.readouterr().err

    @pytest.mark.parametrize("make, reason", [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"K = 5 # \xe9t\xe9\n"), "not UTF-8 text"),
    ])
    def test_unreadable_config_exits_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                      make, reason):
        import seqcf.cli as cli
        monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("ran"))
        cfg = tmp_path / "net.cfg"
        make(cfg)
        out = tmp_path / "x.csv"
        rc = main(["sweep-rate", "--config", str(cfg), "--values", "100", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}: cannot read config file: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra, config, message", [
        (["--seed", "-1"], "", "error: seed must be non-negative, got -1"),
        (["--strategies", "sp-ef-eiu,tp-log-eiu"], "L = 3\n",
         "error: tp-log-eiu: the allocation weights of a 1-AP chain must sum to more "
         "than 0, got L=3"),
        (["--strategies", "tp-ef-eiu"], "L = 1\n",
         "error: tp-ef-eiu: Two-Path mode needs at least 2 APs, got L=1"),
        (["--strategies", "sp-ef-eiu,tp-ef-eiu,SP-EF-EIU"], "",
         "error: strategy 'sp-ef-eiu' is given twice"),
    ])
    def test_bad_spec_exits_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                             extra, config, message):
        import seqcf.cli as cli
        monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("ran"))
        cfg = tmp_path / "net.cfg"
        cfg.write_text("N = 2\ntau_c = 50\n" + config)
        out = tmp_path / "x.csv"
        rc = main(["sweep-users", "--config", str(cfg), "--values", "2",
                   "--out", str(out)] + extra)
        assert rc == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize("command, values, message", [
        ("sweep-users", "2,0", "error: sweep value 0: L, N and K must be positive integers"),
        ("sweep-users", "2,50", "error: sweep value 50: tau_c must exceed tau_p = K"),
        ("sweep-rate", "100,nan", "error: sweep value nan: R_T must be finite and "
                                  "strictly positive, got nan"),
        ("sweep-users", "2,3,2", "error: sweep value 2 is given twice"),
        ("sweep-rate", "500,500", "error: sweep value 500.0 is given twice"),
    ])
    def test_bad_sweep_point_exits_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                    command, values, message):
        import seqcf.experiment as experiment
        monkeypatch.setattr(experiment, "simulate_trial", lambda *a: pytest.fail("ran"))
        cfg = tmp_path / "net.cfg"
        cfg.write_text("N = 2\ntau_c = 50\n")
        out = tmp_path / "x.csv"
        rc = main([command, "--config", str(cfg), "--values", values,
                   "--strategies", "sp-ef-eiu", "--trials", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    def test_bad_value_of_the_swept_field_exits_before_any_trial(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the file's R_T is replaced by the swept one, but still checked
        import seqcf.cli as cli
        monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("ran"))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("R_T = nan\n")
        out = tmp_path / "x.csv"
        rc = main(["sweep-rate", "--config", str(cfg), "--values", "500",
                   "--strategies", "sp-ef-eiu", "--trials", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: {cfg}:1: R_T = 'nan': R_T must be finite and strictly positive, got nan")
        assert not out.exists()

    def test_unwritable_out_exits_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        import seqcf.cli as cli
        monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("ran"))
        missing = tmp_path / "missing" / "x.csv"
        rc = main(["sweep-users", "--values", "2", "--out", str(missing)])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: --out: directory {missing.parent} does not exist")
        for folder in (str(tmp_path), ""):
            rc = main(["sweep-users", "--values", "2", "--out", folder])
            assert rc == 1
            assert capsys.readouterr().err.strip() == (
                f"error: --out: {folder!r} is not a writable file")

    def test_too_long_out_name_exits_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        # the folder exists and is writable, but the name cannot be made in it
        import seqcf.cli as cli
        monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("ran"))
        out = str(tmp_path / ("x" * 300 + ".csv"))
        rc = main(["sweep-rate", "--values", "500", "--strategies", "sp-ef-eiu",
                   "--trials", "1", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --out: {out!r} is not a writable file\n"

    def test_existing_out_kept_until_written(self, tmp_path, capsys):
        # a failed run leaves an existing output untouched
        out = tmp_path / "x.csv"
        out.write_text("keep\n")
        rc = main(["sweep-users", "--values", "2", "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert out.read_text() == "keep\n"

    def test_default_trials_and_seed(self, tmp_path, monkeypatch):
        import seqcf.cli as cli
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        assert main(["sweep-rate", "--values", "100",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert (specs[0].trials, specs[0].seed, specs[0].sweep) == (200, 1, "rate")

    def test_sweep_axis_is_not_an_option(self, tmp_path):
        # the subcommand fixes the sweep axis; --sweep is an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["sweep-users", "--sweep", "rate", "--values", "100",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_selftest_smoke(self, capsys):
        assert main(["selftest"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_selftest_negative_seed_exits_nonzero(self, capsys, monkeypatch):
        import seqcf.selftest as selftest
        monkeypatch.setattr(selftest, "run_selftest", lambda seed: pytest.fail("ran"))
        assert main(["selftest", "--seed", "-1"]) == 1
        assert capsys.readouterr().err.strip() == "error: seed must be non-negative, got -1"
