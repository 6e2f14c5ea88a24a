import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from seqcf import NetworkConfig, Strategy, allocation
from seqcf.experiment import PATH_MODES, _chains

# the closed forms that each scheme's weights must reproduce bit for bit
CLOSED_FORMS = {"ef": oracles.equal_split, "lf": oracles.linear_split,
                "log": oracles.logarithmic_split}


def chains(path_mode, scheme, L, R_T):
    return _chains(NetworkConfig(L=L, R_T=R_T), Strategy(path_mode, scheme, "eiu"))


class TestEqual:
    def test_example(self):
        assert np.allclose(allocation.schedule("ef", 1000.0, 4), [250.0] * 4)

    def test_fractional(self):
        rates = allocation.schedule("ef", 500.0, 12)
        assert np.allclose(rates, 500.0 / 12)
        assert rates.sum() == pytest.approx(500.0, abs=1e-9)


class TestLinear:
    def test_twelve_hop_example(self):
        assert np.allclose(allocation.schedule("lf", 1000.0, 4), [100, 200, 300, 400])

    def test_single_position(self):
        assert np.allclose(allocation.schedule("lf", 750.0, 1), [750.0])

    @pytest.mark.parametrize("R_T", [9e307, np.finfo(float).max])
    def test_single_position_near_the_largest_float(self, R_T):
        # R_T w / sum(w) never forms 2 R_T: a 1-AP LF chain gets R_T, as EF
        # does, without an overflow
        with np.errstate(all="raise"):
            for scheme in ("ef", "lf"):
                assert np.array_equal(allocation.schedule(scheme, R_T, 1), [R_T])

    def test_strictly_increasing(self):
        assert np.all(np.diff(allocation.schedule("lf", 333.0, 7)) > 0)


class TestLogarithmic:
    def test_two_positions(self):
        assert np.allclose(allocation.schedule("log", 10.0, 2), [0.0, 10.0])

    def test_four_position_proportions(self):
        rates = allocation.schedule("log", 1.0, 4)
        denom = 3.0 + np.log2(3.0)
        assert np.allclose(rates, np.array([0.0, 1.0, np.log2(3.0), 2.0]) / denom)

    def test_rejects_short_chain(self):
        # log2 1 = 0: the one position's weights sum to 0
        with pytest.raises(ValueError, match="weights of a 1-AP chain must sum to more than 0"):
            allocation.schedule("log", 10.0, 1)

    def test_non_decreasing(self):
        assert np.all(np.diff(allocation.schedule("log", 42.0, 9)) >= 0)


class TestSplit:
    def test_proportional_to_weights(self):
        assert np.allclose(allocation.split(600.0, [1.0, 2.0, 3.0]), [100.0, 200.0, 300.0])

    @pytest.mark.parametrize("L", [0, -3])
    def test_rejects_empty_chain(self, L):
        with pytest.raises(ValueError, match="at least one AP"):
            allocation.schedule("ef", 10.0, L)

    @pytest.mark.parametrize("weights", [[0.0], [0.0, 0.0], [np.nan, 1.0]])
    def test_rejects_weights_without_a_positive_sum(self, weights):
        with pytest.raises(ValueError, match="must sum to more than 0"):
            allocation.split(10.0, weights)

    def test_matches_the_closed_forms(self):
        # every scheme, and every chain _chains builds (the whole ring on R_T,
        # or the Two-Path arcs on their budgets), is its closed form
        # bit for bit on L = 1..100, R_T = 1e-13..1e300
        budgets = np.concatenate([np.logspace(-13, 300, 60), [1.0, 500.0, 777.7, 2.0 / 3]])
        for L in range(1, 101):
            for R_T in budgets:
                for scheme, closed in CLOSED_FORMS.items():
                    if scheme == "log" and L < 2:
                        continue
                    assert np.array_equal(allocation.schedule(scheme, R_T, L), closed(R_T, L))
                    modes = PATH_MODES if L >= (4 if scheme == "log" else 2) else ("sp",)
                    for mode in modes:
                        for idx, rates in chains(mode, scheme, L, R_T):
                            budget = (R_T if mode == "sp" else
                                      oracles.path_budget(R_T, L, len(idx)))
                            assert np.array_equal(rates, closed(budget, len(idx)))

    @pytest.mark.parametrize("R_T", [1e308, np.finfo(float).max])
    def test_largest_budgets_split_without_overflow(self, R_T):
        # R_T w would overflow here: the split scales R_T's mantissa instead,
        # so every rate is finite and the rates still sum to R_T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for L in (2, 3, 12, 100):
                for scheme in sorted(allocation.SCHEMES):
                    rates = allocation.schedule(scheme, R_T, L)
                    assert np.all(np.isfinite(rates)) and np.all(rates >= 0)
                    assert (rates / R_T).sum() == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(R_T=st.floats(1e-3, 1e6), L=st.integers(1, 64),
       scheme=st.sampled_from(["ef", "lf", "log"]))
def test_budget_conservation(R_T, L, scheme):
    if scheme == "log" and L < 2:
        return
    rates = allocation.schedule(scheme, R_T, L)
    assert rates.sum() == pytest.approx(R_T, rel=1e-9)
    assert np.all(rates >= 0)


@pytest.mark.parametrize("scheme", sorted(allocation.SCHEMES))
@pytest.mark.parametrize("path_mode", PATH_MODES)
@settings(max_examples=20, deadline=None)
@given(R_T=st.floats(1e-13, 1e300))
def test_chains_conserve_the_budget(path_mode, scheme, R_T):
    # every chain of every ring long enough for the strategy: the rates of
    # all its chains sum to R_T, and none is negative
    for L in range(1, 65):
        shortest = L if path_mode == "sp" else L // 2
        if (path_mode == "tp" and L < 2) or (scheme == "log" and shortest < 2):
            with pytest.raises(ValueError):
                chains(path_mode, scheme, L, R_T)
            continue
        rates = np.concatenate([r for _, r in chains(path_mode, scheme, L, R_T)])
        assert len(rates) == L
        assert rates.sum() == pytest.approx(R_T, rel=1e-12)
        assert np.all(rates >= 0)


def test_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        allocation.schedule("ef", 0.0, 3)


@pytest.mark.parametrize("scheme", ["ef", "lf", "log"])
@pytest.mark.parametrize("R_T", [np.nan, np.inf, -np.inf, -5.0, True])
def test_rejects_non_finite_or_negative_budget(scheme, R_T):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        allocation.schedule(scheme, R_T, 3)


class TestTwoPathBudget:
    # _chains splits R_T over the Two-Path arcs with their lengths as weights
    def test_proportional_to_length(self):
        for L, budgets in ((12, [250.0, 250.0]), (3, [1000.0 / 3, 500.0 / 3])):
            got = [rates.sum() for _, rates in chains("tp", "ef", L, 500.0)]
            assert np.allclose(got, budgets)

    @pytest.mark.parametrize("R_T", [np.nan, np.inf, 0.0, -5.0, True])
    def test_rejects_bad_budget(self, R_T):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            allocation.split(R_T, [2, 2])

    def test_equal_allocation_gives_uniform_per_ap_rate(self):
        # EF within each path must match EF over the single path: R_T / L per AP
        R_T, L = 900.0, 7
        arcs = chains("tp", "ef", L, R_T)
        assert [len(idx) for idx, _ in arcs] == [4, 3]
        for _, rates in arcs:
            assert np.allclose(rates, R_T / L)
