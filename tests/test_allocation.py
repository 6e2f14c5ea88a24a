import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import allocation


class TestEqual:
    def test_example(self):
        assert np.allclose(allocation.equal(1000.0, 4), [250.0] * 4)

    def test_fractional(self):
        rates = allocation.equal(500.0, 12)
        assert np.allclose(rates, 500.0 / 12)
        assert rates.sum() == pytest.approx(500.0, abs=1e-9)


class TestLinear:
    def test_twelve_hop_example(self):
        assert np.allclose(allocation.linear(1000.0, 4), [100, 200, 300, 400])

    def test_single_position(self):
        assert np.allclose(allocation.linear(750.0, 1), [750.0])

    def test_strictly_increasing(self):
        assert np.all(np.diff(allocation.linear(333.0, 7)) > 0)


class TestLogarithmic:
    def test_two_positions(self):
        assert np.allclose(allocation.logarithmic(10.0, 2), [0.0, 10.0])

    def test_four_position_proportions(self):
        rates = allocation.logarithmic(1.0, 4)
        denom = 3.0 + np.log2(3.0)
        assert np.allclose(rates, np.array([0.0, 1.0, np.log2(3.0), 2.0]) / denom)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            allocation.logarithmic(10.0, 1)

    def test_non_decreasing(self):
        assert np.all(np.diff(allocation.logarithmic(42.0, 9)) >= 0)


@settings(max_examples=80, deadline=None)
@given(R_T=st.floats(1e-3, 1e6), L=st.integers(1, 64),
       scheme=st.sampled_from(["ef", "lf", "log"]))
def test_budget_conservation(R_T, L, scheme):
    if scheme == "log" and L < 2:
        return
    rates = allocation.schedule(scheme, R_T, L)
    assert rates.sum() == pytest.approx(R_T, rel=1e-9)
    assert np.all(rates >= 0)


def test_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        allocation.equal(0.0, 3)


@pytest.mark.parametrize("scheme", ["ef", "lf", "log"])
@pytest.mark.parametrize("R_T", [np.nan, np.inf, -np.inf, -5.0, True])
def test_rejects_non_finite_or_negative_budget(scheme, R_T):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        allocation.schedule(scheme, R_T, 3)


class TestTwoPathBudget:
    def test_proportional_to_length(self):
        assert allocation.path_budget(500.0, 12, 6) == pytest.approx(250.0)
        assert allocation.path_budget(500.0, 3, 2) == pytest.approx(1000.0 / 3)

    @pytest.mark.parametrize("R_T", [np.nan, np.inf, 0.0, -5.0, True])
    def test_rejects_bad_budget(self, R_T):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            allocation.path_budget(R_T, 4, 2)

    @pytest.mark.parametrize("L_path", [0, 5])
    def test_rejects_path_outside_the_ring(self, L_path):
        with pytest.raises(ValueError):
            allocation.path_budget(500.0, 4, L_path)

    def test_equal_allocation_gives_uniform_per_ap_rate(self):
        # EF within each path must match EF over the single path: R_T / L per AP
        R_T, L = 900.0, 7
        for L_path in (3, 4):
            budget = allocation.path_budget(R_T, L, L_path)
            rates = allocation.equal(budget, L_path)
            assert np.allclose(rates, R_T / L)
