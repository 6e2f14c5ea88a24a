import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf.linalg import (PSD_REL_TOL, PsdError, complex_normal, ensure_psd, herm,
                          herm_solve, sample_cn)

from oracles import complex_randn, rand_psd, rand_unitary


class TestEnsurePsd:
    def test_passes_clean_psd(self, rng):
        P = rand_psd(rng, 3)
        out = ensure_psd(P)
        assert np.allclose(out, herm(P))

    def test_roundoff_negative_passes_unrepaired(self):
        X = np.diag([1.0, -1e-12]).astype(complex)
        out = ensure_psd(X)
        assert np.array_equal(out, herm(X))

    def test_rejects_genuinely_indefinite(self):
        with pytest.raises(PsdError):
            ensure_psd(np.diag([1.0, -1e-3]).astype(complex))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6))
    def test_idempotent_on_random_psd(self, seed, k):
        P = rand_psd(np.random.default_rng(seed), k)
        out = ensure_psd(P)
        assert np.allclose(out, ensure_psd(out))

    def test_rejects_nan(self):
        X = np.eye(3, dtype=complex)
        X[1, 2] = X[2, 1] = np.nan
        with pytest.raises(PsdError):
            ensure_psd(X)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
           rank=st.floats(0.0, 1.0), log_scale=st.floats(-200.0, 200.0))
    def test_random_psd_never_raises(self, seed, k, rank, log_scale):
        # eigenvalues spread over 12 decades, some modes (all, at rank 0)
        # exactly zero
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-12.0, 0.0, k) * (rng.uniform(size=k) < rank)
        U = rand_unitary(rng, k)
        X = 10.0 ** log_scale * ((U * w) @ U.conj().T)
        assert np.array_equal(ensure_psd(X), herm(X))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
           log_excess=st.floats(0.01, 9.0), log_scale=st.floats(-200.0, 200.0))
    def test_indefinite_always_raises(self, seed, k, log_excess, log_scale):
        # lambda_min < -K * PSD_REL_TOL * ||X||_2
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, k)
        w[0] = 1.0
        w[-1] = -k * PSD_REL_TOL * 10.0 ** log_excess
        U = rand_unitary(rng, k)
        X = 10.0 ** log_scale * ((U * w) @ U.conj().T)
        with pytest.raises(PsdError):
            ensure_psd(X)


class TestHermSolve:
    def test_rejects_non_pd(self):
        with pytest.raises(np.linalg.LinAlgError):
            herm_solve(np.diag([1.0, -1.0]).astype(complex), np.ones((2, 1)))

    def test_rejects_nan(self):
        S = 2.0 * np.eye(3, dtype=complex)
        S[0, 2] = S[2, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            herm_solve(S, np.ones((3, 2)))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40), m=st.integers(1, 40))
    def test_matches_scipy_solve(self, seed, k, m):
        rng = np.random.default_rng(seed)
        S = herm(rand_psd(rng, k) + k * np.eye(k))
        B = complex_randn(rng, (k, m))
        ref = sla.solve(S, B, assume_a="pos")
        X = herm_solve(S, B)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_real_input_solved_as_complex(self, rng):
        # only the complex routines are bound: a real S and B are solved on
        # their complex copies, to a complex X
        S = 3.0 * np.eye(4) + rng.uniform(0.0, 0.5, (4, 4))
        S = S + S.T
        B = rng.standard_normal((4, 2))
        X = herm_solve(S, B)
        assert X.dtype == complex
        assert np.array_equal(X, herm_solve(S.astype(complex), B.astype(complex)))

    def test_reads_upper_triangle_only(self, rng):
        # chain.gain and twopath.fuse pass Grams that are not symmetrized:
        # the strict lower triangle and the diagonal's imaginary parts are
        # never read, so junk there leaves the solution bit for bit
        S = herm(rand_psd(rng, 6) + 6.0 * np.eye(6))
        B = complex_randn(rng, (6, 3))
        junk = S + np.tril(complex_randn(rng, (6, 6)), -1)
        junk[np.diag_indices(6)] += 1j * rng.standard_normal(6)
        assert np.array_equal(herm_solve(junk, B), herm_solve(S, B))


class TestSampling:
    def test_complex_normal_unit_variance(self, rng):
        z = complex_normal(rng, 200_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(z.real * z.imag)) < 0.01

    def test_sample_cn_covariance(self, rng):
        Q = rand_psd(rng, 2)
        z = sample_cn(rng, Q, 200_000)
        emp = z @ z.conj().T / z.shape[1]
        assert np.linalg.norm(emp - Q) / np.linalg.norm(Q) < 0.03

    def test_sample_cn_zero_covariance(self, rng):
        z = sample_cn(rng, np.zeros((3, 3), dtype=complex))
        assert np.array_equal(z, np.zeros(3))


# Checks of how seqcf binds LAPACK, each in a fresh interpreter: this one has
# imported scipy.linalg already, through the import at the top of this file.
SRC = Path(__file__).resolve().parents[1] / "src"

SAME_HANDLES = """
import scipy.linalg.lapack as lapack
from seqcf import compression, linalg
got = [linalg._ZPOTRF, linalg._ZPOTRS, compression._ZHEEVD]
want = [lapack.zpotrf, lapack.zpotrs, lapack.zheevd]
assert len(got) == len(want)
assert all(a is b for a, b in zip(got, want)), "not the handles scipy.linalg.lapack hands out"
"""

# with no extension suffix, the finder linalg builds sees no compiled module;
# the import system keeps its own list of suffixes
NO_FLAPACK_FILE = """
from importlib import machinery
suffixes, machinery.EXTENSION_SUFFIXES = machinery.EXTENSION_SUFFIXES, []
import seqcf
machinery.EXTENSION_SUFFIXES = suffixes
assert "scipy.linalg" in sys.modules, "the fallback did not import scipy.linalg"
"""


def run_fresh(code: str) -> None:
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestLapackBinding:
    def test_import_skips_scipy_linalg(self):
        run_fresh('import seqcf\n'
                  'assert "scipy.linalg" not in sys.modules, "seqcf imported scipy.linalg"')

    @pytest.mark.parametrize("first", ["seqcf", "scipy.linalg"])
    def test_handles_are_scipy_lapack(self, first):
        run_fresh(f"import {first}\n" + SAME_HANDLES)

    def test_fallback_binds_the_same_handles(self):
        run_fresh(NO_FLAPACK_FILE + SAME_HANDLES)
