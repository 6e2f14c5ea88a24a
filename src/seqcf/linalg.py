# Small Hermitian/PSD helpers shared by the chain and compression code, and
# the package's LAPACK handles: the one module that imports scipy.
from __future__ import annotations

import math
import os
import sys
from importlib import machinery, util

import numpy as np
import scipy

# check_psd allows round-off down to -PSD_REL_TOL times the largest diagonal entry
PSD_REL_TOL = 1e-10


class PsdError(RuntimeError):
    """A matrix that should be PSD is indefinite beyond round-off, or not finite."""


def herm(X: np.ndarray) -> np.ndarray:
    """Symmetrize against floating-point drift: (X + X^H) / 2, in C order."""
    Y = X.T.copy()                 # X^T in C order, conjugated in place: X^H
    np.conjugate(Y, out=Y)
    Y += X
    # halved as reals: the complex product by 0.5 + 0j gives the same finite
    # values, at twice the cost
    R = Y.view(Y.real.dtype)
    R *= 0.5
    return Y


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the module scipy.linalg.lapack hands
    out, loaded without scipy.linalg's package init (most of a cold import).

    The package root has set up the shared-library path; a module already
    imported is reused, and one not found beside scipy/linalg is imported the
    usual way.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    finder = machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.__file__), "linalg"),
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        from scipy.linalg import _flapack
        return _flapack
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# complex LAPACK handles, bound once: Cholesky factor and solve, and the
# divide-and-conquer Hermitian eigensolver
_FLAPACK = _load_flapack()
_ZPOTRF, _ZPOTRS, _ZHEEVD = _FLAPACK.zpotrf, _FLAPACK.zpotrs, _FLAPACK.zheevd


def _cholesky(X: np.ndarray, overwrite: bool = False) -> tuple:
    """Upper Cholesky factor c of Hermitian X, as complex, and whether X is
    finite and PD. With overwrite, a complex Fortran-ordered X is factored in
    place; any other X is first copied as one."""
    c, info = _ZPOTRF(X, overwrite_a=overwrite, clean=False)
    # OpenBLAS's potrf lets NaN through with info 0; it leaves the diagonal's
    # sum NaN (summed as Python numbers: fewer numpy calls than c.trace())
    return c, info == 0 and math.isfinite(sum(c.diagonal().tolist()).real)


def check_psd(X: np.ndarray, name: str = "matrix") -> None:
    """Raise PsdError unless Hermitian X is PSD up to round-off: one Cholesky
    factorization of X + PSD_REL_TOL max(diag X) I, which reads X's upper
    triangle and fails on a non-finite or genuinely indefinite X. This is the
    package's one PSD rule; an integer or real X is judged on its complex copy."""
    shifted = np.array(X, dtype=complex, order="F")
    shift = PSD_REL_TOL * max(np.maximum.reduce(X.diagonal().real), 1e-300)
    shifted.ravel(order="F")[::len(X) + 1] += shift    # a view of the diagonal
    if not _cholesky(shifted, overwrite=True)[1]:
        raise PsdError(f"{name} is not PSD (diagonal shift {shift:.3e})")


def ensure_psd(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Symmetrize X and check it is PSD up to round-off (else PsdError); no repair."""
    X = herm(X)
    check_psd(X, name)
    return X


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard circularly symmetric complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def sample_cn(rng: np.random.Generator, Q: np.ndarray, n: int | None = None) -> np.ndarray:
    """Draw from CN(0, Q) via a Hermitian square-root factor of Q.

    Returns shape (K,) for n=None, else (K, n).
    """
    K = Q.shape[0]
    w, U = np.linalg.eigh(herm(Q))
    F = U * np.sqrt(np.clip(w, 0.0, None))
    z = complex_normal(rng, K if n is None else (K, n))
    return F @ z


def herm_solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve S X = B for Hermitian PD S by LAPACK zpotrf + zpotrs, which read
    S's upper triangle only; LinAlgError if not PD. X is complex, also for a
    real S and B. Neither S nor B is overwritten."""
    c, ok = _cholesky(S)
    if not ok:
        raise np.linalg.LinAlgError("matrix is not finite and positive definite")
    return _ZPOTRS(c, B)[0]
