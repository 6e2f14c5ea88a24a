# Fast built-in oracle / invariant checks, runnable without pytest.
from __future__ import annotations

import numpy as np

from . import allocation, compression
from .chain import run_chain
from .linalg import complex_normal


def _check_centralized_equivalence(rng) -> tuple[bool, str]:
    # without compression the chain is the batch LMMSE, in information form
    # C = (I/p + sum_l H_l^H H_l / sigma2)^-1 and T = I - C/p
    p, sigma2, K, L, N = 1.0, 0.5, 3, 3, 2
    H = [complex_normal(rng, (N, K)) for _ in range(L)]
    st = run_chain(p, sigma2, H, "infinite", np.full(L, np.inf))
    C_cen = np.linalg.inv(np.eye(K) / p + sum(H_l.conj().T @ H_l for H_l in H) / sigma2)
    T_cen = np.eye(K) - C_cen / p

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    errs = rel(st.T, T_cen), rel(st.C, C_cen)
    return max(errs) < 1e-8, "T err {:.2e}, C err {:.2e}".format(*errs)


def _check_dead_link_restart(rng) -> tuple[bool, str]:
    # a dead link forwards nothing: the chain after it is a fresh chain over
    # the remaining APs, bit for bit
    p, sigma2, K, L, N = 1.0, 0.3, 3, 4, 2
    H = [complex_normal(rng, (N, K)) for _ in range(L)]
    worst = 0.0
    # dead first link (LOG) and dead mid-chain link
    for strategy, rates in (("eiu", allocation.logarithmic(24.0, L)),
                            ("wsinm", np.array([6.0, 0.0, 6.0, 6.0]))):
        after = int(np.flatnonzero(rates == 0.0)[-1]) + 1
        st = run_chain(p, sigma2, H, strategy, rates)
        fresh = run_chain(p, sigma2, H[after:], strategy, rates[after:])
        worst = max(worst, np.abs(st.T - fresh.T).max(), np.abs(st.C - fresh.C).max())
    return worst == 0.0, f"worst T/C difference to a fresh chain {worst:.2e}"


def _check_rate_equality(rng) -> tuple[bool, str]:
    K = 3
    X = complex_normal(rng, (K, K))
    P = X @ X.conj().T + 0.1 * np.eye(K)
    worst = 0.0
    for R in (2.0, 7.5, 20.0):
        out = compression.scnm(P, R)
        worst = max(worst, abs(compression.achieved_rate_bits(P, out.Q) - R))
        out = compression.wsinm(P, R, np.full(K, 0.4))
        worst = max(worst, abs(compression.achieved_rate_bits(P, out.Q) - R))
    return worst < 1e-6, f"worst rate-constraint error {worst:.2e} bits"


def _check_allocation(rng) -> tuple[bool, str]:
    worst = 0.0
    for L in (1, 4, 12):
        for rates in (allocation.equal(777.0, L), allocation.linear(777.0, L)):
            worst = max(worst, abs(rates.sum() - 777.0))
    worst = max(worst, abs(allocation.logarithmic(777.0, 5).sum() - 777.0))
    return worst < 1e-9, f"worst budget error {worst:.2e} bits"


CHECKS = [
    ("centralized-equivalence", _check_centralized_equivalence),
    ("dead-link-restart", _check_dead_link_restart),
    ("rate-constraint-equality", _check_rate_equality),
    ("budget-conservation", _check_allocation),
]


def run_selftest(seed: int = 0) -> bool:
    """Run the quick invariant checks; prints one line per check."""
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(rng)
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
