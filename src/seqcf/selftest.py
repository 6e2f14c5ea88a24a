# Fast built-in oracle / invariant checks, runnable without pytest.
from __future__ import annotations

import numpy as np

from . import allocation, compression
from .chain import run_chain
from .linalg import complex_normal


def _check_centralized_equivalence(rng) -> tuple[bool, str]:
    # without compression the chain is the batch LMMSE: same estimate, same
    # effective channel V_cen H and same error covariance (hence same SINR)
    p, sigma2, K, L, N = 1.0, 0.5, 3, 3, 2
    H = [complex_normal(rng, (N, K)) for _ in range(L)]
    s = np.sqrt(p) * complex_normal(rng, K)
    y = [Hl @ s + np.sqrt(sigma2) * complex_normal(rng, N) for Hl in H]
    st = run_chain(p, sigma2, H, y, "infinite", np.full(L, np.inf), rng)
    Hs = np.vstack(H)
    S = p * (Hs @ Hs.conj().T) + sigma2 * np.eye(L * N)
    V_cen = p * np.linalg.solve(S, Hs).conj().T
    C_cen = p * (np.eye(K) - V_cen @ Hs)
    s_cen = V_cen @ np.concatenate(y)

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    errs = rel(st.s_tilde, s_cen), rel(st.T, V_cen @ Hs), rel(st.C, C_cen)
    return max(errs) < 1e-8, "estimate err {:.2e}, T err {:.2e}, C err {:.2e}".format(*errs)


def _check_linearity(rng) -> tuple[bool, str]:
    # the forwarded estimate is linear in y, and its signal part is T s:
    # s_tilde(y = H s + n) - s_tilde(y = n) = T s when both chains replay the
    # same compression-noise draws
    p, sigma2, K, L, N = 1.0, 0.3, 3, 4, 2
    H = [complex_normal(rng, (N, K)) for _ in range(L)]
    s = np.sqrt(p) * complex_normal(rng, K)
    n = [np.sqrt(sigma2) * complex_normal(rng, N) for _ in range(L)]
    y = [Hl @ s + nl for Hl, nl in zip(H, n)]
    worst = 0.0
    # dead first (LOG) and dead mid-chain links restart the chain, T included
    for strategy, rates in (("wsinm", np.full(L, 6.0)),
                            ("eiu", allocation.logarithmic(24.0, L).rates),
                            ("eiu", np.array([6.0, 0.0, 6.0, 6.0]))):
        seed = int(rng.integers(2 ** 32))
        st = run_chain(p, sigma2, H, y, strategy, rates, np.random.default_rng(seed))
        st0 = run_chain(p, sigma2, H, n, strategy, rates, np.random.default_rng(seed))
        Ts = st.T @ s
        worst = max(worst, np.linalg.norm(st.s_tilde - st0.s_tilde - Ts)
                    / np.linalg.norm(Ts))
    return worst < 1e-9, f"worst linearity err {worst:.2e}"


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
        for sched in (allocation.equal(777.0, L), allocation.linear(777.0, L)):
            worst = max(worst, abs(sched.total - 777.0))
    worst = max(worst, abs(allocation.logarithmic(777.0, 5).total - 777.0))
    return worst < 1e-9, f"worst budget error {worst:.2e} bits"


CHECKS = [
    ("centralized-equivalence", _check_centralized_equivalence),
    ("effective-channel-linearity", _check_linearity),
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
