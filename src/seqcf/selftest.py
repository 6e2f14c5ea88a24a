# Fast built-in oracle / invariant checks, runnable without pytest.
from __future__ import annotations

import numpy as np

from . import allocation, compression
from .chain import centralized, run_chain
from .linalg import complex_normal, herm
from .twopath import split_paths


def _check_centralized_equivalence(rng) -> tuple[bool, str]:
    # without compression (EIU at infinite rates adds exactly zero noise) the
    # per-AP recursion is the batch LMMSE that chain.centralized computes in
    # closed form; on more users than antennas per AP (K > N) and on fewer
    # (K < N), the two regimes of the gain's K x N factor
    p, sigma2, L = 1.0, 0.5, 3

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    errs = []
    for K, N in ((3, 2), (2, 3)):
        H = [complex_normal(rng, (N, K)) for _ in range(L)]
        st = run_chain(p, sigma2, H, "eiu", np.full(L, np.inf))
        cen = centralized(p, sigma2, H)
        errs.append((rel(st.T, cen.T), rel(st.C, cen.C)))
    worst = np.max(errs, axis=0)
    return worst.max() < 1e-8, "worst T err {:.2e}, C err {:.2e} (K > N, K < N)".format(*worst)


def _check_dead_link_restart(rng) -> tuple[bool, str]:
    # a dead link forwards nothing: the chain after it is a fresh chain over
    # the remaining APs, bit for bit
    p, sigma2, K, L, N = 1.0, 0.3, 3, 4, 2
    H = [complex_normal(rng, (N, K)) for _ in range(L)]
    worst = 0.0
    # dead first link (LOG) and dead mid-chain link
    for strategy, rates in (("eiu", allocation.schedule("log", 24.0, L)),
                            ("wsinm", np.array([6.0, 0.0, 6.0, 6.0]))):
        after = int(np.flatnonzero(rates == 0.0)[-1]) + 1
        st = run_chain(p, sigma2, H, strategy, rates)
        fresh = run_chain(p, sigma2, H[after:], strategy, rates[after:])
        worst = max(worst, np.abs(st.T - fresh.T).max(), np.abs(st.C - fresh.C).max())
    return worst == 0.0, f"worst T/C difference to a fresh chain {worst:.2e}"


def _check_rate_equality(rng) -> tuple[bool, str]:
    K = 3
    X = complex_normal(rng, (K, K))
    P = herm(X @ X.conj().T + 0.1 * np.eye(K))      # the designs take a Hermitian P
    worst = 0.0
    for R in (2.0, 7.5, 20.0):
        for out in (compression.scnm(P, R), compression.wsinm(P, R, np.full(K, 0.4))):
            # log2 det(P Q^-1 + I): every Q here is full rank
            rate = np.linalg.slogdet(P @ np.linalg.inv(out.Q) + np.eye(K))[1] / compression.LN2
            worst = max(worst, abs(rate - R))
    return worst < 1e-6, f"worst rate-constraint error {worst:.2e} bits"


def _check_allocation(rng) -> tuple[bool, str]:
    # every scheme's split of a chain (LOG needs 2 APs), and the Two-Path arcs'
    splits = [allocation.schedule(scheme, 777.0, L) for scheme in allocation.SCHEMES
              for L in (1, 2, 5, 12) if scheme != "log" or L > 1]
    splits += [allocation.split(777.0, [len(arc) for arc in split_paths(L)])
               for L in (2, 5, 12)]
    worst = max(abs(rates.sum() - 777.0) for rates in splits)
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
