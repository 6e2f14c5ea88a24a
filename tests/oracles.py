# Independent reference implementations used only to check the package:
# the closed-form fronthaul budget splits, the per-AP channel draw, batch
# (centralized) LMMSE, the expansion form of a sequential chain, grid-search
# compression design, and random problem-instance generators.
import math

import numpy as np


def equal_split(R_T, L):
    """Every AP gets R_T / L."""
    return np.full(L, R_T / L)


def linear_split(R_T, L):
    """R_l = 2 R_T l / (L(L+1)), growing linearly with chain position."""
    l = np.arange(1, L + 1, dtype=float)
    return 2.0 * R_T * l / (L * (L + 1))


def logarithmic_split(R_T, L):
    """R_l proportional to log2(l); position 1 gets zero bits."""
    logs = np.log2(np.arange(1, L + 1, dtype=float))
    return R_T * logs / logs.sum()


def path_budget(R_T, L_total, L_path):
    """Two-Path budget of an arc of L_path APs, proportional to its length."""
    return R_T * L_path / L_total


def complex_randn(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def rand_psd(rng, K, jitter=0.0):
    """X X^H + jitter I, symmetrized to be exactly Hermitian, as the
    compression designs take P."""
    X = complex_randn(rng, (K, K))
    P = X @ X.conj().T + jitter * np.eye(K)
    return 0.5 * (P + P.conj().T)


def rand_unitary(rng, K):
    Q, _ = np.linalg.qr(complex_randn(rng, (K, K)))
    return Q


def rand_channels(rng, L, N, K):
    return [complex_randn(rng, (N, K)) for _ in range(L)]


def loop_channels(cfg, layout, rng):
    """draw_channels' H as a per-AP loop: each AP draws complex_normal (its
    real parts, then its imaginary parts), scaled per user column by
    sqrt(beta)."""
    from seqcf.geometry import pathloss_db
    from seqcf.linalg import complex_normal

    d = np.linalg.norm(layout.ap_positions[:, None, :]
                       - layout.user_positions[None, :, :], axis=2)
    beta = 10.0 ** (pathloss_db(d) / 10.0)
    return [complex_normal(rng, (cfg.N, cfg.K)) * np.sqrt(beta[l])[None, :]
            for l in range(cfg.L)]


def centralized_combiner(H, p, sigma2):
    """Batch LMMSE combiner p H^H (p H H^H + sigma2 I_M)^-1 on the stacked channel."""
    Hs = np.vstack(H)
    M = Hs.shape[0]
    S = p * (Hs @ Hs.conj().T) + sigma2 * np.eye(M)
    return p * np.linalg.solve(S, Hs).conj().T


def centralized_error_cov(H, p, sigma2):
    Hs = np.vstack(H)
    M = Hs.shape[0]
    K = Hs.shape[1]
    S = p * (Hs @ Hs.conj().T) + sigma2 * np.eye(M)
    return p * np.eye(K) - p * p * Hs.conj().T @ np.linalg.solve(S, Hs)


def centralized_sinr(H, p, sigma2):
    """Per-user SINR of the batch LMMSE combiner, computed term by term."""
    Hs = np.vstack(H)
    V = centralized_combiner(H, p, sigma2)
    T = V @ Hs
    abs2 = np.abs(T) ** 2
    num = p * np.diag(abs2)
    den = p * (abs2.sum(axis=1) - np.diag(abs2)) + sigma2 * np.sum(np.abs(V) ** 2, axis=1)
    return num / den


def grid_min_trace(lam, R, npts=40001):
    """Brute-force K=2 noise design: grid the rate split between the two
    eigenmodes and return the minimizing per-mode noise pair."""
    assert len(lam) == 2
    r1 = np.linspace(R * 1e-9, R * (1 - 1e-9), npts)
    d1 = lam[0] / (2.0 ** r1 - 1.0)
    d2 = lam[1] / (2.0 ** (R - r1) - 1.0)
    tot = d1 + d2
    i = int(np.argmin(tot))
    return float(tot[i]), (float(d1[i]), float(d2[i]))


def _bisect_noise(lam, mu):
    return 2.0 * mu * lam / (lam + np.sqrt(lam * lam + 4.0 * mu * lam))


def _bisect_rate(lam, mu):
    return float(np.sum(np.log2(1.0 + lam / _bisect_noise(lam, mu))))


def rate_bracket(lam, R):
    """(mu_lo, mu_hi) of the x8 search from lam.max(): mu_hi is the first
    lam.max() 8^j, j >= 0, whose rate is at most R, and mu_lo the first
    mu_hi / 8^i, i >= 0, whose rate is at least R."""
    from seqcf import compression as comp

    mu_hi = float(lam.max())
    grow = 0
    while _bisect_rate(lam, mu_hi) > R:
        mu_hi *= 8.0
        grow += 1
        if grow > 600:
            raise comp.SolverError("failed to bracket the rate constraint from above")
    mu_lo = mu_hi
    while _bisect_rate(lam, mu_lo) < R:
        mu_lo /= 8.0
        grow += 1
        if grow > 1200:
            raise comp.SolverError("failed to bracket the rate constraint from below")
    return mu_lo, mu_hi


def bisect_mode_noises(lam, R):
    """SCNM per-mode noises by the plain scalar rate bisection, run on the
    spectrum scaled by the power of two 2^-e that puts lam.max() in [1/2, 1).

    Every noise is 0 when the water-filling point of the scaled spectrum,
    where sum_k log2(lam_k / mu) = R, lies below 2^-_SPAN_BINADES / lam.min(),
    the floor of the rate model's range. Otherwise the multiplier mu of the scaled spectrum is
    bracketed by rate_bracket and bisected until a midpoint's rate is within
    RATE_TOL_BITS of R, after at most RATE_MAX_ITER midpoints. The noises,
    and the bracket an error reports, are scaled back by 2^e. The package's
    solver must return exactly these noises (and raise exactly these errors).
    """
    from seqcf import compression as comp

    e = math.frexp(lam.max())[1]
    lam = np.ldexp(lam, -e)
    if R - np.log2(lam).sum() > lam.size * (comp._SPAN_BINADES + math.log2(lam.min())):
        return np.zeros(lam.size)
    mu_lo, mu_hi = rate_bracket(lam, R)
    for _ in range(comp.RATE_MAX_ITER):
        mu = 0.5 * (mu_lo + mu_hi)
        r = _bisect_rate(lam, mu)
        if abs(r - R) <= comp.RATE_TOL_BITS:
            return np.ldexp(_bisect_noise(lam, mu), e)
        if r > R:
            mu_lo = mu
        else:
            mu_hi = mu
    raise comp.SolverError(f"rate bisection did not converge: R={R}, "
                           f"mu=[{math.ldexp(mu_lo, e)},{math.ldexp(mu_hi, e)}]")


def eigh_mode_covariance(P, noise):
    """(lam, Q) of Hermitian P by numpy's eigh of herm(P): lam holds the
    eigenvalues above RANK_TOL of the largest, Q = U diag(noise(lam)) U^H
    over their eigenvectors U."""
    from seqcf import compression as comp

    w, U = np.linalg.eigh(0.5 * (P + P.conj().T))
    pos = w > comp.RANK_TOL * max(w[-1], 0.0)
    Up = U[:, pos]
    return w[pos], (Up * noise(w[pos])) @ Up.conj().T


def lmmse_sinr(G, Z, p):
    """Per-user SINR of the LMMSE combiner V = p G^H S^-1 of the observation
    y = G s + z, z ~ CN(0, Z), with S = p G G^H + Z solved by np.linalg.solve
    without a ridge, computed term by term."""
    S = p * (G @ G.conj().T) + Z
    V = p * np.linalg.solve(S, G).conj().T
    T = V @ G
    abs2 = np.abs(T) ** 2
    num = p * np.diag(abs2)
    den = p * (abs2.sum(axis=1) - np.diag(abs2)) + np.real(np.diag(V @ Z @ V.conj().T))
    return num / den


def feasible_q_on_constraint(rng, P, R, jitter=1e-3, tol=1e-11):
    """Random PSD Q scaled onto the rate-constraint surface by bisection."""
    K = P.shape[0]
    Q0 = rand_psd(rng, K, jitter=jitter)

    def rate(t):
        s1, ld1 = np.linalg.slogdet(P + t * Q0)
        s2, ld2 = np.linalg.slogdet(t * Q0)
        return (ld1 - ld2) / np.log(2.0)

    lo, hi = 1.0, 1.0
    while rate(hi) > R:
        hi *= 8.0
    while rate(lo) < R:
        lo /= 8.0
    for _ in range(200):
        t = 0.5 * (lo + hi)
        r = rate(t)
        if abs(r - R) < tol:
            break
        if r > R:
            lo = t
        else:
            hi = t
    return t * Q0


class ChainExpansion:
    """Expansion form of a sequential chain, rebuilt from its own LMMSE gains.

    With the combiner families V_i = F_l ... F_{i+1} Gamma_i and
    A_i = F_l ... F_{i+1}, F_j = I - Gamma_j H_j, the forwarded estimate is
    s_tilde = sum_i V_i y_i + sum_i A_i q_i, so its effective channel is
    sum_i V_i H_i and its noise covariance follows from the V_i, A_i and the
    compression covariances Q_i. Only the Q_i are taken from the chain under
    test. A link with rate <= ZERO_RATE_TOL is dead: it zeroes every family,
    and the next AP restarts from the prior.
    """

    def __init__(self, p, sigma2, H, rates, Qs):
        from seqcf.chain import ZERO_RATE_TOL

        K = H[0].shape[1]
        self.p, self.sigma2, self.H = p, sigma2, H
        self.V, self.A, self.Qs = [], [], []
        self.bases = []   # WSINM interference base seen by each AP
        C = p * np.eye(K, dtype=complex)
        for Hl, Rl, Ql in zip(H, rates, Qs):
            S = Hl @ C @ Hl.conj().T + sigma2 * np.eye(Hl.shape[0])
            G = np.linalg.solve(S, Hl @ C).conj().T   # C H^H S^-1, C Hermitian
            F = np.eye(K) - G @ Hl
            self.V = [F @ Vi for Vi in self.V] + [G]
            self.A = [F @ Ai for Ai in self.A] + [np.eye(K, dtype=complex)]
            self.bases.append(self._base(self.Qs))
            if Rl <= ZERO_RATE_TOL:
                self.V = [0 * Vi for Vi in self.V]
                self.A = [0 * Ai for Ai in self.A]
                C = p * np.eye(K, dtype=complex)
            else:
                C = F @ C + Ql
            self.Qs.append(Ql)
        self.T = self.effective_channel()
        # effective noise covariance sigma2 sum_i V_i V_i^H + sum_i A_i Q_i A_i^H
        self.Z = sum(sigma2 * Vi @ Vi.conj().T for Vi in self.V) + sum(
            Ai @ Qi @ Ai.conj().T for Ai, Qi in zip(self.A, self.Qs))
        self.sinr = self.sinr_with(self.Qs)

    def effective_channel(self):
        """T = sum_i V_i H_i."""
        return sum(Vi @ Hi for Vi, Hi in zip(self.V, self.H))

    def _base(self, Qs):
        # interference + thermal noise + compression noise of the APs in Qs,
        # term by term, with the current families
        T = self.effective_channel()
        abs2 = np.abs(T) ** 2
        inter = self.p * (abs2.sum(axis=1) - np.diag(abs2))
        noise = self.sigma2 * sum(np.sum(np.abs(Vi) ** 2, axis=1) for Vi in self.V)
        comp = sum(np.einsum("kn,nm,km->k", Ai, Qi, Ai.conj()).real
                   for Ai, Qi in zip(self.A, Qs))
        return inter + noise + comp

    def sinr_with(self, Qs):
        """Per-user SINR of the terminal estimate for compression covariances Qs."""
        T = self.effective_channel()
        num = self.p * np.abs(np.diag(T)) ** 2
        den = self._base(Qs)
        out = np.zeros_like(num)
        np.divide(num, den, out=out, where=den > 0)
        return out


def gh_step_chain(p, sigma2, H, strategy, rates):
    """run_chain with the explicit K x K Gamma H step: per AP it forms GH =
    Gamma H, then GH C_{l-1}, GH T_{l-1} and GH Q_{l-1} (GH * q for EIU's
    diagonal noise), three K x K x K products. Everything else (the dead-link
    start, the designs, the C update) is the package's, so this differs from
    run_chain only in the order of the products, that is by round-off.
    """
    from seqcf import chain
    from seqcf.linalg import herm

    rates = np.asarray(rates, dtype=float)
    compress = chain.DESIGNS[strategy]
    K = H[0].shape[1]
    st = chain.initial_state(K, p)
    start = max(np.flatnonzero(rates <= chain.ZERO_RATE_TOL), default=-1) + 1
    Q_l = np.zeros(K)
    for H_l, R_l in zip(H[start:], rates[start:].tolist()):
        GH = chain.gain(st.C, H_l, sigma2)[0] @ H_l
        GHC = GH @ st.C
        C_pre = st.C - GHC
        T = st.T - GH @ st.T + GH
        if Q_l.ndim == 2:
            P, GHQ = st.P + Q_l, GH @ Q_l
        else:
            P = st.P + np.diag(Q_l)
            GHQ = GH * Q_l
        P = herm(P + GHC - GHQ.conj().T - GHQ)
        Q_l = compress(P, R_l, T, C_pre, p)
        st = chain.ChainState(C=chain.update_error_cov(C_pre, Q_l), P=P, T=T)
    return st


def run_recorded(p, sigma2, H, strategy, rates, run=None):
    """(state, outcomes): run_chain's result and its per-AP CompressionOutcomes.

    The design's function in seqcf.compression is wrapped for the length of
    the call to record each outcome. run_chain computes only the APs after
    the last dead link (rate <= ZERO_RATE_TOL); each AP up to that link
    forwards nothing and gets a zero Q at rate 0. run replaces run_chain by
    another chain with its signature, such as gh_step_chain.
    """
    import seqcf.chain as chain
    from seqcf import compression

    real = getattr(compression, strategy)
    live = []

    def recorded(*args):
        live.append(real(*args))
        return live[-1]

    setattr(compression, strategy, recorded)
    try:
        st = (run or chain.run_chain)(p, sigma2, H, strategy, rates)
    finally:
        setattr(compression, strategy, real)
    K = H[0].shape[1]
    zero = compression.CompressionOutcome(Q=np.zeros((K, K), dtype=complex),
                                          achieved_rate=0.0)
    return st, [zero] * (len(rates) - len(live)) + live


def run_and_expand(p, sigma2, H, strategy, rates):
    """Run the chain under test and rebuild it in expansion form from its Q_i.

    Returns (state, expansion, outcomes), the outcomes as run_recorded's.
    """
    st, outcomes = run_recorded(p, sigma2, H, strategy, rates)
    ex = ChainExpansion(p, sigma2, H, rates, [o.Q for o in outcomes])
    return st, ex, outcomes


def stacked_wsinm(P, R_l, interference_base):
    """WSINM block coordinate descent with a full weighted SCNM per iteration.

    Every iteration forms the full weighted Q through seqcf's weighted_scnm
    (and so scnm) and solves its rate from scratch; the package's wsinm must
    give the same Q, weights, iterations and objective trace up to round-off.
    """
    from seqcf import compression as comp

    base = np.asarray(interference_base, dtype=float)
    if np.any(base <= 0):
        raise comp.SolverError("interference-plus-noise base must be strictly positive")
    K = P.shape[0]
    w = np.ones(K)
    trace_vals = []
    prev_obj = None
    iters = 0
    for it in range(comp.BCD_MAX_ITER):
        iters = it + 1
        out = comp.weighted_scnm(P, R_l, w)
        X = base + np.diag(out.Q).real
        obj_q = float(w @ X - np.sum(np.log2(w)))
        trace_vals.append(obj_q)
        w_new = 1.0 / (comp.LN2 * X)
        obj_w = float(w_new @ X - np.sum(np.log2(w_new)))
        trace_vals.append(obj_w)
        w = w_new
        if prev_obj is not None and (abs(prev_obj - obj_w)
                                     <= comp.BCD_REL_TOL * max(abs(prev_obj), 1e-300)):
            break
        prev_obj = obj_w
    return comp.CompressionOutcome(Q=out.Q, achieved_rate=out.achieved_rate,
                                   weights=w, bcd_iters=iters, objective_trace=trace_vals)
