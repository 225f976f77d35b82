"""Metropolis chain over the matrix moduli (L_mu, A_mu, phi).

Boltzmann weight exp(-(1/4) Tr f(D_omega)) with the action evaluated through
the closed-form sectors.  Proposals are Gaussian increments on a
Hermitian generator mapped into each field's subspace, so every accepted
state stays exactly on the moduli space:

    L_mu  in su(N)            (anti-Hermitian, traceless),
    A_mu  anti-Hermitian in M_{Nn},
    phi   self-adjoint in Herm(N) (x) [Omega^1_{D_F}]_sa.

Randomness: one 64-bit root seed; field k (0..3 the L's, 4..7 the A's, 8 the
Higgs) draws from numpy's SeedSequence(root, spawn_key=(k,)), the
accept/reject uniforms from spawn_key=(9,).  Identical seeds give
bit-identical chains on one platform.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .action import (ActionPolynomial, bitracial_traces, covariant_matrices,
                     sector_breakdown)
from .clifford import single
from .dirac import GaugeTriple, random_hermitian
from .errors import NotFlat, NotRiemannian, NotSelfAdjoint, UnstableAction
from .fluct import Fluctuation, one_form_span, project_higgs, selfadjoint_span_basis

_DIVERGENCE = 1e12


@dataclass
class SamplerConfig:
    N: int
    n: int
    poly: ActionPolynomial
    steps: int
    burn_in: int = 0
    thin: int = 1
    step_sizes: dict = dc_field(default_factory=lambda: {"L": 0.1, "A": 0.1, "phi": 0.1})
    target_acceptance: tuple = (0.2, 0.6)
    autotune: bool = True
    seed: int = 0
    tune_interval: int = 25
    histogram_bins: int = 0

    def __post_init__(self):
        if not (self.steps >= self.burn_in >= 0):
            raise ValueError("need steps >= burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not self.poly.confining():
            raise ValueError("polynomial must have positive coefficient at even top degree")


@dataclass
class ChainState:
    L: list
    A: list
    phi: np.ndarray
    current_action: float = 0.0
    accept_count: int = 0
    proposal_count: int = 0

    def fluctuation(self) -> Fluctuation:
        return Fluctuation(A=tuple(self.A), S=None, phi=self.phi.copy())


@dataclass(frozen=True)
class SampleRecord:
    step: int
    s_total: float
    s_ym: float
    s_h: float
    s_gh: float
    s_theta: float
    acceptance: float
    histogram: tuple | None = None


def batch_means(values, n_batches: int = 20):
    """(mean, standard error) by the batch-means estimator."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return float("nan"), float("nan")
    if x.size < n_batches:
        n_batches = max(1, x.size)
    usable = (x.size // n_batches) * n_batches
    batches = x[:usable].reshape(n_batches, -1).mean(axis=1)
    mean = float(x.mean())
    if n_batches < 2:
        return mean, float("nan")
    se = float(batches.std(ddof=1) / np.sqrt(n_batches))
    return mean, se


def stationarity_check(values, n_batches: int = 20) -> dict:
    """Compare the two halves of a series at 3 combined standard errors."""
    x = np.asarray(values, dtype=float)
    half = x.size // 2
    m1, se1 = batch_means(x[:half], n_batches)
    m2, se2 = batch_means(x[half:], n_batches)
    combined = float(np.hypot(se1, se2))
    return {
        "mean_first_half": m1, "mean_second_half": m2,
        "se_first_half": se1, "se_second_half": se2,
        "combined_se": combined,
        "stationary": bool(abs(m1 - m2) < 3 * combined),
    }


def _su_project(H: np.ndarray) -> np.ndarray:
    """Hermitian generator -> traceless anti-Hermitian increment."""
    N = H.shape[0]
    return 1j * (H - np.trace(H) / N * np.eye(N))


def run_chain(cfg: SamplerConfig, gt_template: GaugeTriple):
    """Metropolis over (L, A, phi); returns the list of SampleRecords.

    The template supplies n, D_F and the signature; its L blocks seed the
    chain's starting point (zero blocks are fine).  Fully deterministic
    under cfg.seed.
    """
    sig = gt_template.sig
    n = gt_template.n
    N = cfg.N
    m = N * n
    if gt_template.N != N or gt_template.n != cfg.n:
        raise ValueError("config and template disagree on (N, n)")
    if (sig.p, sig.q) != (0, 4):
        raise NotRiemannian("the sampler runs in signature (0, 4)")
    if gt_template.fuzzy.has_triples:
        raise NotFlat("the sampler needs a flat template (no X blocks)")
    higgs_basis = selfadjoint_span_basis(one_form_span(gt_template.finite.D_F))
    DF_big = np.kron(np.eye(N), gt_template.finite.D_F)

    def breakdown(L, A, phi):
        traces = bitracial_traces(covariant_matrices(L, A), DF_big + phi, phi,
                                  sig.e, sig.eps_dblprime)
        return sector_breakdown(traces, cfg.poly)

    field_names = [f"L{mu}" for mu in range(4)] + [f"A{mu}" for mu in range(4)]
    if higgs_basis.size > 0:
        field_names.append("phi")
    rngs = {k: np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)))
            for k in range(len(field_names))}
    accept_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(9,)))

    steps = {name: float(cfg.step_sizes.get(name[0] if name[0] in "LA" else "phi", 0.1))
             for name in field_names}
    L = [np.array(gt_template.fuzzy.block(single(mu)), dtype=complex) for mu in range(4)]
    for mu in range(4):
        L[mu] -= np.trace(L[mu]) / N * np.eye(N)
    state = ChainState(L=L, A=[np.zeros((m, m), dtype=complex) for _ in range(4)],
                       phi=np.zeros((m, m), dtype=complex))
    state.current_action = breakdown(state.L, state.A, state.phi).total_closed

    window_acc = {name: 0 for name in field_names}
    window_tot = {name: 0 for name in field_names}
    records = []

    for sweep in range(cfg.steps):
        for k, name in enumerate(field_names):
            rng = rngs[k]
            if name.startswith("L"):
                mu = int(name[1])
                H = random_hermitian(N, rng)
                newL = [x for x in state.L]
                newL[mu] = state.L[mu] + steps[name] * _su_project(H)
                cand = (newL, state.A, state.phi)
            elif name.startswith("A"):
                mu = int(name[1])
                H = random_hermitian(m, rng)
                newA = [x for x in state.A]
                newA[mu] = state.A[mu] + steps[name] * 1j * H
                cand = (state.L, newA, state.phi)
            else:
                H = random_hermitian(m, rng)
                incr = project_higgs(H, N, n, higgs_basis)
                cand = (state.L, state.A, state.phi + steps[name] * incr)

            new_action = breakdown(*cand).total_closed
            delta = new_action - state.current_action
            state.proposal_count += 1
            window_tot[name] += 1
            if delta <= 0 or accept_rng.uniform() < np.exp(-min(delta, 700.0)):
                state.L, state.A, state.phi = [x.copy() for x in cand[0]], \
                    [x.copy() for x in cand[1]], cand[2].copy()
                state.current_action = new_action
                state.accept_count += 1
                window_acc[name] += 1

        in_burn = sweep < cfg.burn_in
        if in_burn and abs(state.current_action) > _DIVERGENCE:
            raise UnstableAction(f"action {state.current_action:.3e} during burn-in")
        if in_burn and cfg.autotune and (sweep + 1) % cfg.tune_interval == 0:
            lo, hi = cfg.target_acceptance
            for name in field_names:
                if window_tot[name] == 0:
                    continue
                rate = window_acc[name] / window_tot[name]
                if rate > hi:
                    steps[name] *= 1.25
                elif rate < lo:
                    steps[name] /= 1.25
                window_acc[name] = 0
                window_tot[name] = 0
        if sweep + 1 == cfg.burn_in:
            # acceptance statistics restart after burn-in
            state.accept_count = 0
            state.proposal_count = 0

        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            br = breakdown(state.L, state.A, state.phi)
            rate = state.accept_count / max(1, state.proposal_count)
            hist = None
            if cfg.histogram_bins > 0:
                edges, counts = eigen_histogram(_assemble_state(gt_template, state),
                                                cfg.histogram_bins)
                hist = (tuple(map(float, edges)), tuple(map(int, counts)))
            records.append(SampleRecord(step=sweep, s_total=br.total_closed, s_ym=br.s_ym,
                                        s_h=br.s_h, s_gh=br.s_gh, s_theta=br.s_theta,
                                        acceptance=rate, histogram=hist))
    info = {
        "step_sizes": {name: steps[name] for name in field_names},
        "acceptance": state.accept_count / max(1, state.proposal_count),
        "final_state": state,
    }
    return records, info


def _assemble_state(gt_template: GaugeTriple, state: ChainState) -> np.ndarray:
    """D_omega for the chain's current fields (histogram observable)."""
    from .clifford import build_gammas
    from .dirac import FuzzyData
    from .fluct import assemble_fluctuated
    blocks = {single(mu): state.L[mu] for mu in range(4)}
    fz = FuzzyData(N=state.L[0].shape[0], sig=gt_template.sig, K=blocks)
    gt = GaugeTriple(fuzzy=fz, finite=gt_template.finite)
    return assemble_fluctuated(gt, state.fluctuation(), build_gammas(gt.sig))


def eigen_histogram(D: np.ndarray, bins: int):
    """Eigenvalue histogram of a self-adjoint operator over a symmetric range."""
    dev = np.abs(D - D.conj().T).max()
    if dev > 1e-9 * max(1.0, np.abs(D).max()):
        raise NotSelfAdjoint(f"operator deviates from self-adjointness by {dev:.3e}")
    ev = np.linalg.eigvalsh(D)
    span = float(np.abs(ev).max())
    if span == 0.0:
        span = 1.0
    counts, edges = np.histogram(ev, bins=bins, range=(-span, span))
    return edges, counts


def gaussian_self_test(N: int = 2, samples: int = 100_000, seed: int = 0,
                       step: float = 0.5, burn_in: int = 1000) -> dict:
    """Metropolis on one Hermitian matrix with weight exp(-Tr M^2).

    The analytic mean of Tr M^2 is N^2 / 2; the summary reports the chain
    mean, its batch-means standard error and whether the target lies within
    three standard errors.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    accept_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    M = np.zeros((N, N), dtype=complex)
    action = 0.0
    accepted = 0
    trace_sq = np.empty(samples)
    for i in range(burn_in + samples):
        cand = M + step * random_hermitian(N, rng)
        new_action = float(np.trace(cand @ cand).real)
        delta = new_action - action
        if delta <= 0 or accept_rng.uniform() < np.exp(-min(delta, 700.0)):
            M = cand
            action = new_action
            if i >= burn_in:
                accepted += 1
        if i >= burn_in:
            trace_sq[i - burn_in] = action
    mean, se = batch_means(trace_sq)
    target = N * N / 2.0
    return {
        "samples": trace_sq,
        "mean_tr_m2": mean,
        "stderr": se,
        "n_samples": samples,
        "target": target,
        "within_3se": bool(abs(mean - target) <= 3 * se),
        "acceptance": accepted / samples,
    }
