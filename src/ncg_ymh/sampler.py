"""Metropolis chain over the fields the action sees: A_mu in su(m), phi in Herm(m).

Boltzmann weight exp(-(1/4) Tr f(D_omega)) from the closed-form sectors
(`action.bitracial_traces`), exact for deg f <= 4 (`SamplerConfig` refuses
more), once per proposal; records read the state's kept breakdown.

The action sees (L_mu, A_mu) only through X_mu = L_mu (x) 1 + A_mu, so L_mu
stays at the template's blocks, made traceless.  Omega^1_{D_F} is a two-sided
ideal of the simple algebra M_n, so the Higgs space is 0 (D_F scalar: phi is
dropped) or all of Herm(m).  A proposal adds a step times a Gaussian
Hermitian generator, made traceless anti-Hermitian for A_mu.

Streams: SeedSequence(seed, spawn_key=(k,)) with k = 4 + mu for A_mu, 8 for
phi and 9 for the accept/reject uniforms; 0..3 are retired.  Identical seeds
give bit-identical chains on one platform.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .action import (ActionBreakdown, ActionPolynomial, bitracial_traces,
                     covariant_matrices, require_self_adjoint, sector_breakdown)
from .clifford import single
from .dirac import GaugeTriple, random_hermitian
from .errors import NotFlat, NotRiemannian, UnstableAction
from .fluct import Fluctuation

_DIVERGENCE = 1e12
_STEP_SIZES = {"A": 0.08, "phi": 0.1}


@dataclass
class SamplerConfig:
    N: int
    n: int
    poly: ActionPolynomial
    steps: int
    burn_in: int = 0
    thin: int = 1
    step_sizes: dict = dc_field(default_factory=lambda: dict(_STEP_SIZES))
    target_acceptance: tuple = (0.2, 0.6)
    autotune: bool = True
    seed: int = 0
    tune_interval: int = 25

    def __post_init__(self):
        if not (self.steps >= self.burn_in >= 0):
            raise ValueError("need steps >= burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not self.poly.confining():
            raise ValueError("polynomial must have positive coefficient at even top degree")
        if self.poly.degree > 4:
            raise ValueError(f"poly has degree {self.poly.degree}; the kernel is exact up to 4")


@dataclass
class ChainState:
    """The chain's fields and the action breakdown evaluated on them."""

    L: list
    A: list
    phi: np.ndarray
    breakdown: ActionBreakdown
    accept_count: int = 0
    proposal_count: int = 0

    @property
    def current_action(self) -> float:
        return self.breakdown.total_closed

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
    """Metropolis over (A, phi); returns the list of SampleRecords and an info dict.

    The template supplies n, D_F and the signature; its L blocks, made
    traceless, stay fixed (zero blocks are fine).  Fully deterministic under
    cfg.seed.
    """
    sig = gt_template.sig
    N = cfg.N
    m = N * gt_template.n
    if gt_template.N != N or gt_template.n != cfg.n:
        raise ValueError("config and template disagree on (N, n)")
    if (sig.p, sig.q) != (0, 4):
        raise NotRiemannian("the sampler runs in signature (0, 4)")
    if gt_template.fuzzy.has_triples:
        raise NotFlat("the sampler needs a flat template (no X blocks)")
    DF_big = np.kron(np.eye(N), gt_template.finite.D_F)
    L = [np.asarray(gt_template.fuzzy.block(single(mu)), dtype=complex) for mu in range(4)]
    L = [K - np.trace(K) / N * np.eye(N) for K in L]
    LX = covariant_matrices(L, np.zeros((4, m, m), dtype=complex))  # L_mu (x) 1, fixed

    def breakdown(A, phi):
        traces = bitracial_traces(LX + np.asarray(A), DF_big + phi, phi,
                                  sig.e, sig.eps_dblprime)
        return sector_breakdown(traces, cfg.poly)

    spawn_keys = {f"A{mu}": 4 + mu for mu in range(4)}
    if not gt_template.finite.is_scalar:  # the Higgs space is Herm(m), not 0
        spawn_keys["phi"] = 8
    rngs = {name: np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)))
            for name, k in spawn_keys.items()}
    accept_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(9,)))
    sizes = {**_STEP_SIZES, **cfg.step_sizes}
    steps = {name: float(sizes["phi" if name == "phi" else "A"]) for name in rngs}
    A = [np.zeros((m, m), dtype=complex) for _ in range(4)]
    phi = np.zeros((m, m), dtype=complex)
    state = ChainState(L=L, A=A, phi=phi, breakdown=breakdown(A, phi))
    if not abs(state.current_action) <= _DIVERGENCE:  # also catches NaN
        raise UnstableAction(f"initial action {state.current_action:.3e}")

    # each field is proposed once per sweep: a tuning window is tune_interval proposals
    window_acc = dict.fromkeys(rngs, 0)
    records = []

    for sweep in range(cfg.steps):
        for name, rng in rngs.items():
            H = random_hermitian(m, rng)
            A, phi = state.A, state.phi
            if name == "phi":
                phi = phi + steps[name] * H
            else:
                mu = int(name[1])
                A = list(A)
                A[mu] = A[mu] + steps[name] * _su_project(H)

            cand = breakdown(A, phi)
            delta = cand.total_closed - state.current_action
            state.proposal_count += 1
            if delta <= 0 or accept_rng.uniform() < np.exp(-min(delta, 700.0)):
                state.A, state.phi, state.breakdown = A, phi, cand
                state.accept_count += 1
                window_acc[name] += 1

        in_burn = sweep < cfg.burn_in
        if in_burn and not abs(state.current_action) <= _DIVERGENCE:
            raise UnstableAction(f"action {state.current_action:.3e} during burn-in")
        if in_burn and cfg.autotune and (sweep + 1) % cfg.tune_interval == 0:
            lo, hi = cfg.target_acceptance
            for name, accepted in window_acc.items():
                rate = accepted / cfg.tune_interval
                if rate > hi:
                    steps[name] *= 1.25
                elif rate < lo:
                    steps[name] /= 1.25
            window_acc = dict.fromkeys(rngs, 0)
        if sweep + 1 == cfg.burn_in:
            # acceptance statistics restart after burn-in
            state.accept_count = state.proposal_count = 0

        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            br = state.breakdown
            rate = state.accept_count / max(1, state.proposal_count)
            records.append(SampleRecord(step=sweep, s_total=br.total_closed, s_ym=br.s_ym,
                                        s_h=br.s_h, s_gh=br.s_gh, s_theta=br.s_theta,
                                        acceptance=rate))
    info = {"step_sizes": steps, "final_state": state,
            "acceptance": state.accept_count / max(1, state.proposal_count)}
    return records, info


def eigen_histogram(D: np.ndarray, bins: int):
    """Eigenvalue histogram of a self-adjoint operator over a symmetric range."""
    require_self_adjoint(D)
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
