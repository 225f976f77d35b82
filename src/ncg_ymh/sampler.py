"""Metropolis chain over the fields the action sees, in any signature (p, q).

Boltzmann weight exp(-(1/4) Tr f(D_omega)) from the closed-form sectors
(`action.Kernel`), exact for deg f <= 4 (`SamplerConfig` refuses
more), once per proposal; records read the state's kept breakdown.

The action sees (L_mu, A_mu) only through X_mu = L_mu (x) 1 + A_mu, so L_mu
stays at the template's blocks.  Omega^1_{D_F} is a two-sided ideal of the
simple algebra M_n, so the Higgs space is 0 (D_F scalar: phi is dropped) or
all of Herm(m).  X_mu enters as l(X_mu) + e_mu r(X_mu) and phi as l(phi) +
eps'' r(phi), so the action does not see a trace where that sign is -1.  A
proposal adds a step times a Gaussian generator of the field's type (M* =
e_mu M for A_mu, Hermitian for phi), made traceless where the sign is -1;
L_mu is made traceless where e_mu = -1.  In (0, 4): A_mu in su(m), phi in Herm(m).

At the sampler's sizes (m = 8) numpy's per-call overhead is most of a
proposal's cost, so the loop makes few calls and allocates no stack.  The
state is the stack S = (1, X_0..X_3, P, phi, three scratch rows) of one
`action.Kernel`.  A proposal saves the rows it writes (X_mu; or P and phi)
and updates them in place; the kernel writes only its scratch rows and
buffers, and a rejection copies the saved rows back (x + d - d need not be x).
Each field's generators are drawn in chunks of about _DRAW_ENTRIES matrix
entries, in the order one draw per proposal would take them, and scaled by
the field's step size once per chunk and per tuning window.  A non-finite
or diverging action (|S| > 1e12) stops the chain with UnstableAction at the
start and after any sweep, not only during burn-in.

Streams: `dirac.stream(seed, k)`, k = 4 + mu for A_mu, 8 for phi and 9 for
the accept/reject uniforms; the Gaussian self test draws its generators from
0 and its uniforms from 9; 1..3 are retired.  `_generators` draws every
generator, the chain's and the self test's, through `dirac.random_typed`.
Identical seeds give bit-identical chains on one platform.

Diagnostics: `run_chain`'s info reports the post-burn-in acceptance per
field and the autotune step-size trajectory; `tau_int` and
`effective_sample_size` read a finished record series.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .action import (STACK_P, STACK_PHI, STACK_X, ActionBreakdown, ActionPolynomial, Kernel,
                     sector_breakdown)
from .dirac import GaugeTriple, lift, random_typed, stream
from .errors import NotFlat, UnstableAction
from .fluct import Fluctuation

_DIVERGENCE = 1e12
_STEP_SIZES = {"A": 0.08, "phi": 0.1}
_TUNE_INTERVAL = 25
_TARGET_ACCEPTANCE = (0.2, 0.6)
_BATCHES = 20  # of the batch-means estimator
_WINDOW = 5.0  # Sokal's window constant c of tau_int
_SELF_TEST_STEP = 0.5  # of the Gaussian self test's proposals


def _require_count(name: str, value, least: int):
    """Refuse a count that is not an integer (a bool is not one) or lies below least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class SamplerConfig:
    N: int
    n: int
    poly: ActionPolynomial
    steps: int
    burn_in: int = 0
    thin: int = 1
    step_sizes: dict = dc_field(default_factory=lambda: dict(_STEP_SIZES))
    autotune: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, least in (("steps", 0), ("burn_in", 0), ("thin", 1), ("seed", 0)):
            _require_count(name, getattr(self, name), least)
        if self.burn_in > self.steps:
            raise ValueError("need steps >= burn_in >= 0")
        if not self.poly.confining():
            raise ValueError("polynomial must have positive coefficient at even top degree")
        if self.poly.degree > 4:
            raise ValueError(f"poly has degree {self.poly.degree}; the kernel is exact up to 4")
        for key, step in self.step_sizes.items():
            if isinstance(step, bool) or not (isinstance(step, numbers.Real)
                                              and 0 < step < math.inf):
                raise ValueError(f"step_sizes[{key!r}] = {step!r}: need a positive, finite number")


@dataclass
class ChainState:
    """The chain's last fields, their action breakdown and its post-burn-in counts."""

    L: np.ndarray  # (4, N, N): L_mu = L[mu]
    A: np.ndarray  # (4, m, m): A_mu = A[mu]
    phi: np.ndarray
    breakdown: ActionBreakdown
    accept_count: int = 0
    proposal_count: int = 0

    @property
    def current_action(self) -> float:
        return self.breakdown.total_closed

    def fluctuation(self) -> Fluctuation:
        return Fluctuation(A=self.A, S=np.zeros_like(self.A), phi=self.phi.copy())


@dataclass(frozen=True)
class SampleRecord:
    step: int
    s_total: float
    s_ym: float
    s_h: float
    s_gh: float
    s_theta: float
    acceptance: float


def batch_means(values):
    """(mean, standard error) by the batch-means estimator, over _BATCHES batches."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return float("nan"), float("nan")
    n_batches = min(_BATCHES, x.size)
    usable = (x.size // n_batches) * n_batches
    batches = x[:usable].reshape(n_batches, -1).mean(axis=1)
    mean = float(x.mean())
    if n_batches < 2:
        return mean, float("nan")
    se = float(batches.std(ddof=1) / np.sqrt(n_batches))
    return mean, se


def stationarity_check(values) -> dict:
    """Compare the two halves of a series at 3 combined standard errors; equal means pass."""
    x = np.asarray(values, dtype=float)
    half = x.size // 2
    m1, se1 = batch_means(x[:half])
    m2, se2 = batch_means(x[half:])
    combined = float(np.hypot(se1, se2))
    return {
        "mean_first_half": m1, "mean_second_half": m2,
        "se_first_half": se1, "se_second_half": se2,
        "combined_se": combined,
        "stationary": bool(abs(m1 - m2) <= 3 * combined),
    }


def tau_int(values) -> float:
    """Integrated autocorrelation time of a series, in records.

    tau = 1/2 + sum_{t=1}^{W} rho(t) with Sokal's automatic window: the
    smallest W >= c tau(W), c = _WINDOW.  The autocorrelation rho comes from
    one FFT.  Series shorter than 4 or constant give 1/2, the value of
    independent records.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        return 0.5
    x = x - x.mean()
    if not np.any(x):
        return 0.5
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    rho = acf / acf[0]
    tau = 0.5
    for w in range(1, n):
        tau += rho[w]
        if w >= _WINDOW * tau:
            break
    return max(tau, 0.5)


def effective_sample_size(values) -> float:
    """n / (2 tau_int): the number of independent records the series is worth."""
    n = len(values)
    return n / (2 * tau_int(values)) if n else 0.0


# Gaussian generators are drawn for about this many matrix entries per field at a time
_DRAW_ENTRIES = 1 << 12


def _generators(rng, k: int, m: int, e: int, s: int) -> np.ndarray:
    """The next k increments of a field that enters as l(Y) + s r(Y) and has M* = e M:
    k `random_typed` draws, made traceless where s = -1."""
    H = random_typed(m, rng, [e] * k)  # a tuple of 20+ signs per chunk cost the chain 0.4 MB RSS
    if s == -1:
        H -= np.trace(H, axis1=1, axis2=2)[:, None, None] * (np.eye(m) / m)
    return H


@np.errstate(over="ignore", invalid="ignore")  # a non-finite action is refused, not warned of
def run_chain(cfg: SamplerConfig, gt_template: GaugeTriple):
    """Metropolis over (A, phi); returns the list of SampleRecords and an info dict.

    The template supplies n, D_F and the signature; its L blocks, made
    traceless where e_mu = -1, stay fixed (zero blocks are fine).  Fully
    deterministic under cfg.seed.  Besides the final state, info holds the
    tuned step sizes, the post-burn-in acceptance overall and per field (NaN
    with no sweep after burn-in), and the autotune trajectory: per tuning
    window its last sweep, each field's acceptance and the step sizes it led to.
    """
    sig = gt_template.sig
    N = cfg.N
    m = N * gt_template.n
    if gt_template.N != N or gt_template.n != cfg.n:
        raise ValueError("config and template disagree on (N, n)")
    if gt_template.fuzzy.has_triples:
        raise NotFlat("the sampler needs a flat template (no X blocks)")
    DF_big = gt_template.lifted_D_F
    L = np.array([K - np.trace(K) / N * np.eye(N) if e == -1 else K
                  for K, e in zip(gt_template.fuzzy.K.astype(complex), sig.e)])
    LX = lift(L, gt_template.n)  # L_mu (x) 1, fixed

    fields = [0, 1, 2, 3]  # mu of each A_mu; None stands for phi
    if not gt_template.finite.is_scalar:  # the Higgs space is Herm(m), not 0
        fields.append(None)
    names = ["phi" if mu is None else f"A{mu}" for mu in fields]
    # (e, s) of each field: its adjointness type and its sign in l(Y) + s r(Y)
    types = [(1, sig.eps_dblprime) if mu is None else (sig.e[mu],) * 2 for mu in fields]
    rows = [STACK_PHI if mu is None else STACK_X + mu for mu in fields]
    rngs = [stream(cfg.seed, 8 if mu is None else 4 + mu) for mu in fields]
    accept_rng = stream(cfg.seed, 9)
    sizes = {**_STEP_SIZES, **cfg.step_sizes}
    steps = [float(sizes["phi" if mu is None else "A"]) for mu in fields]
    kernel = Kernel(m, sig.e, sig.eps_dblprime)
    kernel.X[...], kernel.P[...] = LX, DF_big  # A = 0, phi = 0
    written = [kernel.S[STACK_P if row == STACK_PHI else row:row + 1] for row in rows]
    saved = [np.empty_like(w) for w in written]
    current = sector_breakdown(kernel.traces(), cfg.poly)
    if not abs(current.total_closed) <= _DIVERGENCE:  # also catches NaN
        raise UnstableAction(f"initial action {current.total_closed:.3e}")

    chunk = max(1, _DRAW_ENTRIES // (m * m))
    accepted = [0] * len(fields)  # per field, restarted when burn-in ends
    window_start = accepted[:]
    trajectory = []
    records = []

    for sweep in range(cfg.steps):
        j = sweep % chunk
        if j == 0:
            k = min(chunk, cfg.steps - sweep)
            draws = increments = None  # release the last chunk's before the next is drawn
            draws = [_generators(rng, k, m, *t) for rng, t in zip(rngs, types)]
            increments = [step * d for step, d in zip(steps, draws)]
        for i, row in enumerate(rows):
            np.copyto(saved[i], written[i])
            kernel.S[row] += increments[i][j]
            if row == STACK_PHI:
                np.add(DF_big, kernel.phi, out=kernel.P)
            proposed = sector_breakdown(kernel.traces(), cfg.poly)
            delta = proposed.total_closed - current.total_closed
            if delta <= 0 or accept_rng.random() < math.exp(-delta):
                current = proposed
                accepted[i] += 1
            else:
                np.copyto(written[i], saved[i])

        if not abs(current.total_closed) <= _DIVERGENCE:
            raise UnstableAction(f"action {current.total_closed:.3e} at sweep {sweep}")
        in_burn = sweep < cfg.burn_in
        if in_burn and cfg.autotune and (sweep + 1) % _TUNE_INTERVAL == 0:
            # each field is proposed once per sweep: a window is _TUNE_INTERVAL proposals
            lo, hi = _TARGET_ACCEPTANCE
            rates = [(a - a0) / _TUNE_INTERVAL for a, a0 in zip(accepted, window_start)]
            for i, rate in enumerate(rates):
                if rate > hi:
                    steps[i] *= 1.25
                elif rate < lo:
                    steps[i] /= 1.25
            increments = None  # release the old ones before the rescaled are made
            increments = [step * d for step, d in zip(steps, draws)]
            trajectory.append({"sweep": sweep, "acceptance": dict(zip(names, rates)),
                               "step_sizes": dict(zip(names, steps))})
            window_start = accepted[:]
        if sweep + 1 == cfg.burn_in:  # the counts restart; no tuning window reads them after
            accepted = [0] * len(fields)

        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            rate = sum(accepted) / ((sweep + 1 - cfg.burn_in) * len(fields))
            records.append(SampleRecord(step=sweep, s_total=current.total_closed,
                                        s_ym=current.s_ym, s_h=current.s_h, s_gh=current.s_gh,
                                        s_theta=current.s_theta, acceptance=rate))
    proposals = (cfg.steps - cfg.burn_in) * len(fields)
    state = ChainState(L=L, A=kernel.X - LX, phi=kernel.phi.copy(),
                       breakdown=current, accept_count=sum(accepted),
                       proposal_count=proposals)
    sampled = cfg.steps - cfg.burn_in or math.nan  # no sweep after burn-in: NaN rates
    info = {"step_sizes": dict(zip(names, steps)),
            "final_state": state,
            "acceptance": state.accept_count / (proposals or math.nan),
            "acceptance_by_field": {name: a / sampled for name, a in zip(names, accepted)},
            "step_size_trajectory": trajectory}
    return records, info


def symmetric_histogram(ev: np.ndarray, bins: int):
    """(edges, counts) of the values ev over [-max|ev|, max|ev|], or [-1, 1] if all are 0."""
    span = float(np.abs(ev).max())
    if span == 0.0:
        span = 1.0
    counts, edges = np.histogram(ev, bins=bins, range=(-span, span))
    return edges, counts


def gaussian_self_test(N: int = 2, samples: int = 100_000, seed: int = 0,
                       burn_in: int = 1000) -> dict:
    """Metropolis on one Hermitian matrix with weight exp(-Tr M^2).

    The generators are drawn as the chain draws them (`_generators`, in
    chunks) and accepted by the chain's rule.  The analytic mean of Tr M^2
    is N^2 / 2; the summary reports the chain mean, its batch-means standard
    error and whether the target lies within three of them (None if undefined).
    """
    for name, value, least in (("N", N, 1), ("samples", samples, 1), ("seed", seed, 0),
                               ("burn_in", burn_in, 0)):
        _require_count(name, value, least)
    rng, accept_rng = stream(seed, 0), stream(seed, 9)
    M = np.zeros((N, N), dtype=complex)
    action = 0.0
    accepted = 0
    trace_sq = np.empty(samples)
    total = burn_in + samples
    chunk = max(1, _DRAW_ENTRIES // (N * N))
    for i in range(total):
        j = i % chunk
        if j == 0:
            increments = _SELF_TEST_STEP * _generators(rng, min(chunk, total - i), N, 1, 1)
        cand = M + increments[j]
        new_action = float(np.trace(cand @ cand).real)
        delta = new_action - action
        if delta <= 0 or accept_rng.random() < math.exp(-delta):
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
        "within_3se": None if math.isnan(se) else bool(abs(mean - target) <= 3 * se),
        "acceptance": accepted / samples,
    }
