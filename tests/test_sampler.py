import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from ncg_ymh import dirac, fluct, sampler
from ncg_ymh.action import ActionPolynomial, Kernel, bitracial_traces, sector_breakdown
from ncg_ymh.clifford import build_module, build_signature
from ncg_ymh.dirac import FiniteData, GaugeTriple
from ncg_ymh.errors import UnstableAction

QUARTIC = ActionPolynomial((0.0, 1.0, 0.0, 1.0))
# d/dlam at lam = 1 of a polynomial of degree <= 4, from its values at LAMBDAS
LAMBDAS = np.array([-1.0, 0.0, 1.0, 2.0, 3.0])
LAGRANGE = np.linalg.solve(np.vander(LAMBDAS, increasing=True).T, np.arange(5.0))


def ym_template(N=2, n=2, seed=0, p=0, q=4):
    sig = build_signature(p, q)
    return GaugeTriple(fuzzy=dirac.zero_fuzzy(N, sig),
                       finite=FiniteData(n=n, D_F=np.zeros((n, n), dtype=complex)))


def higgs_template(N=2, n=2, seed=0, p=0, q=4):
    sig = build_signature(p, q)
    DF = dirac.random_hermitian(n, np.random.default_rng(seed))
    return GaugeTriple(fuzzy=dirac.zero_fuzzy(N, sig), finite=FiniteData(n=n, D_F=DF))


def test_config_validation():
    with pytest.raises(ValueError):
        sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=5, burn_in=10)
    with pytest.raises(ValueError):
        sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=5, thin=0)
    with pytest.raises(ValueError):
        sampler.SamplerConfig(N=2, n=2, poly=ActionPolynomial((1.0,)), steps=5)
    with pytest.raises(ValueError):
        sampler.SamplerConfig(N=2, n=2, poly=ActionPolynomial((0.0, 1.0, 0.0, -1.0)), steps=5)


def test_config_refuses_degree_above_four():
    # the kernel reads a2 and a4 only; a sextic would be weighed as its quartic part
    with pytest.raises(ValueError, match="degree 6"):
        sampler.SamplerConfig(N=2, n=2, poly=ActionPolynomial((0, 1, 0, 0, 0, 1)), steps=5)


@pytest.mark.parametrize("sizes", [{"A": math.nan}, {"A": 0.0}, {"phi": math.inf},
                                   {"phi": -0.1}, {"A": "0.1"}, {"A": True}])
def test_config_refuses_a_step_size_that_is_not_positive_and_finite(sizes):
    # nan and inf rejected every proposal of their field, and 0 accepted every one
    (key, value), = sizes.items()
    with pytest.raises(ValueError, match=rf"step_sizes\['{key}'\] = {value!r}"):
        sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=5, step_sizes=sizes)


def test_zero_steps_empty_records():
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=0, burn_in=0)
    records, _ = sampler.run_chain(cfg, ym_template())
    assert records == []


def test_determinism_bit_identical():
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=40, burn_in=10, seed=77)
    r1, _ = sampler.run_chain(cfg, ym_template())
    r2, _ = sampler.run_chain(cfg, ym_template())
    assert len(r1) == len(r2) > 0
    for a, b in zip(r1, r2):
        assert a == b  # dataclass equality, exact float comparison


# sha256 (first 16 hex digits) of a chain's records, final A and phi, tuned step sizes and
# step-size trajectory, as the sampler gave them once the kernel read F^2 and [d, Phi]^2
# as minus squared norms: the records moved by rounding only, every accept decision and
# so the final state, step sizes and trajectory stayed (numpy 2.4.6, OpenBLAS 0.3.31)
CHAIN_DIGESTS = {"yang_mills": "6c30ba8cffeb4da5", "higgs": "8ea81b469a675b4c"}


@pytest.mark.parametrize("kind", ["yang_mills", "higgs"])
def test_chain_is_pinned_across_versions(kind):
    gt = ym_template() if kind == "yang_mills" else higgs_template(seed=2)
    # steps start above their tuned sizes, so every tuning window moves some of them
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=300, burn_in=100, seed=31,
                                step_sizes={"A": 0.2, "phi": 0.2})
    records, info = sampler.run_chain(cfg, gt)
    state = info["final_state"]
    h = hashlib.sha256()
    h.update(np.array([dataclasses.astuple(r) for r in records]).tobytes())
    h.update(state.A.tobytes())
    h.update(state.phi.tobytes())
    h.update(json.dumps([info["step_sizes"], info["step_size_trajectory"]]).encode())
    assert len(info["step_size_trajectory"]) == 4
    assert h.hexdigest()[:16] == CHAIN_DIGESTS[kind]


def test_state_stays_on_moduli_space():
    gt = higgs_template(seed=3)
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=30, burn_in=5, seed=5)
    records, info = sampler.run_chain(cfg, gt)
    st = info["final_state"]
    for mu in range(4):
        assert np.abs(st.L[mu] + st.L[mu].conj().T).max() <= 1e-12
        assert abs(np.trace(st.L[mu])) <= 1e-12
        assert np.abs(st.A[mu] + st.A[mu].conj().T).max() <= 1e-12
    assert np.abs(st.phi - st.phi.conj().T).max() <= 1e-12
    # D_F is not scalar, so the Higgs space is all of Herm(m): a Hermitian
    # phi is in it
    assert not gt.finite.is_scalar
    # in (1, 3) the anticommutator {X_0, .} sees the trace of the Hermitian A_0,
    # while Phi = l(P) - r(phi) does not see that of phi
    gt = higgs_template(seed=3, p=1, q=3)
    _, info = sampler.run_chain(cfg, gt)
    st = info["final_state"]
    assert np.abs(st.A[0] - st.A[0].conj().T).max() <= 1e-12
    assert abs(np.trace(st.A[0])) > 1e-3
    for mu in range(1, 4):
        assert np.abs(st.A[mu] + st.A[mu].conj().T).max() <= 1e-12
        assert abs(np.trace(st.A[mu])) <= 1e-12
    assert np.abs(st.phi - st.phi.conj().T).max() <= 1e-12
    assert np.abs(st.phi).max() > 1e-3 and abs(np.trace(st.phi)) <= 1e-12


def test_scalar_finite_dirac_has_no_higgs():
    # a nonzero scalar D_F is not Yang-Mills data, but its one-form span is 0,
    # so the chain proposes only the A_mu and phi stays exactly 0
    sig = build_signature(0, 4)
    gt = GaugeTriple(fuzzy=dirac.zero_fuzzy(2, sig),
                     finite=FiniteData(n=2, D_F=2.5 * np.eye(2, dtype=complex)))
    assert not gt.yang_mills and gt.finite.is_scalar
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=30, burn_in=5, seed=3)
    _, info = sampler.run_chain(cfg, gt)
    assert list(info["acceptance_by_field"]) == ["A0", "A1", "A2", "A3"]
    assert not info["final_state"].phi.any()


def test_record_sector_sum():
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=25, burn_in=5, seed=9)
    records, _ = sampler.run_chain(cfg, higgs_template(seed=2))
    assert records
    for r in records:
        total = r.s_ym + r.s_h + r.s_gh + r.s_theta
        assert abs(total - r.s_total) <= 1e-9 * max(1.0, abs(r.s_total))


def test_sampler_action_matches_sectors_module():
    # the chain's action agrees with action.sectors on random states
    from ncg_ymh.action import sectors
    gt = higgs_template(seed=4)
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=12, burn_in=0, seed=11)
    records, info = sampler.run_chain(cfg, gt)
    st = info["final_state"]
    fz = dirac.FuzzyData(sig=gt.sig, K=st.L, K_hat=np.zeros_like(st.L))
    gt_state = GaugeTriple(fuzzy=fz, finite=gt.finite)
    fl = fluct.Fluctuation(A=st.A, S=np.zeros_like(st.A), phi=st.phi)
    br = sectors(gt_state, fl, QUARTIC)
    assert abs(br.total_closed - st.current_action) <= 1e-9 * max(1.0, abs(br.total_closed))


def test_unstable_action_detected():
    sig = build_signature(0, 4)
    rng = np.random.default_rng(0)
    big = np.array([1e4 * 1j * dirac.random_hermitian(2, rng) for mu in range(4)])
    gt = GaugeTriple(fuzzy=dirac.FuzzyData(sig=sig, K=big, K_hat=np.zeros_like(big)),
                     finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=5, burn_in=5, seed=1)
    with pytest.raises(UnstableAction):
        sampler.run_chain(cfg, gt)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_action_is_unstable():
    # blocks of size 1e100 overflow the kernel: the action is NaN from the start
    sig = build_signature(0, 4)
    gt = GaugeTriple(fuzzy=dirac.random_fuzzy(2, sig, scale=1e100, include_X=False),
                     finite=FiniteData(n=2, D_F=np.diag([1.0, -1.0]).astype(complex)))
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=20, burn_in=5, seed=1)
    with pytest.raises(UnstableAction, match="nan"):
        sampler.run_chain(cfg, gt)


# sha256 (first 16 hex digits) of gaussian_self_test(N=2, samples=20_000, seed=3)["samples"],
# as the self test gave them with one random_hermitian draw per step (numpy 2.4.6,
# OpenBLAS 0.3.31)
SELF_TEST_DIGEST = "b09cbd6ae888e412"


def test_gaussian_self_test_is_pinned_across_versions():
    res = sampler.gaussian_self_test(N=2, samples=20_000, seed=3)
    assert hashlib.sha256(res["samples"].tobytes()).hexdigest()[:16] == SELF_TEST_DIGEST


def test_gaussian_self_test_quick():
    res = sampler.gaussian_self_test(N=2, samples=20_000, seed=3)
    assert abs(res["mean_tr_m2"] - 2.0) <= 4 * res["stderr"]
    assert 0.05 < res["acceptance"] < 0.95


@pytest.mark.parametrize("samples", [0, -1])
def test_gaussian_self_test_refuses_no_samples(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sampler.gaussian_self_test(N=2, samples=samples)


@pytest.mark.parametrize("N", [0, -1])
def test_gaussian_self_test_refuses_an_empty_matrix(N):
    # N = 0 would divide by N^2 for the draw chunk, N = -1 ask numpy for a negative shape
    with pytest.raises(ValueError, match="N must be >= 1"):
        sampler.gaussian_self_test(N=N, samples=10)


@pytest.mark.parametrize("burn_in", [-5, -20])
def test_gaussian_self_test_refuses_negative_burn_in(burn_in):
    # a negative burn_in would leave samples unwritten (-5) or run no step at all (-20)
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        sampler.gaussian_self_test(N=2, samples=10, burn_in=burn_in)


def test_batch_means_and_stationarity():
    rng = np.random.default_rng(8)
    x = rng.normal(loc=5.0, scale=1.0, size=4000)
    mean, se = sampler.batch_means(x)
    assert abs(mean - 5.0) < 0.1
    assert 0.0 < se < 0.2
    rep = sampler.stationarity_check(x)
    assert rep["stationary"]
    drift = x + np.linspace(0, 30, x.size)
    assert not sampler.stationarity_check(drift)["stationary"]
    # halves that agree exactly are stationary, though their standard errors are 0
    constant = sampler.stationarity_check(np.zeros(50))
    assert constant["combined_se"] == 0.0
    assert constant["stationary"]


def test_eigen_histogram():
    edges, counts = sampler.symmetric_histogram(np.linalg.eigvalsh(np.zeros((6, 6))), bins=3)
    assert counts.sum() == 6
    assert counts[1] == 6  # zero eigenvalues in the middle bin

    edges, counts = sampler.symmetric_histogram(
        np.linalg.eigvalsh(np.diag([1.0, -1.0, 0.5, -0.5])), bins=1)
    assert counts.sum() == 4


def test_chiral_pairing_symmetric_spectrum():
    # Yang-Mills D anticommutes with gamma (x) 1: spectrum symmetric
    sig = build_signature(0, 4)
    mod = build_module(0, 4)
    fz = dirac.random_fuzzy(2, sig, seed=13, include_X=True)
    gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    D = fluct.assemble_fluctuated(gt, fluct.zero_fluctuation(gt), mod)
    ev = np.sort(np.linalg.eigvalsh(D))
    np.testing.assert_allclose(ev, -ev[::-1], atol=1e-10)


@pytest.mark.parametrize("p,q", [(0, 4), (1, 3), (4, 0)])
def test_records_describe_the_state_at_their_sweep(p, q):
    # a chain cut after sweep k ends in the state that sweep k recorded, so a rejected
    # proposal left its rows as they were: in (1, 3) phi is traceless and A_0 Hermitian, in
    # (4, 0) every A_mu is Hermitian
    from ncg_ymh.action import sectors
    gt = higgs_template(seed=6, p=p, q=q)
    steps, burn_in = 12, 4
    opts = dict(N=2, n=2, poly=QUARTIC, burn_in=burn_in, seed=21, autotune=False,
                step_sizes={"L": 0.1, "A": 0.1, "phi": 0.1})
    records, info = sampler.run_chain(sampler.SamplerConfig(steps=steps, **opts), gt)
    assert [r.step for r in records] == list(range(burn_in, steps))
    assert 0.05 < records[-1].acceptance < 0.8  # rejected candidates are common
    for r in records:
        _, cut = sampler.run_chain(sampler.SamplerConfig(steps=r.step + 1, **opts), gt)
        st = cut["final_state"]
        fz = dirac.FuzzyData(sig=gt.sig, K=st.L, K_hat=np.zeros_like(st.L))
        br = sectors(GaugeTriple(fuzzy=fz, finite=gt.finite), st.fluctuation(), QUARTIC)
        for name in ("s_ym", "s_h", "s_gh", "s_theta"):
            want = getattr(br, name)
            assert abs(getattr(r, name) - want) <= 1e-12 * max(abs(want), 1e-300), name
        assert abs(r.s_total - br.total_closed) <= 1e-12 * abs(br.total_closed)


def recorded_states(monkeypatch, cfg, gt):
    """Run a chain; return, per record, the (X, P, phi) its action was read from."""
    by_total, last = {}, []
    traces, breakdown = Kernel.traces, sampler.sector_breakdown

    def spy_traces(kernel):
        last[:] = [(kernel.X.copy(), kernel.P.copy(), kernel.phi.copy())]
        return traces(kernel)

    def spy_breakdown(tr, poly):
        br = breakdown(tr, poly)
        by_total[br.total_closed] = last[0]
        return br

    monkeypatch.setattr(Kernel, "traces", spy_traces)
    monkeypatch.setattr(sampler, "sector_breakdown", spy_breakdown)
    records, _ = sampler.run_chain(cfg, gt)
    monkeypatch.undo()
    return [by_total[r.s_total] for r in records]


@pytest.mark.parametrize("kind,p,q", [
    pytest.param(kind, p, q, id=kind if (p, q) == (0, 4) else f"{kind}-{p}-{q}")
    for p, q in ((0, 4), (1, 3), (2, 2)) for kind in ("yang_mills", "higgs")])
def test_chain_samples_its_weight_schwinger_dyson(monkeypatch, kind, p, q):
    # Scaling identities <v . grad S> = dim_R V for v(x) = x, per field group:
    # X_mu = L_mu (x) 1 + A_mu ranges over su(m) where e_mu = -1 (S is constant
    # along X_mu -> X_mu + i c 1) and over Herm(m) where e_mu = +1, phi over
    # Herm(m), or its traceless part where eps'' = -1 (S is constant along
    # phi -> phi + c 1).  v . grad S at a state is d/dlam S(lam X, phi), resp.
    # d/dlam S(X, lam phi), at lam = 1, exact from the kernel at five lam since
    # S is quartic.
    gt = ym_template(p=p, q=q) if kind == "yang_mills" else higgs_template(seed=1, p=p, q=q)
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=3000, burn_in=300, thin=5,
                                seed=101)
    states = recorded_states(monkeypatch, cfg, gt)
    m = 4
    targets = {"X": sum(m * m if e == 1 else m * m - 1 for e in gt.sig.e)}
    if kind == "higgs":
        targets["phi"] = m * m - (gt.sig.eps_dblprime == -1)

    def scaled(name, X, P, phi, lam):
        return (lam * X, P, phi) if name == "X" else (X, P + (lam - 1) * phi, lam * phi)

    e, eps = gt.sig.e, gt.sig.eps_dblprime
    traces = {name: [[bitracial_traces(*scaled(name, *st, lam), e, eps) for lam in LAMBDAS]
                     for st in states] for name in targets}
    # the same states weighed with a4 doubled must miss: the gate can fail
    for poly, holds in ((QUARTIC, True), (ActionPolynomial((0.0, 1.0, 0.0, 2.0)), False)):
        for name, target in targets.items():
            virial = [LAGRANGE @ [sector_breakdown(tr, poly).total_closed for tr in row]
                      for row in traces[name]]
            mean, se = sampler.batch_means(virial)
            assert (abs(mean - target) <= 4 * se) == holds, (name, poly.coeffs, mean, se)


def test_divergence_after_burn_in_is_unstable():
    # a2 = -1e13 drives the fields outwards from the first sweep; with no burn-in
    # the chain used to record |S| ~ 1e15 and return
    cfg = sampler.SamplerConfig(N=2, n=2, poly=ActionPolynomial((0, -1e13, 0, 1)), steps=40,
                                burn_in=0, seed=1)
    with pytest.raises(UnstableAction, match="at sweep"):
        sampler.run_chain(cfg, ym_template())


def ar1(rho, n, seed):
    """Stationary AR(1) series with unit variance."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=n) * np.sqrt(1 - rho * rho)
    x = np.empty(n)
    x[0] = rng.normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_tau_int_of_ar1(rho):
    # tau_int = 1/2 + sum_t rho^t = (1 + rho) / (2 (1 - rho)); the windowed estimate
    # scatters by about 2 % here
    x = ar1(rho, 100_000, seed=17)
    exact = (1 + rho) / (2 * (1 - rho))
    assert abs(sampler.tau_int(x) / exact - 1) <= 0.1
    assert sampler.effective_sample_size(x) == x.size / (2 * sampler.tau_int(x))


def test_tau_int_degenerate_series():
    assert sampler.tau_int([]) == 0.5
    assert sampler.tau_int([3.0] * 50) == 0.5
    assert sampler.effective_sample_size([]) == 0.0


def test_chain_reports_acceptance_per_field_and_tuning_trajectory():
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=135, burn_in=75, seed=4)
    records, info = sampler.run_chain(cfg, higgs_template(seed=2))
    by_field = info["acceptance_by_field"]
    assert list(by_field) == ["A0", "A1", "A2", "A3", "phi"]
    assert all(0 <= rate <= 1 for rate in by_field.values())
    # every field is proposed once per sweep, so the overall rate is the mean
    assert abs(np.mean(list(by_field.values())) - info["acceptance"]) <= 1e-12
    assert abs(records[-1].acceptance - info["acceptance"]) <= 1e-12
    trajectory = info["step_size_trajectory"]
    assert [entry["sweep"] for entry in trajectory] == [24, 49, 74]
    assert trajectory[-1]["step_sizes"] == info["step_sizes"]
    lo, hi = sampler._TARGET_ACCEPTANCE
    before = {name: 0.1 if name == "phi" else 0.08 for name in by_field}
    for entry in trajectory:
        assert set(entry["acceptance"]) == set(entry["step_sizes"]) == set(by_field)
        for name, rate in entry["acceptance"].items():
            factor = 1.25 if rate > hi else 1 / 1.25 if rate < lo else 1.0
            assert entry["step_sizes"][name] == pytest.approx(before[name] * factor, rel=1e-15)
        before = entry["step_sizes"]
    _, fixed = sampler.run_chain(sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=30,
                                                       burn_in=20, autotune=False), ym_template())
    assert fixed["step_size_trajectory"] == []
    assert list(fixed["acceptance_by_field"]) == ["A0", "A1", "A2", "A3"]


def reference_chain(cfg, gt):
    """Plain Metropolis over (A, phi) with the sampler's streams and tuning rule.

    One `random_hermitian` draw per proposal on spawn key 4 + mu (A_mu) or 8
    (phi), the accept uniforms on key 9, and the action from `action.sectors`.
    A_mu's increment is i times the traceless part of the draw where e_mu = -1
    and the draw itself where e_mu = +1; phi's is the draw, made traceless
    where eps'' = -1.  Returns the accept decisions, the breakdown after every
    sweep and the final step sizes.
    """
    from ncg_ymh.action import sectors
    N, m, e = cfg.N, cfg.N * cfg.n, gt.sig.e
    L = []
    for mu in range(4):
        K = np.asarray(gt.fuzzy.K[mu], dtype=complex)
        L.append(K - np.trace(K) / N * np.eye(N) if e[mu] == -1 else K)
    L = np.array(L)
    fixed = GaugeTriple(fuzzy=dirac.FuzzyData(sig=gt.sig, K=L, K_hat=np.zeros_like(L)),
                        finite=gt.finite)
    S = np.zeros((4, m, m), dtype=complex)

    def action(A, phi):
        return sectors(fixed, fluct.Fluctuation(A=np.array(A), S=S, phi=phi), cfg.poly)

    keys = {f"A{mu}": 4 + mu for mu in range(4)}
    if not gt.finite.is_scalar:
        keys["phi"] = 8
    rngs = {name: np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)))
            for name, k in keys.items()}
    accept_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(9,)))
    steps = {name: cfg.step_sizes["phi" if name == "phi" else "A"] for name in keys}
    A, phi = [np.zeros((m, m), dtype=complex)] * 4, np.zeros((m, m), dtype=complex)
    current = action(A, phi)
    window = dict.fromkeys(keys, 0)
    decisions, states = [], []
    for sweep in range(cfg.steps):
        for name, rng in rngs.items():
            H = dirac.random_hermitian(m, rng)
            A_c, phi_c = list(A), phi
            if name == "phi":
                if gt.sig.eps_dblprime == -1:
                    H = H - np.trace(H) / m * np.eye(m)
                phi_c = phi + steps[name] * H
            else:
                mu = int(name[1])
                if e[mu] == -1:
                    H = 1j * (H - np.trace(H) / m * np.eye(m))
                A_c[mu] = A[mu] + steps[name] * H
            cand = action(A_c, phi_c)
            delta = cand.total_closed - current.total_closed
            accept = bool(delta <= 0 or accept_rng.uniform() < np.exp(-delta))
            decisions.append(accept)
            if accept:
                A, phi, current = A_c, phi_c, cand
                window[name] += 1
        if sweep < cfg.burn_in and cfg.autotune and (sweep + 1) % sampler._TUNE_INTERVAL == 0:
            lo, hi = sampler._TARGET_ACCEPTANCE
            for name, accepted in window.items():
                rate = accepted / sampler._TUNE_INTERVAL
                steps[name] *= 1.25 if rate > hi else 1 / 1.25 if rate < lo else 1
            window = dict.fromkeys(keys, 0)
        states.append(current)
    return decisions, states, steps


def test_chain_matches_reference_metropolis_loop(monkeypatch):
    # (1, 3) has a Hermitian A_0 with its trace and a traceless phi; in (4, 0) every
    # A_mu is Hermitian
    for p, q in ((0, 4), (1, 3), (4, 0)):
        match_reference_loop(monkeypatch, higgs_template(seed=8, p=p, q=q))


def match_reference_loop(monkeypatch, gt):
    # m = 4: more than one draw chunk (sampler._DRAW_ENTRIES // m^2 sweeps) and
    # four tuning windows, autotune on
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=300, burn_in=100, seed=23)
    assert cfg.steps > sampler._DRAW_ENTRIES // 16 and cfg.burn_in > 2 * sampler._TUNE_INTERVAL
    candidates = []
    breakdown = sampler.sector_breakdown

    def spy(tr, poly):
        candidates.append(breakdown(tr, poly).total_closed)
        return breakdown(tr, poly)

    monkeypatch.setattr(sampler, "sector_breakdown", spy)
    records, info = sampler.run_chain(cfg, gt)
    monkeypatch.undo()
    # decode run_chain's decisions: its candidates, its accept stream, its rule
    accept_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(9,)))
    current, decisions, after_sweep = candidates[0], [], []
    for k, cand in enumerate(candidates[1:]):
        delta = cand - current
        accept = bool(delta <= 0 or accept_rng.random() < math.exp(-delta))
        decisions.append(accept)
        current = cand if accept else current
        if (k + 1) % 5 == 0:
            after_sweep.append(current)
    assert [r.s_total for r in records] == after_sweep[cfg.burn_in:]

    want_decisions, states, want_steps = reference_chain(cfg, gt)
    assert decisions == want_decisions
    assert 0.1 < np.mean(decisions) < 0.9  # both outcomes are exercised
    assert info["step_sizes"] == pytest.approx(want_steps, rel=1e-15)
    for r, want in zip(records, states[cfg.burn_in:]):
        for name in ("s_total", "s_ym", "s_h", "s_gh", "s_theta"):
            w = getattr(want, "total_closed" if name == "s_total" else name)
            assert abs(getattr(r, name) - w) <= 1e-12 * abs(w), (r.step, name)
