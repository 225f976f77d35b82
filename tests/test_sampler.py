import numpy as np
import pytest

from ncg_ymh import dirac, fluct, sampler
from ncg_ymh.action import ActionPolynomial, bitracial_traces, sector_breakdown
from ncg_ymh.clifford import build_module, build_signature
from ncg_ymh.dirac import FiniteData, GaugeTriple
from ncg_ymh.errors import NotSelfAdjoint, UnstableAction

QUARTIC = ActionPolynomial((0.0, 1.0, 0.0, 1.0))
# d/dlam at lam = 1 of a polynomial of degree <= 4, from its values at LAMBDAS
LAMBDAS = np.array([-1.0, 0.0, 1.0, 2.0, 3.0])
LAGRANGE = np.linalg.solve(np.vander(LAMBDAS, increasing=True).T, np.arange(5.0))


def ym_template(N=2, n=2, seed=0):
    sig = build_signature(0, 4)
    return GaugeTriple(fuzzy=dirac.zero_fuzzy(N, sig),
                       finite=FiniteData(n=n, D_F=np.zeros((n, n), dtype=complex)))


def higgs_template(N=2, n=2, seed=0):
    sig = build_signature(0, 4)
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
    basis = fluct.selfadjoint_span_basis(fluct.one_form_span(gt.finite.D_F))
    proj = fluct.project_higgs(st.phi, 2, 2, basis)
    assert np.abs(proj - st.phi).max() <= 1e-10  # phi lies in the Higgs span


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
    fz = dirac.FuzzyData(N=2, sig=gt.sig,
                         K={dirac.single(mu): st.L[mu] for mu in range(4)})
    gt_state = GaugeTriple(fuzzy=fz, finite=gt.finite)
    fl = fluct.Fluctuation(A=tuple(st.A), S=None, phi=st.phi)
    br = sectors(gt_state, fl, QUARTIC)
    assert abs(br.total_closed - st.current_action) <= 1e-9 * max(1.0, abs(br.total_closed))


def test_unstable_action_detected():
    sig = build_signature(0, 4)
    rng = np.random.default_rng(0)
    big = {dirac.single(mu): 1e4 * 1j * dirac.random_hermitian(2, rng) for mu in range(4)}
    gt = GaugeTriple(fuzzy=dirac.FuzzyData(N=2, sig=sig, K=big),
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


def test_gaussian_self_test_quick():
    res = sampler.gaussian_self_test(N=2, samples=20_000, seed=3)
    assert abs(res["mean_tr_m2"] - 2.0) <= 4 * res["stderr"]
    assert 0.05 < res["acceptance"] < 0.95


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


def test_eigen_histogram():
    edges, counts = sampler.eigen_histogram(np.zeros((6, 6)), bins=3)
    assert counts.sum() == 6
    assert counts[1] == 6  # zero eigenvalues in the middle bin

    edges, counts = sampler.eigen_histogram(np.diag([1.0, -1.0, 0.5, -0.5]), bins=1)
    assert counts.sum() == 4

    with pytest.raises(NotSelfAdjoint):
        sampler.eigen_histogram(np.array([[0.0, 1.0], [0.0, 0.0]]), bins=2)


def test_chiral_pairing_symmetric_spectrum():
    # Yang-Mills D anticommutes with gamma (x) 1: spectrum symmetric
    sig = build_signature(0, 4)
    mod = build_module(0, 4)
    fz = dirac.random_fuzzy(2, sig, seed=13, include_X=True)
    gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    D = dirac.assemble_product_dirac(gt, mod)
    ev = np.sort(np.linalg.eigvalsh(D))
    np.testing.assert_allclose(ev, -ev[::-1], atol=1e-10)


def test_eigen_histogram_rejects_non_finite():
    with pytest.raises(NotSelfAdjoint):
        sampler.eigen_histogram(np.diag([1.0, np.nan, -1.0]), bins=2)


def test_records_describe_the_state_at_their_sweep():
    # a chain cut after sweep k ends in the state that sweep k recorded
    from ncg_ymh.action import sectors
    gt = higgs_template(seed=6)
    steps, burn_in = 12, 4
    opts = dict(N=2, n=2, poly=QUARTIC, burn_in=burn_in, seed=21, autotune=False,
                step_sizes={"L": 0.1, "A": 0.1, "phi": 0.1})
    records, info = sampler.run_chain(sampler.SamplerConfig(steps=steps, **opts), gt)
    assert [r.step for r in records] == list(range(burn_in, steps))
    assert 0.05 < records[-1].acceptance < 0.8  # rejected candidates are common
    for r in records:
        _, cut = sampler.run_chain(sampler.SamplerConfig(steps=r.step + 1, **opts), gt)
        st = cut["final_state"]
        fz = dirac.FuzzyData(N=2, sig=gt.sig,
                             K={dirac.single(mu): st.L[mu] for mu in range(4)})
        br = sectors(GaugeTriple(fuzzy=fz, finite=gt.finite), st.fluctuation(), QUARTIC)
        for name in ("s_ym", "s_h", "s_gh", "s_theta"):
            want = getattr(br, name)
            assert abs(getattr(r, name) - want) <= 1e-12 * max(abs(want), 1e-300), name
        assert abs(r.s_total - br.total_closed) <= 1e-12 * abs(br.total_closed)


def recorded_states(monkeypatch, cfg, gt):
    """Run a chain; return, per record, the (X, P, phi) its action was read from."""
    by_total, last = {}, []
    traces, breakdown = sampler.bitracial_traces, sampler.sector_breakdown

    def spy_traces(X, P, phi, e, eps):
        last[:] = [(X, P, phi)]
        return traces(X, P, phi, e, eps)

    def spy_breakdown(tr, poly):
        br = breakdown(tr, poly)
        by_total[br.total_closed] = last[0]
        return br

    monkeypatch.setattr(sampler, "bitracial_traces", spy_traces)
    monkeypatch.setattr(sampler, "sector_breakdown", spy_breakdown)
    records, _ = sampler.run_chain(cfg, gt)
    monkeypatch.undo()
    return [by_total[r.s_total] for r in records]


@pytest.mark.parametrize("kind", ["yang_mills", "higgs"])
def test_chain_samples_its_weight_schwinger_dyson(monkeypatch, kind):
    # Scaling identities <v . grad S> = dim_R V for v(x) = x, per field group:
    # X_mu = L_mu (x) 1 + A_mu ranges over su(m)^4 (S is constant along
    # X_mu -> X_mu + i c 1), phi over Herm(m).  v . grad S at a state is
    # d/dlam S(lam X, phi), resp. d/dlam S(X, lam phi), at lam = 1, exact from
    # the kernel at five lam since S is quartic.
    gt = ym_template() if kind == "yang_mills" else higgs_template(seed=1)
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=3000, burn_in=300, thin=5,
                                seed=101)
    states = recorded_states(monkeypatch, cfg, gt)
    m = 4
    targets = {"X": 4 * (m * m - 1)} if kind == "yang_mills" else \
        {"X": 4 * (m * m - 1), "phi": m * m}

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
