import numpy as np
import pytest

from ncg_ymh import dirac, fluct, sampler
from ncg_ymh.action import ActionPolynomial
from ncg_ymh.clifford import build_module, build_signature
from ncg_ymh.dirac import FiniteData, GaugeTriple
from ncg_ymh.errors import NotSelfAdjoint, UnstableAction

QUARTIC = ActionPolynomial((0.0, 1.0, 0.0, 1.0))


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


def test_records_with_histograms():
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=10, burn_in=2,
                                thin=4, seed=3, histogram_bins=6)
    records, _ = sampler.run_chain(cfg, ym_template())
    assert records
    for r in records:
        edges, counts = r.histogram
        assert len(edges) == 7 and len(counts) == 6
        assert sum(counts) == 64


def test_chiral_pairing_symmetric_spectrum():
    # Yang-Mills D anticommutes with gamma (x) 1: spectrum symmetric
    sig = build_signature(0, 4)
    mod = build_module(0, 4)
    fz = dirac.random_fuzzy(2, sig, seed=13, include_X=True)
    gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    D = dirac.assemble_product_dirac(gt, mod)
    ev = np.sort(np.linalg.eigvalsh(D))
    np.testing.assert_allclose(ev, -ev[::-1], atol=1e-10)
