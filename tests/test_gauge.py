import numpy as np
import pytest

from ncg_ymh import dirac, fluct, gauge, verify
from ncg_ymh.action import ActionPolynomial
from ncg_ymh.clifford import build_gammas, build_signature
from ncg_ymh.dirac import FiniteData, GaugeTriple
from ncg_ymh.errors import DimensionMismatch, NotFlat

POLY = ActionPolynomial((0.0, 0.5, 0.0, 1.0))
SIGNATURES = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]


def make_triple(N=2, n=2, seed=0, with_DF=True, p=0, q=4):
    sig = build_signature(p, q)
    fz = dirac.random_fuzzy(N, sig, seed=seed, include_X=False)
    DF = dirac.random_hermitian(n, np.random.default_rng(seed + 99)) if with_DF \
        else np.zeros((n, n), dtype=complex)
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))


def test_random_unitary_properties():
    g = gauge.random_unitary(2, 3, seed=1)
    m = 6
    assert np.abs(g.u.conj().T @ g.u - np.eye(m)).max() <= 1e-12

    gp = gauge.random_unitary(2, 3, product_form=True, seed=2)
    u1, u2 = gp.factors
    np.testing.assert_allclose(gp.u, np.kron(u1, u2), atol=1e-14)
    # tensor determinant rule: det(u1 (x) u2) = det(u1)^n det(u2)^N
    lhs = np.linalg.det(gp.u)
    rhs = np.linalg.det(u1) ** 3 * np.linalg.det(u2) ** 2
    assert abs(lhs - rhs) <= 1e-10


def test_gauge_element_refuses_a_non_square_u():
    with pytest.raises(DimensionMismatch, match=r"\(4, 6\)"):
        gauge.GaugeElement(u=np.eye(4, 6, dtype=complex))


def test_transform_refuses_a_unitary_of_another_size():
    gt = make_triple(seed=3)  # m = 4
    fl = fluct.random_fluctuation(gt, seed=4)
    g = gauge.random_unitary(3, 2, seed=5)  # on C^6
    with pytest.raises(DimensionMismatch, match=r"\(6, 6\), expected \(4, 4\)"):
        gauge.transform(gt, fl, g)
    with pytest.raises(DimensionMismatch, match=r"\(6, 6\), expected \(4, 4\)"):
        gauge.covariance_report(gt, fl, g, POLY)


def test_identity_element():
    gt = make_triple(seed=3)
    fl = fluct.random_fluctuation(gt, seed=4)
    g = gauge.GaugeElement(u=np.eye(gt.m, dtype=complex))
    out = gauge.transform(gt, fl, g)
    for mu in range(4):
        np.testing.assert_allclose(out.A[mu], fl.A[mu], atol=0)
    np.testing.assert_allclose(out.phi, fl.phi, atol=0)


def test_central_unitary_trivial():
    gt = make_triple(seed=5)
    fl = fluct.random_fluctuation(gt, seed=6)
    g = gauge.GaugeElement(u=np.exp(0.7j) * np.eye(gt.m))
    out = gauge.transform(gt, fl, g)
    for mu in range(4):
        assert np.abs(out.A[mu] - fl.A[mu]).max() <= 1e-12
    assert np.abs(out.phi - fl.phi).max() <= 1e-12


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_pure_gauge_configuration(p, q):
    gt = make_triple(seed=7, with_DF=False, p=p, q=q)
    fl = fluct.zero_fluctuation(gt)
    g = gauge.random_unitary(gt.N, gt.n, seed=8)
    out = gauge.transform(gt, fl, g)
    u = g.u
    for mu in range(4):
        L = np.kron(gt.fuzzy.K[mu], np.eye(gt.n))
        expected = u @ (L @ u.conj().T - u.conj().T @ L)
        np.testing.assert_allclose(out.A[mu], expected, atol=1e-12)


def test_double_transform_returns_original():
    gt = make_triple(seed=9)
    fl = fluct.random_fluctuation(gt, seed=10)
    g = gauge.random_unitary(gt.N, gt.n, seed=11)
    ginv = gauge.GaugeElement(u=g.u.conj().T)
    back = gauge.transform(gt, gauge.transform(gt, fl, g), ginv)
    for mu in range(4):
        assert np.abs(back.A[mu] - fl.A[mu]).max() <= 1e-10
    assert np.abs(back.phi - fl.phi).max() <= 1e-10


def test_transform_preserves_types():
    gt = make_triple(seed=12)
    fl = fluct.random_fluctuation(gt, seed=13)
    g = gauge.random_unitary(gt.N, gt.n, seed=14)
    out = gauge.transform(gt, fl, g)
    for mu in range(4):
        assert np.abs(out.A[mu].conj().T + out.A[mu]).max() <= 1e-12
    assert np.abs(out.phi.conj().T - out.phi).max() <= 1e-12
    # D_F is not scalar, so the Higgs space is all of Herm(m): a Hermitian
    # phi is in it
    assert not gt.finite.is_scalar


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_covariance_in_every_signature(p, q):
    # with a Higgs field the action is invariant under u = u1 (x) u2 with
    # [u2, D_F] = 0, in every signature
    for seed in range(3):
        gt = make_triple(N=3, seed=15 + seed, p=p, q=q)
        fl = fluct.random_fluctuation(gt, seed=16 + seed)
        assert np.abs(fl.phi).max() > 0
        assert verify.action_invariance_with_DF(gt, fl, POLY, seed=17 + seed) <= 1e-9


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_triple_index_spectrum_invariant(p, q):
    # S_mu moves with its background K_hat_mu (x) 1 like A_mu with K_mu (x) 1,
    # so D_omega is conjugated and keeps its spectrum
    sig = build_signature(p, q)
    mod = build_gammas(sig)
    for seed in range(3):
        gt = GaugeTriple(fuzzy=dirac.random_fuzzy(3, sig, seed=seed, include_X=True),
                         finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
        fl = fluct.random_fluctuation(gt, seed=seed + 40)
        assert np.abs(fl.S).max() > 0
        g = gauge.random_unitary(gt.N, gt.n, seed=seed + 80)
        ev0 = np.linalg.eigvalsh(fluct.assemble_fluctuated(gt, fl, mod))
        ev_u = np.linalg.eigvalsh(fluct.assemble_fluctuated(gt, gauge.transform(gt, fl, g), mod))
        assert np.abs(ev_u - ev0).max() <= 1e-12 * np.abs(ev0).max()


def test_covariance_report_refuses_non_flat_data():
    # triple-index blocks have no matrix field strength; refused before any work
    sig = build_signature(0, 4)
    gt = GaugeTriple(fuzzy=dirac.random_fuzzy(2, sig, seed=1, include_X=True),
                     finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    fl = fluct.random_fluctuation(gt, seed=2)
    g = gauge.random_unitary(gt.N, gt.n, seed=3)
    with pytest.raises(NotFlat):
        gauge.covariance_report(gt, fl, g, POLY)


def test_covariance_report_identity():
    gt = make_triple(seed=18)
    fl = fluct.random_fluctuation(gt, seed=19)
    g = gauge.GaugeElement(u=np.eye(gt.m, dtype=complex))
    rep = gauge.covariance_report(gt, fl, g, POLY)
    assert rep["field_strength_covariance"] == 0.0
    assert rep["action_invariance_rel"] == 0.0
    assert rep["ts_identity"] == 0.0
    assert set(rep) == {"field_strength_covariance", "ts_identity", "action_invariance_rel",
                        "sector_ym_rel", "sector_h_rel", "sector_gh_rel", "sector_theta_rel"}


@pytest.mark.parametrize("p,q", SIGNATURES)
@pytest.mark.parametrize("product_form", [True, False])
def test_covariance_report_yang_mills(product_form, p, q):
    # with D_F != 0 a generic u leaves eps'' r(u [D_F, u*]) in Phi, so
    # invariance under every u is asserted on Yang-Mills data (D_F = 0)
    gt = make_triple(seed=20, with_DF=False, p=p, q=q)
    fl = fluct.random_fluctuation(gt, seed=21)
    g = gauge.random_unitary(gt.N, gt.n, product_form=product_form, seed=22)
    rep = gauge.covariance_report(gt, fl, g, POLY)
    assert rep["field_strength_covariance"] <= 1e-10
    assert rep["action_invariance_rel"] <= 1e-9
    assert rep["ts_identity"] <= 1e-10
    for key in ("sector_ym_rel", "sector_h_rel", "sector_gh_rel", "sector_theta_rel"):
        assert rep[key] <= 1e-9


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_covariance_with_higgs_data(p, q):
    # field strength and the Ts identity only involve L and A, so they stay
    # exact with D_F != 0; the action entry is informational there
    gt = make_triple(seed=20, with_DF=True, p=p, q=q)
    fl = fluct.random_fluctuation(gt, seed=21)
    g = gauge.random_unitary(gt.N, gt.n, seed=22)
    rep = gauge.covariance_report(gt, fl, g, POLY)
    assert rep["field_strength_covariance"] <= 1e-10
    assert rep["ts_identity"] <= 1e-10
    assert rep["sector_ym_rel"] <= 1e-9


def test_gauge_element_refuses_a_nan_u():
    with pytest.raises(ValueError, match="not unitary"):
        gauge.GaugeElement(u=np.full((2, 2), np.nan))
