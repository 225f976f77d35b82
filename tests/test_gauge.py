import numpy as np
import pytest

from ncg_ymh import dirac, fluct, gauge
from ncg_ymh.action import ActionPolynomial
from ncg_ymh.clifford import build_signature
from ncg_ymh.dirac import FiniteData, GaugeTriple
from ncg_ymh.errors import NotFlat, NotRiemannian

POLY = ActionPolynomial((0.0, 0.5, 0.0, 1.0))


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


def test_pure_gauge_configuration():
    gt = make_triple(seed=7, with_DF=False)
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


def test_not_riemannian():
    gt = make_triple(p=1, q=3, seed=15)
    fl = fluct.random_fluctuation(gt, seed=16)
    g = gauge.random_unitary(gt.N, gt.n, seed=17)
    with pytest.raises(NotRiemannian):
        gauge.transform(gt, fl, g)
    with pytest.raises(NotRiemannian):
        gauge.covariance_report(gt, fl, g, POLY)


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


@pytest.mark.parametrize("product_form", [True, False])
def test_covariance_report_yang_mills(product_form):
    # full-action invariance needs the J-compatibility of every part of D,
    # so it is asserted on Yang-Mills data (D_F = 0)
    gt = make_triple(seed=20, with_DF=False)
    fl = fluct.random_fluctuation(gt, seed=21)
    g = gauge.random_unitary(gt.N, gt.n, product_form=product_form, seed=22)
    rep = gauge.covariance_report(gt, fl, g, POLY)
    assert rep["field_strength_covariance"] <= 1e-10
    assert rep["action_invariance_rel"] <= 1e-9
    assert rep["ts_identity"] <= 1e-10
    for key in ("sector_ym_rel", "sector_h_rel", "sector_gh_rel", "sector_theta_rel"):
        assert rep[key] <= 1e-9


def test_covariance_with_higgs_data():
    # field strength and the Ts identity only involve L and A, so they stay
    # exact with D_F != 0; the action entry is informational there
    gt = make_triple(seed=20, with_DF=True)
    fl = fluct.random_fluctuation(gt, seed=21)
    g = gauge.random_unitary(gt.N, gt.n, seed=22)
    rep = gauge.covariance_report(gt, fl, g, POLY)
    assert rep["field_strength_covariance"] <= 1e-10
    assert rep["ts_identity"] <= 1e-10
    assert rep["sector_ym_rel"] <= 1e-9
