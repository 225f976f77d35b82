import dataclasses

import numpy as np
import pytest

from ncg_ymh import dirac, fluct, verify
from ncg_ymh.clifford import build_module, build_signature
from ncg_ymh.dirac import FiniteData, GaugeTriple
from ncg_ymh.errors import DimensionMismatch, NotSelfAdjoint
from ncg_ymh.superop import left_mult, right_mult, unvec, vec

ALL_SIGS = [(0, 4), (1, 3), (2, 2), (3, 1)]


def make_triple(p, q, N=2, n=2, seed=0, include_X=True, with_DF=False):
    sig = build_signature(p, q)
    fz = dirac.random_fuzzy(N, sig, seed=seed, include_X=include_X)
    DF = dirac.random_hermitian(n, np.random.default_rng(seed + 99)) if with_DF \
        else np.zeros((n, n), dtype=complex)
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))


def rand_c(m, rng):
    return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))


def test_one_form_with_unit_c_vanishes():
    gt = make_triple(0, 4, with_DF=True, seed=1)
    mod = build_module(0, 4)
    rng = np.random.default_rng(2)
    a = rand_c(gt.m, rng)
    omega = fluct.connes_one_form(gt, mod, [(a, np.eye(gt.m))])
    assert np.abs(omega).max() <= 1e-12


def test_one_form_flat_single_pair_coefficient():
    # D_F = 0, flat: the gamma^mu coefficient is Left(W [K_mu, T] (x) a c)
    gt = make_triple(1, 3, include_X=False, with_DF=False, seed=3)
    mod = build_module(1, 3)
    rng = np.random.default_rng(4)
    N, n = gt.N, gt.n
    W, T = rand_c(N, rng), rand_c(N, rng)
    a, c = rand_c(n, rng), rand_c(n, rng)
    omega = fluct.connes_one_form(gt, mod, [(np.kron(W, a), np.kron(T, c))])
    got = fluct.extract_fluctuation(gt, mod, omega)
    for mu in range(4):
        K = gt.fuzzy.K[mu]
        expected = np.kron(W @ (K @ T - T @ K), a @ c)
        np.testing.assert_allclose(got.A[mu], expected, atol=1e-10)
    assert np.abs(got.S).max() == 0
    assert np.abs(got.phi).max() <= 1e-12


def test_one_form_higgs_only():
    # K = 0, D_F != 0: pure gamma (x) (W T (x) a [D_F, c]) form
    sig = build_signature(0, 4)
    fz = dirac.zero_fuzzy(2, sig)
    DF = dirac.random_hermitian(2, np.random.default_rng(5))
    gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=2, D_F=DF))
    mod = build_module(0, 4)
    rng = np.random.default_rng(6)
    W, T = rand_c(2, rng), rand_c(2, rng)
    a, c = rand_c(2, rng), rand_c(2, rng)
    omega = fluct.connes_one_form(gt, mod, [(np.kron(W, a), np.kron(T, c))])
    got = fluct.extract_fluctuation(gt, mod, omega)
    expected_phi = np.kron(W @ T, a @ (DF @ c - c @ DF))
    np.testing.assert_allclose(got.phi, expected_phi, atol=1e-10)
    for mu in range(4):
        assert np.abs(got.A[mu]).max() <= 1e-12


def test_fluctuate_zero_and_rejection():
    gt = make_triple(0, 4, seed=7)
    mod = build_module(0, 4)
    D = fluct.assemble_fluctuated(gt, fluct.zero_fluctuation(gt), mod)
    S = dirac.real_structure(mod, gt.m)
    np.testing.assert_allclose(fluct.fluctuate(D, np.zeros_like(D), S, 1), D, atol=0)
    skew = np.zeros_like(D)
    skew[0, 1] = 1.0
    with pytest.raises(NotSelfAdjoint):
        fluct.fluctuate(D, skew, S, 1)


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_dual_path(p, q):
    gt = make_triple(p, q, include_X=True, with_DF=True, seed=13)
    assert verify.dual_path(gt, build_module(p, q), np.random.default_rng(17)) <= 1e-10


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_extracted_adjointness_types(p, q):
    gt = make_triple(p, q, include_X=True, with_DF=True, seed=23)
    sig = gt.sig
    mod = build_module(p, q)
    rng = np.random.default_rng(29)
    N, n = gt.N, gt.n
    pairs = [(np.kron(rand_c(N, rng), rand_c(n, rng)),
              np.kron(rand_c(N, rng), rand_c(n, rng))) for _ in range(2)]
    omega = fluct.connes_one_form(gt, mod, pairs)
    fl = fluct.extract_fluctuation(gt, mod, (omega + omega.conj().T) / 2)
    for mu in range(4):
        scale = max(1.0, np.abs(fl.A[mu]).max())
        assert np.abs(fl.A[mu].conj().T - sig.e[mu] * fl.A[mu]).max() <= 1e-12 * scale
        scale = max(1.0, np.abs(fl.S[mu]).max())
        assert np.abs(fl.S[mu].conj().T - sig.e_hat[mu] * fl.S[mu]).max() <= 1e-12 * scale
    assert np.abs(fl.phi.conj().T - fl.phi).max() <= 1e-12


def test_random_fluctuation_types():
    ym = make_triple(0, 4, include_X=False, with_DF=False, seed=2)
    scalar = dataclasses.replace(ym, finite=FiniteData(n=2, D_F=2 * np.eye(2)))
    for gt in (ym, scalar):  # D_F = 0 and D_F = 2 1: no Higgs
        fl = fluct.random_fluctuation(gt, seed=3)
        assert np.abs(fl.phi).max() == 0
        assert np.abs(fl.S).max() == 0
        for mu in range(4):
            assert np.allclose(fl.A[mu].conj().T, -fl.A[mu])

    gt13 = make_triple(1, 3, include_X=True, with_DF=True, seed=2)
    fl13 = fluct.random_fluctuation(gt13, seed=3)
    assert np.allclose(fl13.A[0].conj().T, fl13.A[0])
    for mu in (1, 2, 3):
        assert np.allclose(fl13.A[mu].conj().T, -fl13.A[mu])
    assert np.abs(fl13.S).max() > 0
    assert np.allclose(fl13.phi.conj().T, fl13.phi)
    assert np.abs(fl13.phi).max() > 0


def test_higgs_field_forms():
    gt = make_triple(0, 4, with_DF=True, seed=31)
    fl = fluct.zero_fluctuation(gt)
    Phi = fluct.higgs_field(fl, gt)
    np.testing.assert_allclose(
        Phi, left_mult(np.kron(np.eye(gt.N), gt.finite.D_F)), atol=0)

    gt_ym = make_triple(0, 4, with_DF=False, seed=31)
    rng = np.random.default_rng(1)
    phi = dirac.random_hermitian(gt_ym.m, rng)
    zero = fluct.zero_fluctuation(gt_ym)
    fl = fluct.Fluctuation(A=zero.A, S=zero.S, phi=phi)
    Phi = fluct.higgs_field(fl, gt_ym)
    np.testing.assert_allclose(Phi, left_mult(phi) + right_mult(phi), atol=0)

    gt = make_triple(0, 4, with_DF=True, seed=33)
    fl = fluct.random_fluctuation(gt, seed=5)
    Phi = fluct.higgs_field(fl, gt)
    np.testing.assert_allclose(Phi, Phi.conj().T, atol=1e-12)


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_conjugation_sign_of_higgs_term(p, q):
    # J (gamma (x) Left(phi)) J^{-1} = eps'' gamma (x) Right(phi), eps'' = (-1)^q
    sig = build_signature(p, q)
    mod = build_module(p, q)
    m = 4
    rng = np.random.default_rng(41)
    phi = dirac.random_hermitian(m, rng)
    S = dirac.real_structure(mod, m)
    lhs = dirac.conjugate_by_J(np.kron(mod.chirality, left_mult(phi)), S)
    rhs = sig.eps_dblprime * np.kron(mod.chirality, right_mult(phi))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    assert sig.eps_dblprime == (-1) ** sig.q


def one_form_span(D_F: np.ndarray, seed: int = 0, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of Omega^1_{D_F} = span{a [D_F, c]} inside M_n.

    Rank-revealing SVD over 2 n^2 random pairs; returns an (r, n, n) array
    whose slices are HS-orthonormal.  Empty (r = 0) when D_F is central.
    This is the oracle for the theorem that the span is 0 or all of M_n,
    which is what lets `FiniteData.is_scalar` decide the Higgs space.
    """
    n = D_F.shape[0]
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(2 * n * n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rows.append(vec(a @ (D_F @ c - c @ D_F)))
    M = np.array(rows)
    if not np.abs(M).max() > 0:
        return np.zeros((0, n, n), dtype=complex)
    _, sv, vh = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(sv > tol * sv[0]))
    return np.array([unvec(vh[j].conj(), n) for j in range(r)])


def test_one_form_span_rank():
    DF = np.diag([1.0, -1.0]).astype(complex)
    basis = one_form_span(DF, seed=0)
    assert basis.shape[0] == 4  # all of M_2 for a non-central D_F
    for i, B in enumerate(basis):
        for j, C in enumerate(basis):
            ip = np.trace(B.conj().T @ C)
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10

    assert one_form_span(np.zeros((2, 2), dtype=complex)).shape[0] == 0
    assert one_form_span(np.eye(2, dtype=complex)).shape[0] == 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", ["zero", "scalar", "diagonal", "random"])
def test_one_form_span_is_zero_or_everything(n, case):
    # Omega^1_{D_F} is a two-sided ideal of the simple algebra M_n
    DF = {"zero": np.zeros((n, n)), "scalar": 2.5 * np.eye(n),
          "diagonal": np.diag([1.0, 2.0, 1.0][:n]),
          "random": dirac.random_hermitian(n, np.random.default_rng(n))}[case]
    dim = one_form_span(DF.astype(complex)).shape[0]
    assert dim == (0 if case in ("zero", "scalar") else n * n)
    assert FiniteData(n=n, D_F=DF.astype(complex)).is_scalar == (dim == 0)


def _kron_sum(gt, fl, mod):
    """The explicit sum of kron(gamma^I, S_I) over the nine Dirac terms."""
    sig, one = gt.sig, np.eye(gt.n)

    def gen_comm(K, e):
        return left_mult(K) + e * right_mult(K)

    D = np.zeros((gt.hilbert_dim, gt.hilbert_dim), dtype=complex)
    for mu in range(4):
        X = np.kron(gt.fuzzy.K[mu], one) + fl.A[mu]
        D += np.kron(mod.gammas[mu], gen_comm(X, sig.e[mu]))
        Y = np.kron(gt.fuzzy.K_hat[mu], one) + fl.S[mu]
        D += np.kron(mod.gamma_hat(mu), gen_comm(Y, sig.e_hat[mu]))
    P = np.kron(np.eye(gt.N), gt.finite.D_F) + fl.phi
    D += np.kron(mod.chirality, left_mult(P) + sig.eps_dblprime * right_mult(fl.phi))
    return D


@pytest.mark.parametrize("case,with_DF", [("fluctuated", True), ("fluctuated", False),
                                          ("product", True), ("product", False),
                                          ("fuzzy", False)])
@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_blockwise_assembler_matches_kron_sum(p, q, case, with_DF):
    mod = build_module(p, q)
    n = 1 if case == "fuzzy" else 2
    gt = make_triple(p, q, N=3, n=n, seed=70, include_X=True, with_DF=with_DF)
    # the product and fuzzy Dirac operators are the zero fluctuation, fuzzy at n = 1, D_F = 0
    if case == "fluctuated":
        fl = fluct.random_fluctuation(gt, seed=71)
        assert np.abs(fl.S).max() > 0 and gt.fuzzy.has_triples
    else:
        fl = fluct.zero_fluctuation(gt)
    got = fluct.assemble_fluctuated(gt, fl, mod)
    want = _kron_sum(gt, fl, mod)
    assert np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fluctuate_rejects_non_finite_one_form(bad):
    with pytest.raises(NotSelfAdjoint):
        fluct.fluctuate(np.eye(4), np.full((4, 4), bad), np.eye(4), 1)
    omega = np.zeros((4, 4))
    omega[1, 2] = omega[2, 1] = bad
    with pytest.raises(NotSelfAdjoint):
        fluct.fluctuate(np.eye(4), omega, np.eye(4), 1)


@pytest.mark.parametrize("name, shape", [("A", (4, 3, 3)), ("S", (4, 3, 3)), ("phi", (3, 3))])
def test_assembler_names_a_field_of_another_size(name, shape):
    # m = 4: a field of the wrong size is a DimensionMismatch naming it, not a numpy broadcast
    gt = make_triple(0, 4, seed=5)
    fl = dataclasses.replace(fluct.zero_fluctuation(gt), **{name: np.zeros(shape, dtype=complex)})
    with pytest.raises(DimensionMismatch, match=f"fluctuation {name} has shape "):
        fluct.assemble_fluctuated(gt, fl, build_module(0, 4))


def test_extraction_keeps_a_nan_S():
    # a NaN one-form gives NaN coefficients; S must not be read as zero
    gt = make_triple(0, 4, include_X=False, seed=3)
    omega = np.full((gt.hilbert_dim, gt.hilbert_dim), np.nan, dtype=complex)
    fl = fluct.extract_fluctuation(gt, build_module(0, 4), omega)
    assert np.isnan(fl.S).all()
