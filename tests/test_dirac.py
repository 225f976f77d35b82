import warnings

import numpy as np
import pytest

from ncg_ymh import action, clifford, dirac, sampler, superop, verify
from ncg_ymh.clifford import build_module, build_signature
from ncg_ymh.dirac import FiniteData, FuzzyData, GaugeTriple
from ncg_ymh.errors import DimensionMismatch, NotFlat
from ncg_ymh.fluct import (assemble_fluctuated, connes_one_form, random_fluctuation,
                           zero_fluctuation)

ALL_SIGS = [(0, 4), (1, 3), (2, 2), (3, 1)]


def make_triple(p, q, N=2, n=2, seed=0, include_X=True, with_DF=False):
    sig = build_signature(p, q)
    fz = dirac.random_fuzzy(N, sig, seed=seed, include_X=include_X)
    if with_DF:
        DF = dirac.random_hermitian(n, np.random.default_rng(seed + 99))
    else:
        DF = np.zeros((n, n), dtype=complex)
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_complex_gaussian_draws_real_then_imaginary_parts(n):
    # one stream for single and stacked draws: the stream of rng.normal, n^2 real parts
    # and then n^2 imaginary parts per matrix
    rngs = [np.random.default_rng(3) for _ in range(3)]
    want = [rngs[0].normal(size=(n, n)) + 1j * rngs[0].normal(size=(n, n)) for _ in range(3)]
    single = [dirac.complex_gaussian(rngs[1], n) for _ in range(3)]
    stacked = dirac.complex_gaussian(rngs[2], n, 3)
    assert np.array(want).tobytes() == np.array(single).tobytes() == stacked.tobytes()
    assert len({rng.normal() for rng in rngs}) == 1


def _chain(N, template):
    cfg = sampler.SamplerConfig(N=N, n=2, poly=action.ActionPolynomial((0.0, 1.0, 0.0, 1.0)),
                                steps=1)
    return sampler.run_chain(cfg, template)


# each guard of malformed input, with its error type and message
GUARDS = {
    "run_chain/K_hat": (NotFlat, "flat template",
                        lambda: _chain(2, make_triple(0, 4, include_X=True))),
    "run_chain/(N, n)": (ValueError, "disagree on",
                         lambda: _chain(3, make_triple(0, 4, include_X=False))),
    "spectral_action_direct/non-square": (
        DimensionMismatch, "not square",
        lambda: action.spectral_action_direct(np.zeros((4, 6)), action.ActionPolynomial((1.0,)))),
    "ActionPolynomial/no coefficient": (ValueError, "at least one coefficient",
                                        lambda: action.ActionPolynomial(())),
    "gen_comm/sign": (ValueError, "sign must be", lambda: superop.gen_comm(np.eye(2), 0)),
    "FiniteData/D_F shape": (DimensionMismatch, "D_F shape",
                             lambda: FiniteData(n=2, D_F=np.eye(3, dtype=complex))),
    "represent_algebra/shape": (DimensionMismatch, "algebra element shape",
                                lambda: dirac.represent_algebra(np.eye(3), 4)),
    "connes_one_form/shape": (DimensionMismatch, "m x m",
                              lambda: connes_one_form(make_triple(0, 4), build_module(0, 4),
                                                      [(np.eye(3), np.eye(3))])),
    "assemble_fluctuated/signature": (
        DimensionMismatch, "different signatures",
        lambda: assemble_fluctuated(make_triple(0, 4), zero_fluctuation(make_triple(0, 4)),
                                    build_module(1, 3))),
    "lichnerowicz_rhs/signature": (
        DimensionMismatch, "different signatures",
        lambda: dirac.lichnerowicz_rhs(make_triple(0, 4).fuzzy, build_module(1, 3))),
}


@pytest.mark.parametrize("name", GUARDS)
def test_malformed_input_is_refused(name):
    error, message, call = GUARDS[name]
    with pytest.raises(error, match=message):
        call()


def test_random_fields_that_overflow_are_refused():
    # at 1e308 the K blocks overflow; at 1e307 they are finite, but phi is not
    sig = build_signature(0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without numpy's warnings
        with pytest.raises(OverflowError, match="K blocks"):
            dirac.random_fuzzy(2, sig, scale=1e308)
        gt = GaugeTriple(fuzzy=dirac.random_fuzzy(2, sig, scale=1e307),
                         finite=FiniteData(n=2, D_F=np.diag([1.0, -1.0]).astype(complex)))
        with pytest.raises(OverflowError, match="fluctuation"):
            random_fluctuation(gt, scale=1e307)


def test_random_fuzzy_adjointness_types():
    sig = build_signature(1, 3)
    fz = dirac.random_fuzzy(3, sig, seed=1)
    H0 = fz.K[0]
    assert np.allclose(H0.conj().T, H0)
    for mu in (1, 2, 3):
        L = fz.K[mu]
        assert np.allclose(L.conj().T, -L)
        # triples hat1..hat3 are anti-Hermitian in (1, 3); hat0 Hermitian
        X = fz.K_hat[mu]
        assert np.allclose(X.conj().T, -X)
    assert np.allclose(fz.K_hat[0].conj().T, fz.K_hat[0])


def test_riemannian_fuzzy_types():
    sig = build_signature(0, 4)
    flat = dirac.random_fuzzy(2, sig, seed=0, include_X=False)
    assert not flat.has_triples
    full = dirac.random_fuzzy(2, sig, seed=0, include_X=True)
    for mu in range(4):
        assert np.allclose(full.K[mu].conj().T, -full.K[mu])
        assert np.allclose(full.K_hat[mu].conj().T, full.K_hat[mu])


def zero_stacks():
    """Zero K and K_hat stacks at N = 2."""
    return np.zeros((2, 4, 2, 2), dtype=complex)


def test_fuzzy_block_type_rejected():
    sig = build_signature(0, 4)
    H = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)  # Hermitian, needs anti
    K, K_hat = zero_stacks()
    K[0] = H
    with pytest.raises(ValueError, match="block mu0 "):
        FuzzyData(sig=sig, K=K, K_hat=K_hat)
    # in (0, 4) the triple-index blocks are Hermitian: 1j H has the wrong type
    K, K_hat = zero_stacks()
    K_hat[1] = 1j * H
    with pytest.raises(ValueError, match="block hat1 "):
        FuzzyData(sig=sig, K=K, K_hat=K_hat)
    # a stack of the wrong shape: K_hat blocks of another N, or three blocks
    K, _ = zero_stacks()
    with pytest.raises(DimensionMismatch, match="block hat0 "):
        FuzzyData(sig=sig, K=K, K_hat=np.zeros((4, 3, 3), dtype=complex))
    with pytest.raises(DimensionMismatch, match="mu0..mu3"):
        FuzzyData(sig=sig, K=K[:3], K_hat=np.zeros_like(K))


def test_nan_blocks_rejected():
    sig = build_signature(0, 4)
    K, K_hat = zero_stacks()
    K[0] = np.nan
    with pytest.raises(ValueError, match="block mu0 "):
        FuzzyData(sig=sig, K=K, K_hat=K_hat)
    K, K_hat = zero_stacks()
    K_hat[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="block hat2 "):
        FuzzyData(sig=sig, K=K, K_hat=K_hat)
    with pytest.raises(ValueError):
        FiniteData(n=2, D_F=np.full((2, 2), np.nan, dtype=complex))


def test_assemble_zero_and_single_block():
    sig = build_signature(0, 4)
    mod = build_module(0, 4)
    zero_D_F = FiniteData(n=1, D_F=np.zeros((1, 1), dtype=complex))
    gt = GaugeTriple(fuzzy=dirac.zero_fuzzy(2, sig), finite=zero_D_F)
    assert np.abs(assemble_fluctuated(gt, zero_fluctuation(gt), mod)).max() == 0

    rng = np.random.default_rng(3)
    L0 = 1j * dirac.random_hermitian(2, rng)
    K, K_hat = zero_stacks()
    K[0] = L0
    gt = GaugeTriple(fuzzy=FuzzyData(sig=sig, K=K, K_hat=K_hat), finite=zero_D_F)
    D = assemble_fluctuated(gt, zero_fluctuation(gt), mod)
    expected = np.kron(mod.gammas[0],
                       np.kron(np.eye(2), L0) - np.kron(L0.T, np.eye(2)))
    np.testing.assert_allclose(D, expected, atol=1e-14)
    assert np.abs(D - D.conj().T).max() <= 1e-12


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_product_dirac_selfadjoint(p, q):
    mod = build_module(p, q)
    gt = make_triple(p, q, with_DF=True, seed=7)
    D = assemble_fluctuated(gt, zero_fluctuation(gt), mod)
    assert np.abs(D - D.conj().T).max() <= 1e-12


def test_product_reduces_to_fuzzy_when_df_zero():
    mod = build_module(0, 4)
    gt = make_triple(0, 4, N=2, n=2, seed=5, with_DF=False)
    D = assemble_fluctuated(gt, zero_fluctuation(gt), mod)
    # same assembly with every K replaced by K (x) 1_n
    n = gt.n
    expected = np.zeros_like(D)
    for mu in range(4):
        from ncg_ymh.superop import gen_comm
        expected += np.kron(mod.gammas[mu],
                            gen_comm(np.kron(gt.fuzzy.K[mu], np.eye(n)),
                                     gt.sig.e[mu]))
        expected += np.kron(mod.gamma_hat(mu),
                            gen_comm(np.kron(gt.fuzzy.K_hat[mu], np.eye(n)),
                                     gt.sig.e_hat[mu]))
    np.testing.assert_allclose(D, expected, atol=1e-14)


def test_gamma_part_anticommutes():
    # the D_F part of the product Dirac anticommutes with gamma^mu (x) 1
    mod = build_module(0, 4)
    gt = make_triple(0, 4, with_DF=True, seed=2)
    from ncg_ymh.superop import left_mult
    m = gt.m
    dfpart = np.kron(mod.chirality, left_mult(np.kron(np.eye(gt.N), gt.finite.D_F)))
    for mu in range(4):
        gmu = np.kron(mod.gammas[mu], np.eye(m * m))
        assert np.abs(dfpart @ gmu + gmu @ dfpart).max() <= 1e-12


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_axioms_flat_yang_mills(p, q):
    mod = build_module(p, q)
    gt = make_triple(p, q, seed=11, with_DF=False)
    report = dirac.check_axioms(gt, mod, seed=3, pairs=20)
    for name, dev in report.items():
        assert dev <= 1e-10, f"({p},{q}) {name}: {dev}"
    assert "J_D_sign" in report  # asserted, not informational, when D_F = 0


def test_axioms_with_finite_dirac_informational():
    mod = build_module(0, 4)
    gt = make_triple(0, 4, seed=11, with_DF=True)
    report = dirac.check_axioms(gt, mod, seed=3, pairs=10)
    assert "informational_J_D_sign" in report
    # the rest still holds with D_F != 0
    for name, dev in report.items():
        if not name.startswith("informational_"):
            assert dev <= 1e-10, f"{name}: {dev}"


def test_order_one_central_element_exact():
    mod = build_module(0, 4)
    gt = make_triple(0, 4, seed=4, with_DF=False)
    m = gt.m
    D = assemble_fluctuated(gt, zero_fluctuation(gt), mod)
    S = dirac.real_structure(mod, m)
    rho_a = dirac.represent_algebra(2.5 * np.eye(m), m)
    rng = np.random.default_rng(0)
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    b_op = dirac.conjugate_by_J(dirac.represent_algebra(b.conj().T, m), S)
    inner = D @ rho_a - rho_a @ D
    assert np.abs(inner @ b_op - b_op @ inner).max() == 0.0


def test_j_square_branch_22():
    # s = 0 row of the sign table: J^2 = +1
    mod = build_module(2, 2)
    gt = make_triple(2, 2, seed=1, with_DF=False)
    S = dirac.real_structure(mod, gt.m)
    assert np.abs(S @ S.conj() - np.eye(gt.hilbert_dim)).max() <= 1e-12


def test_sign_s_t_values():
    sig = build_signature(0, 4)
    assert clifford.sign_s(sig, 0, 0, 1, 2) == 0
    assert clifford.sign_t(sig, 1, 1) == 0
    # frozen: substitute into the definitions
    assert clifford.sign_s(sig, 0, 1, 2, 3) == -1
    assert clifford.sign_t(sig, 0, 1) == 1
    for mu in range(4):
        for nu in range(4):
            assert clifford.sign_t(sig, mu, nu) in (-1, 0, 1)
            for al in range(4):
                for sg in range(4):
                    assert clifford.sign_s(sig, mu, nu, al, sg) in (-1, 0, 1)


def test_lichnerowicz_zero_and_flat_reduction():
    sig = build_signature(0, 4)
    mod = build_module(0, 4)
    assert np.abs(dirac.lichnerowicz_rhs(dirac.zero_fuzzy(2, sig), mod)).max() == 0

    # X = 0: only the eta k k and commutator terms survive
    fz = dirac.random_fuzzy(2, sig, seed=8, include_X=False)
    rhs = dirac.lichnerowicz_rhs(fz, mod)
    from ncg_ymh.superop import gen_comm
    k = [gen_comm(fz.K[mu], sig.e[mu]) for mu in range(4)]
    expected = np.zeros_like(rhs)
    for mu in range(4):
        expected += sig.e[mu] * np.kron(np.eye(4), k[mu] @ k[mu])
        for nu in range(4):
            expected += 0.5 * np.kron(mod.gammas[mu] @ mod.gammas[nu],
                                      k[mu] @ k[nu] - k[nu] @ k[mu])
    np.testing.assert_allclose(rhs, expected, atol=1e-13)


def test_lichnerowicz_equals_square():
    fz = dirac.random_fuzzy(3, build_signature(0, 4), seed=21, include_X=True)
    assert verify.lichnerowicz(fz, build_module(0, 4)) <= 1e-10


def test_axioms_keep_a_nan_from_one_algebra_pair(monkeypatch):
    # the fifth of 20 pairs meets a NaN J b* J^-1: order-one and commutant must read NaN
    conjugate_by_J = dirac.conjugate_by_J
    calls = []

    def nan_on_fifth(M, S):
        calls.append(None)
        out = conjugate_by_J(M, S)
        return np.full_like(out, np.nan) if len(calls) == 5 else out

    monkeypatch.setattr(dirac, "conjugate_by_J", nan_on_fifth)
    report = dirac.check_axioms(make_triple(0, 4, seed=11), build_module(0, 4), seed=3, pairs=20)
    assert len(calls) == 20
    assert np.isnan(report["order_one"]) and np.isnan(report["commutant"])
    assert report["block_e_selfadjointness"] <= 1e-10
