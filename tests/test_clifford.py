import dataclasses
import math

import numpy as np
import pytest

from ncg_ymh import clifford
from ncg_ymh.errors import NonFourDimensional

ALL_SIGS = [(0, 4), (1, 3), (2, 2), (3, 1)]


def test_signature_examples():
    s04 = clifford.build_signature(0, 4)
    assert s04.s == 4
    assert (s04.eps, s04.eps_prime, s04.eps_dblprime) == (-1, 1, 1)
    assert s04.e == (-1, -1, -1, -1)
    assert s04.e_hat == (1, 1, 1, 1)
    assert s04.sigma_eta == -1

    s13 = clifford.build_signature(1, 3)
    assert s13.s == 2
    assert (s13.eps, s13.eps_prime, s13.eps_dblprime) == (-1, 1, -1)
    assert s13.e == (1, -1, -1, -1)
    assert s13.e_hat == s13.e
    assert s13.sigma_eta == 1j

    s31 = clifford.build_signature(3, 1)
    assert s31.s == 6
    assert (s31.eps, s31.eps_prime, s31.eps_dblprime) == (1, 1, -1)

    assert clifford.build_signature(2, 2).sigma_eta == 1
    assert clifford.build_signature(3, 1).sigma_eta == -1j


def test_rejects_non_four_dimensional():
    with pytest.raises(NonFourDimensional):
        clifford.build_signature(0, 2)
    with pytest.raises(NonFourDimensional):
        clifford.build_signature(2, 3)


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_module_invariants(p, q):
    mod = clifford.build_module(p, q)
    report = clifford.verify_module_invariants(mod)
    for name, dev in report.items():
        assert dev <= 1e-12, f"({p},{q}) {name}: {dev}"


def test_riemannian_gammas_anti_hermitian():
    mod = clifford.build_module(0, 4)
    for mu in range(4):
        g = mod.gammas[mu]
        assert np.allclose(g.conj().T, -g, atol=1e-14)
        assert np.allclose(g.conj().T @ g, np.eye(4), atol=1e-14)
        for nu in range(4):
            target = -2.0 * np.eye(4) if mu == nu else np.zeros((4, 4))
            assert np.allclose(mod.gammas[mu] @ mod.gammas[nu]
                               + mod.gammas[nu] @ mod.gammas[mu], target, atol=1e-14)


def test_split_signature_hermiticity():
    mod = clifford.build_module(2, 2)
    for mu in (0, 1):
        assert np.allclose(mod.gammas[mu].conj().T, mod.gammas[mu], atol=1e-14)
    for mu in (2, 3):
        assert np.allclose(mod.gammas[mu].conj().T, -mod.gammas[mu], atol=1e-14)


def test_conjugation_square_riemannian():
    mod = clifford.build_module(0, 4)
    assert np.allclose(mod.conj_unitary @ mod.conj_unitary.conj(),
                       -np.eye(4), atol=1e-14)


def test_gamma_product_triples():
    mod = clifford.build_module(0, 4)
    g = mod.gammas
    h0 = mod.gamma_hat(0)
    assert np.allclose(h0, g[1] @ g[2] @ g[3], atol=1e-14)
    # triple product of anti-Hermitian gammas is self-adjoint
    assert np.allclose(h0.conj().T, h0, atol=1e-14)

    mod13 = clifford.build_module(1, 3)
    h0 = mod13.gamma_hat(0)
    assert np.allclose(h0.conj().T, h0, atol=1e-14)

    for mu in range(4):
        assert np.allclose(mod.gammas[mu], g[mu], atol=1e-14)


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_trace4_against_product_oracle(p, q):
    mod = clifford.build_module(p, q)
    sig = mod.signature
    g = mod.gammas
    for mu in range(4):
        for nu in range(4):
            for al in range(4):
                for rho in range(4):
                    direct = np.trace(g[mu] @ g[nu] @ g[al] @ g[rho])
                    assert abs(direct - clifford.trace4(sig, mu, nu, al, rho)) <= 1e-12


def test_trace4_frozen_values():
    s04 = clifford.build_signature(0, 4)
    assert clifford.trace4(s04, 0, 1, 2, 3) == 0
    assert clifford.trace4(s04, 0, 1, 1, 0) == 4      # 4 eta00 eta11 = 4
    s13 = clifford.build_signature(1, 3)
    assert clifford.trace4(s13, 0, 0, 1, 1) == -4     # 4 eta00 eta11 = -4


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_gamma_identities(p, q):
    mod = clifford.build_module(p, q)
    report = clifford.verify_gamma_identities(mod)
    for name, dev in report.items():
        assert dev <= 1e-12, f"({p},{q}) {name}: {dev}"


@pytest.mark.parametrize("p,q", ALL_SIGS + [(4, 0)])
@pytest.mark.parametrize("sign,check", [("sign_s", "single_times_triple"),
                                        ("sign_t", "triple_times_triple")])
def test_gamma_identities_read_the_weitzenbock_signs(monkeypatch, p, q, sign, check):
    # the product checks are written with sign_s and sign_t, so one flipped sign shows
    mod = clifford.build_module(p, q)
    true_sign = getattr(clifford, sign)

    def flipped(sig, mu, nu, *rest):
        value = true_sign(sig, mu, nu, *rest)
        return -value if (mu, nu) == (0, 1) else value

    monkeypatch.setattr(clifford, sign, flipped)
    assert clifford.verify_gamma_identities(mod)[check] > 0


def test_triple_squares_riemannian():
    # gamma^{hat mu} gamma^{hat mu} = -e_mu det(eta) = +1 in (0, 4)
    mod = clifford.build_module(0, 4)
    for mu in range(4):
        h = mod.gamma_hat(mu)
        assert np.allclose(h @ h, np.eye(4), atol=1e-13)


def test_appendix_coefficient_of_full_product():
    # gamma^mu gamma^{hat mu} = (-1)^mu gamma^0 gamma^1 gamma^2 gamma^3
    mod = clifford.build_module(1, 3)
    g = mod.gammas
    full = g[0] @ g[1] @ g[2] @ g[3]
    for mu in range(4):
        prod = g[mu] @ mod.gamma_hat(mu)
        coeff = np.trace(full.conj().T @ prod) / np.trace(full.conj().T @ full)
        assert abs(coeff - (-1) ** mu) <= 1e-13


# U_C of each signature as (real part, imaginary part), signed zeros included
PINNED_CONJ_UNITARY = {
    (0, 4): ([[0.0] * 4] * 4,
             [[0.0, 0.0, -0.0, -1.0], [0.0, 0.0, -1.0, -0.0],
              [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
    (1, 3): ([[0.0] * 4] * 4,
             [[0.0, -1.0, 0.0, -0.0], [1.0, 0.0, 0.0, 0.0],
              [0.0, -0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]),
    (2, 2): ([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0],
              [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
             [[0.0] * 4] * 4),
    (3, 1): ([[0.0, 0.0, 1.0, 0.0], [0.0, -0.0, 0.0, -1.0],
              [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, -0.0]],
             [[0.0] * 4] * 4),
}


@pytest.mark.parametrize("p,q", ALL_SIGS)
def test_conjugation_unitary_pinned_bit_exact(p, q):
    re, im = PINNED_CONJ_UNITARY[(p, q)]
    want = np.empty((4, 4), dtype=complex)
    want.real, want.imag = re, im
    assert clifford.build_module(p, q).conj_unitary.tobytes() == want.tobytes()


def test_worst_keeps_a_nan_and_reads_zero_as_positive():
    nan = float("nan")
    assert max(0.0, nan) == 0.0  # the builtin drops it
    assert np.isnan(clifford.worst([0.0, nan, 1.0]))
    assert np.isnan(clifford.worst(x for x in (1.0, 2.0, nan)))
    assert clifford.worst([np.float64(1e-16), 3e-16, 2e-16]) == 3e-16
    assert math.copysign(1.0, clifford.worst([0.0, -0.0])) == 1.0


@pytest.mark.parametrize("p,q", ALL_SIGS + [(4, 0)])
def test_a_nan_gamma_fails_every_check_that_reads_it(p, q):
    mod = clifford.build_module(p, q)
    g1 = mod.gammas[1].copy()
    g1[0, 1] = np.nan
    bad = dataclasses.replace(mod, gammas=(mod.gammas[0], g1, *mod.gammas[2:]))
    report = {**clifford.verify_module_invariants(bad), **clifford.verify_gamma_identities(bad)}
    # chirality and C are the module's own, so only these four do not read gamma^1
    clean = {"chirality_square", "chirality_selfadjoint", "conj_square", "conj_chirality"}
    assert len(report) == 16
    assert all(report[name] == 0.0 for name in clean)
    assert all(np.isnan(dev) for name, dev in report.items() if name not in clean)
