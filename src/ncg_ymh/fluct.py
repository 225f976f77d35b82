"""Connes one-forms, inner fluctuations, gauge potentials and the Higgs field.

A one-form built from algebra pairs decomposes over the trace-orthogonal
basis {gamma^mu, gamma^{hat mu}, gamma} of End(V) with pure left
multiplications as coefficients; fluctuating with D + omega + eps' J omega
J^{-1} (eps' = +1 in every 4d signature) turns those coefficients into
generalized commutators, which is the closed form the assembler uses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordModule
from .dirac import (GaugeTriple, complex_gaussian, conjugate_by_J, lift, random_hermitian,
                    random_typed, represent_algebra)
from .errors import DimensionMismatch, NotSelfAdjoint
from .superop import gen_comm, left_mult, right_mult, unvec, vec


@dataclass(frozen=True)
class Fluctuation:
    """Gauge potentials A_mu, S_mu and the Higgs matrix phi.

    A and S are (4, m, m) stacks in mu order, A[mu] = A_mu and S[mu] = S_mu;
    phi is m x m.  Adjointness types: (A_mu)* = e_mu A_mu,
    (S_mu)* = e_hat_mu S_mu, and phi* = phi, and phi = 0 when D_F is
    scalar: span{a [D_F, c]} is 0 then and all of M_n otherwise.  S is zeros
    for flat configurations.
    """

    A: np.ndarray
    S: np.ndarray
    phi: np.ndarray


def zero_fluctuation(gt: GaugeTriple) -> Fluctuation:
    """A = S = 0 and phi = 0: the fluctuation of the product Dirac operator."""
    m = gt.m
    return Fluctuation(A=np.zeros((4, m, m), dtype=complex),
                       S=np.zeros((4, m, m), dtype=complex), phi=np.zeros((m, m), dtype=complex))


def connes_one_form(gt: GaugeTriple, mod: CliffordModule, pairs) -> np.ndarray:
    """omega = sum_j a_j [D, c_j] on V (x) M_N (x) M_n.

    Each pair is (a, c) with a, c in M_N (x) M_n given as m x m matrices.
    """
    m = gt.m
    D = assemble_fluctuated(gt, zero_fluctuation(gt), mod)
    omega = np.zeros_like(D)
    for a, c in pairs:
        if a.shape != (m, m) or c.shape != (m, m):
            raise DimensionMismatch("algebra elements must be m x m with m = N n")
        ra = represent_algebra(a, m)
        rc = represent_algebra(c, m)
        omega += ra @ (D @ rc - rc @ D)
    return omega


def fluctuate(D: np.ndarray, omega: np.ndarray, S: np.ndarray, eps_prime: int) -> np.ndarray:
    """D + omega + eps' J omega J^{-1}; a one-form not finite and self-adjoint is refused."""
    if not np.isfinite(omega).all():
        raise NotSelfAdjoint("one-form has non-finite entries")
    dev = np.linalg.norm(omega - omega.conj().T)
    if not dev <= 1e-9 * max(1.0, np.linalg.norm(omega)):
        raise NotSelfAdjoint(f"one-form deviates from self-adjointness by {dev:.3e}")
    return D + omega + eps_prime * conjugate_by_J(omega, S)


def _gamma_basis(mod: CliffordModule) -> np.ndarray:
    """The (9, 4, 4) stack gamma^0..3, gamma^{hat 0}..{hat 3}, gamma, in A, S, phi order."""
    return np.array([*mod.gammas, *map(mod.gamma_hat, range(4)), mod.chirality])


def extract_fluctuation(gt: GaugeTriple, mod: CliffordModule,
                        omega: np.ndarray) -> Fluctuation:
    """Read (A_mu, S_mu, phi) off a self-adjoint one-form.

    Uses trace-orthogonality of the 16 gamma monomials: the coefficient of
    gamma^I is (1/4) sum_ab conj(gamma^I_ab) Omega_ab, inverting the assembler's
    contraction over `_gamma_basis`.  Spinor block (a, b) of a one-form is a pure
    left multiplication by Omega_ab, so applying it to vec(1) gives Omega_ab.
    An S whose entries all lie below 1e-12 is read as zeros.
    """
    m = gt.m
    blocks = omega.reshape(4, m * m, 4, m * m) @ vec(np.eye(m))   # (a, p, b)
    coeffs = np.einsum("Iab,apb->Ip", _gamma_basis(mod).conj(), blocks) / 4
    A, S = (np.array([unvec(c, m) for c in coeffs[k:k + 4]]) for k in (0, 4))
    if np.abs(S).max() <= 1e-12:  # a NaN is kept
        S = np.zeros_like(S)
    return Fluctuation(A=A, S=S, phi=unvec(coeffs[8], m))


def random_fluctuation(gt: GaugeTriple, scale: float | None = None,
                       seed: int | np.random.SeedSequence = 0) -> Fluctuation:
    """Gaussian fluctuation with the correct adjointness types, from default_rng(seed).

    The four A_mu are drawn first, then the four S_mu only when the fuzzy
    data has X blocks (else S is zeros), then phi: a symmetrized sum of
    three X (x) a [D_F, c] terms, zero and not drawn where D_F is scalar
    (`FiniteData.is_scalar`, as in the sampler).  A scale at which the
    fields overflow raises OverflowError, without numpy's warnings.
    """
    sig = gt.sig
    m = gt.m
    if scale is None:
        scale = 1.0 / np.sqrt(m)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        A = random_typed(m, rng, sig.e, scale)
        S = random_typed(m, rng, sig.e_hat, scale) if gt.fuzzy.has_triples else np.zeros_like(A)
        phi = np.zeros((m, m), dtype=complex)
        if not gt.finite.is_scalar:
            n = gt.n
            for _ in range(3):
                X = random_hermitian(gt.N, rng, scale)
                a, c = complex_gaussian(rng, n), complex_gaussian(rng, n)
                w = np.kron(X, a @ (gt.finite.D_F @ c - c @ gt.finite.D_F))
                phi += (w + w.conj().T) / 2
    if not all(np.isfinite(x).all() for x in (A, S, phi)):
        raise OverflowError("the fluctuation overflows")
    return Fluctuation(A=A, S=S, phi=phi)


def higgs_field(fl: Fluctuation, gt: GaugeTriple) -> np.ndarray:
    """Phi = Left(1 (x) D_F + phi) + eps'' Right(phi) on M_N (x) M_n."""
    return left_mult(gt.lifted_D_F + fl.phi) + gt.sig.eps_dblprime * right_mult(fl.phi)


def covariant_matrices(K, A) -> np.ndarray:
    """The (4, m, m) stack X_mu = K_mu (x) 1_n + A_mu from N x N blocks K_mu."""
    K, A = np.asarray(K), np.asarray(A)
    return lift(K, A.shape[-1] // K.shape[-1]) + A


def covariant_ops(gt: GaugeTriple, fl: Fluctuation):
    """The four m^2 x m^2 operators d_mu = {K_mu (x) 1 + A_mu, .}_{e_mu}."""
    X = covariant_matrices(gt.fuzzy.K, fl.A)
    return [gen_comm(Xmu, e) for Xmu, e in zip(X, gt.sig.e)]


def triple_ops(gt: GaugeTriple, fl: Fluctuation):
    """The four m^2 x m^2 operators x_mu + s_mu for the triple-index sector."""
    Y = covariant_matrices(gt.fuzzy.K_hat, fl.S)
    return [gen_comm(Ymu, e) for Ymu, e in zip(Y, gt.sig.e_hat)]


def assemble_fluctuated(gt: GaugeTriple, fl: Fluctuation,
                        mod: CliffordModule) -> np.ndarray:
    """D_omega = sum_I gamma^I (x) (l(L_I) + r(R_I)), written block by block.

    The nine terms are the single-index {K_mu (x) 1 + A_mu, .}_{e_mu}, the
    triple-index {K_hat mu (x) 1 + S_mu, .}_{e_hat mu} and the Higgs term
    gamma (x) (l(1 (x) D_F + phi) + eps'' r(phi)).  Block (a, b) of the
    4 x 4 block structure is l(L_ab) + r(R_ab) with L_ab = sum_I gamma^I_ab
    L_I (R_ab likewise), so the m^2 x m^2 blocks are filled from m x m
    matrices: l(L) = 1 (x) L on the diagonal of the outer index pair,
    r(R) = R^T (x) 1 on that of the inner pair.  No Kronecker product of
    Hilbert-space size is formed.  The zero fluctuation gives the product
    Dirac operator, and n = 1 with D_F = 0 the fuzzy one.
    """
    if gt.sig != mod.signature:
        raise DimensionMismatch("triple and Clifford module carry different signatures")
    sig, m = gt.sig, gt.m
    for name, field, shape in (("A", fl.A, (4, m, m)), ("S", fl.S, (4, m, m)),
                               ("phi", fl.phi, (m, m))):
        if field.shape != shape:
            raise DimensionMismatch(f"fluctuation {name} has shape {field.shape}, "
                                    f"need {shape} at m = {m}")
    X = covariant_matrices(gt.fuzzy.K, fl.A)
    Y = covariant_matrices(gt.fuzzy.K_hat, fl.S)
    gammas = _gamma_basis(mod)
    lefts = np.array([*X, *Y, gt.lifted_D_F + fl.phi])
    rights = np.array([*(e * x for e, x in zip(sig.e, X)),
                       *(e * y for e, y in zip(sig.e_hat, Y)), sig.eps_dblprime * fl.phi])
    L = np.tensordot(gammas, lefts, axes=(0, 0))    # (a, b, i, j)
    R = np.tensordot(gammas, rights, axes=(0, 0))
    # D[a, p, i, b, q, j] is the entry at row a m^2 + p m + i, column b m^2 + q m + j
    D = np.zeros((4, m, m, 4, m, m), dtype=complex)
    k = np.arange(m)
    D[:, k, :, :, k, :] += L.transpose(0, 2, 1, 3)   # p = q
    D[:, :, k, :, :, k] += R.transpose(0, 3, 1, 2)   # i = j, entry R_ab[q, p]
    return D.reshape(4 * m * m, 4 * m * m)
