"""Connes one-forms, inner fluctuations, gauge potentials and the Higgs field.

A one-form built from algebra pairs decomposes over the trace-orthogonal
basis {gamma^mu, gamma^{hat mu}, gamma} of End(V) with pure left
multiplications as coefficients; fluctuating with D + omega + eps' J omega
J^{-1} (eps' = +1 in every 4d signature) turns those coefficients into
generalized commutators, which is the closed form the assembler uses.
`terms` states that closed form once, as the nine (left, right) slot pairs,
which the assembler, the action's kernel and (through `term_ops`) every
superoperator oracle read.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordModule
from .dirac import GaugeTriple, conjugate_by_J, lift, random_typed, represent_algebra
from .errors import DimensionMismatch, NotSelfAdjoint
from .superop import left_mult, right_mult, unvec, vec


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


def random_fluctuation(gt: GaugeTriple, scale: float | None = None, seed=0) -> Fluctuation:
    """Gaussian fluctuation with the correct adjointness types, from default_rng(seed); seed
    may be a Generator, such as one of `dirac.stream`.

    Every field is one `random_typed` draw from its whole space: the four A_mu
    first, then the four S_mu only when the fuzzy data has X blocks (else S is
    zeros), then phi from all of Herm(m), zero and not drawn where D_F is
    scalar (`FiniteData.is_scalar`; the Higgs space is 0 then, as in the
    sampler).  A scale at which the fields overflow raises OverflowError,
    without numpy's warnings.
    """
    sig = gt.sig
    m = gt.m
    if scale is None:
        scale = 1.0 / np.sqrt(m)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        A = random_typed(m, rng, sig.e, scale)
        S = random_typed(m, rng, sig.e_hat, scale) if gt.fuzzy.has_triples else np.zeros_like(A)
        phi = (np.zeros((m, m), dtype=complex) if gt.finite.is_scalar
               else random_typed(m, rng, (1,), scale)[0])
    if not all(np.isfinite(x).all() for x in (A, S, phi)):
        raise OverflowError("the fluctuation overflows")
    return Fluctuation(A=A, S=S, phi=phi)


def terms(gt: GaugeTriple, fl: Fluctuation):
    """The (9, m, m) stacks (L, R) of D_omega's slots, in `_gamma_basis` order:
    (X_mu, e_mu X_mu), (Y_mu, e_hat_mu Y_mu) and (P, eps'' phi), with
    X_mu = K_mu (x) 1 + A_mu, Y_mu = K_hat_mu (x) 1 + S_mu and P = 1 (x) D_F + phi."""
    sig, n = gt.sig, gt.n
    X = lift(gt.fuzzy.K, n) + fl.A
    Y = lift(gt.fuzzy.K_hat, n) + fl.S
    L = np.array([*X, *Y, gt.lifted_D_F + fl.phi])
    R = np.array([*sig.e, *sig.e_hat, 0])[:, None, None] * L
    R[8] = sig.eps_dblprime * fl.phi
    return L, R


def term_ops(gt: GaugeTriple, fl: Fluctuation) -> list:
    """The nine m^2 x m^2 operators l(L_I) + r(R_I) of `terms`: d_mu = {X_mu, .}_{e_mu},
    the triple-index {Y_mu, .}_{e_hat mu} and Phi = l(P) + eps'' r(phi)."""
    return [left_mult(L) + right_mult(R) for L, R in zip(*terms(gt, fl))]


def assemble_fluctuated(gt: GaugeTriple, fl: Fluctuation,
                        mod: CliffordModule) -> np.ndarray:
    """D_omega = sum_I gamma^I (x) (l(L_I) + r(R_I)), written block by block.

    The nine slot pairs (L_I, R_I) are `terms`.  Block (a, b) of the
    4 x 4 block structure is l(L_ab) + r(R_ab) with L_ab = sum_I gamma^I_ab
    L_I (R_ab likewise), so the m^2 x m^2 blocks are filled from m x m
    matrices: l(L) = 1 (x) L on the diagonal of the outer index pair,
    r(R) = R^T (x) 1 on that of the inner pair.  No Kronecker product of
    Hilbert-space size is formed.  The zero fluctuation gives the product
    Dirac operator, and n = 1 with D_F = 0 the fuzzy one.
    """
    if gt.sig != mod.signature:
        raise DimensionMismatch("triple and Clifford module carry different signatures")
    m = gt.m
    for name, field, shape in (("A", fl.A, (4, m, m)), ("S", fl.S, (4, m, m)),
                               ("phi", fl.phi, (m, m))):
        if field.shape != shape:
            raise DimensionMismatch(f"fluctuation {name} has shape {field.shape}, "
                                    f"need {shape} at m = {m}")
    gammas = _gamma_basis(mod)
    L, R = (np.tensordot(gammas, t, axes=(0, 0)) for t in terms(gt, fl))  # (a, b, i, j)
    # D[a, p, i, b, q, j] is the entry at row a m^2 + p m + i, column b m^2 + q m + j
    D = np.zeros((4, m, m, 4, m, m), dtype=complex)
    k = np.arange(m)
    D[:, k, :, :, k, :] += L.transpose(0, 2, 1, 3)   # p = q
    D[:, :, k, :, :, k] += R.transpose(0, 3, 1, 2)   # i = j, entry R_ab[q, p]
    return D.reshape(4 * m * m, 4 * m * m)
