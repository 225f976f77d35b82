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

from .clifford import CliffordModule, gamma_product, single, hat
from .dirac import (GaugeTriple, assemble_product_dirac, conjugate_by_J,
                    random_hermitian, real_structure, represent_algebra)
from .errors import DimensionMismatch, NotSelfAdjoint
from .superop import SuperOp, gen_comm, kron, left_mult, right_mult, unvec, vec


@dataclass(frozen=True)
class Fluctuation:
    """Gauge potentials A_mu, S_mu and the Higgs matrix phi.

    Adjointness types: (A_mu)* = e_mu A_mu, (S_mu)* = e_hat_mu S_mu, and
    phi* = phi with phi in M_N (x) span{a [D_F, c]}.  S is None for flat
    configurations; phi is zero for Yang-Mills triples.
    """

    A: tuple
    S: tuple | None
    phi: np.ndarray

    @property
    def flat(self) -> bool:
        return self.S is None


def zero_fluctuation(gt: GaugeTriple, flat: bool = True) -> Fluctuation:
    m = gt.m
    zero = np.zeros((m, m), dtype=complex)
    S = None if flat else tuple(zero.copy() for _ in range(4))
    return Fluctuation(A=tuple(zero.copy() for _ in range(4)), S=S, phi=zero.copy())


def one_form_span(D_F: np.ndarray, seed: int = 0, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of Omega^1_{D_F} = span{a [D_F, c]} inside M_n.

    Rank-revealing SVD over 2 n^2 random pairs; returns an (r, n, n) array
    whose slices are HS-orthonormal.  Empty (r = 0) when D_F is central.
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


def selfadjoint_span_basis(basis: np.ndarray) -> np.ndarray:
    """Real-orthonormal basis of the self-adjoint part of a *-closed span."""
    n = basis.shape[1] if basis.size else 0
    cands = []
    for B in basis:
        cands.append((B + B.conj().T) / 2)
        cands.append(1j * (B - B.conj().T) / 2)
    if not cands:
        return np.zeros((0, n, n), dtype=complex)
    rows = np.array([vec(C) for C in cands])
    # real orthogonalization in the realified HS space
    real_rows = np.hstack([rows.real, rows.imag])
    _, sv, vh = np.linalg.svd(real_rows, full_matrices=False)
    r = int(np.sum(sv > 1e-10 * sv[0])) if sv.size else 0
    nn = n * n
    out = []
    for j in range(r):
        out.append(unvec(vh[j, :nn] + 1j * vh[j, nn:], n))
    return np.array(out)


def project_onto_span(X: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real-linear HS projection onto span_R of the given basis slices."""
    if basis.size == 0:
        return np.zeros_like(X)
    out = np.zeros_like(X)
    for B in basis:
        out += np.real(np.trace(B.conj().T @ X)) * B
    return out


def project_higgs(H: np.ndarray, N: int, n: int, basis: np.ndarray) -> np.ndarray:
    """Project a Hermitian m x m matrix onto Herm(N) (x) span_R(basis).

    The basis slices are Hermitian and real-orthonormal (as returned by
    `selfadjoint_span_basis`), hence also an orthonormal basis of their
    complex span W.  Projecting every n x n block of H onto W is the
    orthogonal projection onto M_N (x) W, which keeps H Hermitian and so
    lands in Herm(N) (x) span_R(basis).
    """
    if basis.size == 0:
        return np.zeros_like(H)
    blocks = H.reshape(N, n, N, n)
    coeffs = np.einsum("kab,iajb->ijk", basis.conj(), blocks)
    return np.einsum("ijk,kab->iajb", coeffs, basis).reshape(H.shape)


def connes_one_form(gt: GaugeTriple, mod: CliffordModule, pairs) -> np.ndarray:
    """omega = sum_j a_j [D, c_j] on V (x) M_N (x) M_n.

    Each pair is (a, c) with a, c in M_N (x) M_n given as m x m matrices.
    """
    m = gt.m
    D = assemble_product_dirac(gt, mod)
    omega = np.zeros_like(D)
    for a, c in pairs:
        if a.shape != (m, m) or c.shape != (m, m):
            raise DimensionMismatch("algebra elements must be m x m with m = N n")
        ra = represent_algebra(a, m)
        rc = represent_algebra(c, m)
        omega += ra @ (D @ rc - rc @ D)
    return omega


def fluctuate(D: np.ndarray, omega: np.ndarray, S: np.ndarray, eps_prime: int,
              symmetrize: bool = False) -> np.ndarray:
    """D + omega + eps' J omega J^{-1}, enforcing omega* = omega.

    With symmetrize the one-form is replaced by (omega + omega*)/2;
    otherwise a non-self-adjoint omega is rejected.
    """
    dev = np.linalg.norm(omega - omega.conj().T)
    if symmetrize:
        omega = (omega + omega.conj().T) / 2
    elif dev > 1e-9 * max(1.0, np.linalg.norm(omega)):
        raise NotSelfAdjoint(f"one-form deviates from self-adjointness by {dev:.3e}")
    return D + omega + eps_prime * conjugate_by_J(omega, S)


def _basis_coefficient(op: np.ndarray, gA: np.ndarray, m2: int) -> np.ndarray:
    """(1/4) partial trace of op against a gamma-basis element."""
    out = np.zeros((m2, m2), dtype=complex)
    gAd = gA.conj().T
    for a in range(4):
        for b in range(4):
            w = gAd[b, a]
            if w != 0:
                out += w * op[a * m2:(a + 1) * m2, b * m2:(b + 1) * m2]
    return out / 4


def extract_fluctuation(gt: GaugeTriple, mod: CliffordModule,
                        omega: np.ndarray) -> Fluctuation:
    """Read (A_mu, S_mu, phi) off a self-adjoint one-form.

    Uses trace-orthogonality of the 16 gamma monomials; every coefficient of
    a one-form is a pure left multiplication, so the matrix is recovered by
    applying the coefficient superop to the identity.
    """
    m = gt.m
    m2 = m * m
    eye = np.eye(m)
    A = []
    Smats = []
    for mu in range(4):
        w = _basis_coefficient(omega, gamma_product(mod, single(mu)), m2)
        A.append(unvec(w @ vec(eye), m))
        wh = _basis_coefficient(omega, gamma_product(mod, hat(mu)), m2)
        Smats.append(unvec(wh @ vec(eye), m))
    wphi = _basis_coefficient(omega, mod.chirality, m2)
    phi = unvec(wphi @ vec(eye), m)
    keep_S = max(np.abs(Sm).max() for Sm in Smats) > 1e-12
    return Fluctuation(A=tuple(A), S=tuple(Smats) if keep_S else None, phi=phi)


def random_fluctuation(gt: GaugeTriple, scale: float | None = None,
                       seed: int = 0, higgs_terms: int = 3) -> Fluctuation:
    """Seeded Gaussian fluctuation with the correct adjointness types.

    phi is a symmetrized sum of X (x) a [D_F, c] terms, zero for Yang-Mills
    triples; S matrices are drawn only when the fuzzy data has X blocks.
    """
    sig = gt.sig
    m = gt.m
    if scale is None:
        scale = 1.0 / np.sqrt(m)
    rng = np.random.default_rng(seed)
    A = []
    for mu in range(4):
        base = random_hermitian(m, rng, scale)
        A.append(base if sig.e[mu] == 1 else 1j * base)
    S = None
    if gt.fuzzy.has_triples:
        S = []
        for mu in range(4):
            base = random_hermitian(m, rng, scale)
            S.append(base if sig.e_hat[mu] == 1 else 1j * base)
        S = tuple(S)
    phi = np.zeros((m, m), dtype=complex)
    if not gt.yang_mills:
        n = gt.n
        for _ in range(higgs_terms):
            X = random_hermitian(gt.N, rng, scale)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            w = np.kron(X, a @ (gt.finite.D_F @ c - c @ gt.finite.D_F))
            phi += (w + w.conj().T) / 2
    return Fluctuation(A=tuple(A), S=S, phi=phi)


def higgs_field(fl: Fluctuation, gt: GaugeTriple) -> SuperOp:
    """Phi = Left(1 (x) D_F + phi) + eps'' Right(phi) on M_N (x) M_n."""
    inner = np.kron(np.eye(gt.N), gt.finite.D_F)
    return left_mult(inner + fl.phi) + gt.sig.eps_dblprime * right_mult(fl.phi)


def covariant_ops(gt: GaugeTriple, fl: Fluctuation):
    """The four superops d_mu = {K_mu (x) 1 + A_mu, .}_{e_mu}."""
    sig = gt.sig
    n = gt.n
    return [gen_comm(np.kron(gt.fuzzy.block(single(mu)), np.eye(n)) + fl.A[mu], sig.e[mu])
            for mu in range(4)]


def triple_ops(gt: GaugeTriple, fl: Fluctuation):
    """The four superops x_mu + s_mu for the triple-index sector."""
    sig = gt.sig
    n = gt.n
    out = []
    for mu in range(4):
        blk = np.kron(gt.fuzzy.block(hat(mu)), np.eye(n))
        if fl.S is not None:
            blk = blk + fl.S[mu]
        out.append(gen_comm(blk, sig.e_hat[mu]))
    return out


def assemble_fluctuated(gt: GaugeTriple, fl: Fluctuation,
                        mod: CliffordModule) -> np.ndarray:
    """D_omega built directly from the closed-form field content."""
    if gt.sig != mod.signature:
        raise DimensionMismatch("triple and Clifford module carry different signatures")
    m = gt.m
    if fl.A[0].shape != (m, m):
        raise DimensionMismatch(f"fluctuation size {fl.A[0].shape} vs m = {m}")
    D = np.zeros((gt.hilbert_dim, gt.hilbert_dim), dtype=complex)
    for mu, d in enumerate(covariant_ops(gt, fl)):
        D += kron(mod.gammas[mu], d.rep)
    for mu, xs in enumerate(triple_ops(gt, fl)):
        if np.abs(xs.rep).max() > 0:
            D += kron(gamma_product(mod, hat(mu)), xs.rep)
    Phi = higgs_field(fl, gt)
    if np.abs(Phi.rep).max() > 0:
        D += kron(mod.chirality, Phi.rep)
    return D
