"""Fuzzy and gauge matrix spectral triples: data, Dirac operators, axioms.

Every Dirac operator is built by `fluct.assemble_fluctuated`: the product
one at the zero fluctuation, `assemble_fluctuated(gt, zero_fluctuation(gt),
mod)`, and the fuzzy one as that product operator of `fuzzy_triple(fz)`
(n = 1, D_F = 0).  Its square is stated once, in Weitzenbock form, by
`weitzenbock_rhs`.

The Hilbert space of a fuzzy geometry is V (x) M_N; a gauge triple tensors a
finite part on M_n, giving V (x) M_N (x) M_n of dimension 4 N^2 n^2.  The
matrix factor M_N (x) M_n is identified with M_{Nn} via the Kronecker
product, so all of its operators run through the vectorization conventions
of `superop`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordModule, Signature, sign_s, sign_t, worst
from .errors import DimensionMismatch
from .superop import left_mult, transpose_permutation


def has_adjointness_type(M: np.ndarray, e: int) -> bool:
    """M* = e M up to 1e-12 max(1, max|M|); False for any non-finite M."""
    return bool(np.abs(M.conj().T - e * M).max() <= 1e-12 * max(1.0, np.abs(M).max()))


@dataclass(frozen=True)
class FuzzyData:
    """The K_I blocks of a fuzzy Dirac operator as two (4, N, N) stacks in mu order.

    K[mu] = K_mu with K_mu* = e_mu K_mu, and K_hat[mu] = K_{hat mu} with
    K_{hat mu}* = e_hat_mu K_{hat mu}.  A zero block is stored as zeros; N is
    read off the shape.  An error names its block as mu<k> or hat<k>.
    """

    sig: Signature
    K: np.ndarray
    K_hat: np.ndarray

    def __post_init__(self):
        N = self.N
        sig = self.sig
        for kind, stack, signs in (("mu", self.K, sig.e), ("hat", self.K_hat, sig.e_hat)):
            if len(stack) != 4:
                raise DimensionMismatch(f"need 4 blocks {kind}0..{kind}3, got {len(stack)}")
            for mu, (mat, e) in enumerate(zip(stack, signs)):
                if mat.shape != (N, N):
                    raise DimensionMismatch(f"block {kind}{mu} has shape {mat.shape}, N = {N}")
                if not has_adjointness_type(mat, e):
                    raise ValueError(f"block {kind}{mu} violates its adjointness type (e = {e})")

    @property
    def N(self) -> int:
        return self.K.shape[-1]

    @property
    def has_triples(self) -> bool:
        return bool(np.abs(self.K_hat).max() > 0)


@dataclass(frozen=True)
class FiniteData:
    """Inner-space data: dimension n and a Hermitian D_F (possibly zero)."""

    n: int
    D_F: np.ndarray

    def __post_init__(self):
        if self.D_F.shape != (self.n, self.n):
            raise DimensionMismatch(f"D_F shape {self.D_F.shape}, n = {self.n}")
        if not has_adjointness_type(self.D_F, 1):
            raise ValueError("D_F must be Hermitian")

    @property
    def is_scalar(self) -> bool:
        """D_F = c 1; exactly then Omega^1_{D_F} = span{a [D_F, b]} is 0, else all of M_n."""
        return not np.any(self.D_F - self.D_F[0, 0] * np.eye(self.n))


@dataclass(frozen=True)
class GaugeTriple:
    """A fuzzy geometry tensored with a finite geometry on M_n."""

    fuzzy: FuzzyData
    finite: FiniteData

    @property
    def yang_mills(self) -> bool:
        """D_F = 0."""
        return not np.abs(self.finite.D_F).max() > 0

    @property
    def N(self) -> int:
        return self.fuzzy.N

    @property
    def n(self) -> int:
        return self.finite.n

    @property
    def m(self) -> int:
        """Side dimension of the combined matrix factor."""
        return self.fuzzy.N * self.finite.n

    @property
    def lifted_D_F(self) -> np.ndarray:
        """1_N (x) D_F: D_F acting on the matrix factor M_N (x) M_n = M_m."""
        return np.kron(np.eye(self.N), self.finite.D_F)

    @property
    def hilbert_dim(self) -> int:
        return 4 * self.m * self.m

    @property
    def sig(self) -> Signature:
        return self.fuzzy.sig


def lift(K, n: int) -> np.ndarray:
    """K (x) 1_n: an N x N block, or each block of a stack, acting on M_N (x) M_n = M_{Nn}."""
    K = np.asarray(K)
    N = K.shape[-1]
    return np.einsum("...ij,ab->...iajb", K, np.eye(n)).reshape(K.shape[:-2] + (N * n, N * n))


def complex_gaussian(rng, n: int, k: int | None = None) -> np.ndarray:
    """An n x n complex Gaussian matrix, or a stack of k: real parts, then imaginary parts.

    Each matrix draws its n^2 real parts and then its n^2 imaginary parts,
    so a stack of k draws the stream of k single draws.
    """
    M = rng.normal(size=(2, n, n) if k is None else (k, 2, n, n))
    return M[..., 0, :, :] + 1j * M[..., 1, :, :]


def stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of spawn stream `key` of a root seed: default_rng(SeedSequence(seed, key))."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def random_typed(n: int, rng, e, scale: float = 1.0) -> np.ndarray:
    """The (len(e), n, n) stack of M_k = scale (G_k + G_k*) / 2, times i where e_k = -1, so
    M_k* = e_k M_k: k `complex_gaussian` draws G_k, the stream of k single draws."""
    G = complex_gaussian(rng, n, len(e))
    H = scale * (G + G.conj().transpose(0, 2, 1)) / 2
    if 1 not in e:  # e_k = -1 throughout, as in many of the sampler's stacks: no mask
        H *= 1j
    elif -1 in e:
        H[np.equal(e, -1)] *= 1j
    return H


def random_hermitian(n: int, rng, scale: float = 1.0) -> np.ndarray:
    return random_typed(n, rng, (1,), scale)[0]


def random_fuzzy(N: int, sig: Signature, scale: float | None = None, seed=0,
                 include_X: bool = True) -> FuzzyData:
    """Gaussian K blocks of the correct adjointness type, from default_rng(seed).

    seed may be a Generator, such as one of `stream`.  scale defaults to 1/sqrt(N) so spectra
    stay O(1) as N grows.  The four K_mu are drawn first, then the four K_hat_mu; with
    include_X false K_hat is zeros and nothing more is drawn ('flat' data).  A scale at which
    the blocks overflow raises OverflowError, without numpy's warnings.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(N)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        K = random_typed(N, rng, sig.e, scale)
        K_hat = random_typed(N, rng, sig.e_hat, scale) if include_X else np.zeros_like(K)
    if not (np.isfinite(K).all() and np.isfinite(K_hat).all()):
        raise OverflowError("the K blocks overflow")
    return FuzzyData(sig=sig, K=K, K_hat=K_hat)


def zero_fuzzy(N: int, sig: Signature) -> FuzzyData:
    zero = np.zeros((4, N, N), dtype=complex)
    return FuzzyData(sig=sig, K=zero, K_hat=zero)


def real_structure(mod: CliffordModule, m: int) -> np.ndarray:
    """Linear part S of J = S o conj on V (x) M_m.

    On the matrix factor, T |-> T* is entrywise conjugation followed by the
    transpose permutation at vec level; on V it is the conjugation unitary.
    S is unitary, so J M J^{-1} = S conj(M) S* for any linear operator M.
    """
    return np.kron(mod.conj_unitary, transpose_permutation(m))


def conjugate_by_J(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    """J M J^{-1} for a linear operator M, given the linear part S of J."""
    return S @ M.conj() @ S.conj().T


def represent_algebra(a: np.ndarray, m: int) -> np.ndarray:
    """rho(a): left multiplication on the matrix factor, trivial on V."""
    if a.shape != (m, m):
        raise DimensionMismatch(f"algebra element shape {a.shape}, expected ({m}, {m})")
    return np.kron(np.eye(4), left_mult(a))


def check_axioms(gt: GaugeTriple, mod: CliffordModule, seed=0, pairs: int = 20) -> dict:
    """Numerical verification of the real even spectral triple axioms.

    The algebra pairs come from default_rng(seed); seed may be a Generator, such as one
    of `stream`.  Returns a dict of max deviations, each of an axiom of the triple given.
    'J_D_sign' and 'D_gamma_anticommute' are axioms only when D_F = 0 (left
    multiplication by D_F is not J-compatible), so only then are they computed.
    """
    from .fluct import assemble_fluctuated, term_ops, zero_fluctuation
    m = gt.m
    rng = np.random.default_rng(seed)
    D = assemble_fluctuated(gt, zero_fluctuation(gt), mod)
    S = real_structure(mod, m)
    sig = gt.sig
    eye = np.eye(gt.hilbert_dim)
    gamma_f = np.kron(mod.chirality, np.eye(m * m))

    report = {}
    report["D_selfadjoint"] = np.abs(D - D.conj().T).max()
    report["J_square"] = np.abs(S @ S.conj() - sig.eps * eye).max()
    report["J_gamma_sign"] = np.abs(S @ gamma_f.conj() - sig.eps_dblprime * gamma_f @ S).max()

    if gt.yang_mills:
        report["J_D_sign"] = np.abs(S @ D.conj() - sig.eps_prime * D @ S).max()
        report["D_gamma_anticommute"] = np.abs(D @ gamma_f + gamma_f @ D).max()

    def order_one_commutant(a, b):
        rho_a = represent_algebra(a, m)
        b_op = conjugate_by_J(represent_algebra(b.conj().T, m), S)
        inner = D @ rho_a - rho_a @ D
        return (np.abs(inner @ b_op - b_op @ inner).max(),
                np.abs(rho_a @ b_op - b_op @ rho_a).max())

    rows = [order_one_commutant(complex_gaussian(rng, m), complex_gaussian(rng, m))
            for _ in range(pairs)]
    report["order_one"] = worst(row[0] for row in rows)
    report["commutant"] = worst(row[1] for row in rows)

    # the eight K terms at the zero fluctuation: adjoint = e * op whenever K* = e K;
    # the gamma factor restores self-adjointness of the full Dirac term
    report["block_e_selfadjointness"] = worst(
        np.abs(op.conj().T - e * op).max()
        for op, e in zip(term_ops(gt, zero_fluctuation(gt))[:8], (*sig.e, *sig.e_hat)))
    return report


def fuzzy_triple(fz: FuzzyData) -> GaugeTriple:
    """The fuzzy geometry as a gauge triple: n = 1 and D_F = 0."""
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=1, D_F=np.zeros((1, 1), dtype=complex)))


def lichnerowicz_rhs(fz: FuzzyData, mod: CliffordModule) -> np.ndarray:
    """The six-term closed form of D_f^2 on V (x) M_N: `weitzenbock_rhs` of
    `fuzzy_triple(fz)` at the zero fluctuation (A = S = 0, Phi = 0).

    The chirality term is (1/sigma_eta) (-1)^mu gamma (x) [k_mu, x_mu]; this
    is the sign the identity D^2 = RHS actually requires (and the one the
    commutator bookkeeping produces), for every signature.
    """
    from .fluct import zero_fluctuation
    gt = fuzzy_triple(fz)
    return weitzenbock_rhs(gt, zero_fluctuation(gt), mod)


def weitzenbock_rhs(gt: GaugeTriple, fl, mod: CliffordModule) -> np.ndarray:
    """D_omega^2 in Weitzenbock form, for D_omega = sum_I gamma^I (x) d_I + gamma (x) Phi with
    the nine `fluct.term_ops` (k_mu = d_mu, the triple-index x_mu with gamma^{hat mu}, Phi):
    (sum_I gamma^I (x) d_I)^2 + 1 (x) Phi^2 + sum_I gamma^I gamma (x) [d_I, Phi], as gamma
    anticommutes with every gamma^I."""
    from .fluct import term_ops
    sig = gt.sig
    if sig != mod.signature:
        raise DimensionMismatch("triple and Clifford module carry different signatures")
    *d, Phi = term_ops(gt, fl)
    k, x = d[:4], d[4:]
    g = mod.gammas
    eye4 = np.eye(4)
    det = sig.det_eta()
    rhs = np.zeros((gt.hilbert_dim, gt.hilbert_dim), dtype=complex)
    for mu in range(4):
        rhs += sig.e[mu] * np.kron(eye4, k[mu] @ k[mu])
        for nu in range(4):
            comm = k[mu] @ k[nu] - k[nu] @ k[mu]
            rhs += 0.5 * np.kron(g[mu] @ g[nu], comm)
    for mu in range(4):
        rhs -= det * sig.e[mu] * np.kron(eye4, x[mu] @ x[mu])
    for mu in range(4):
        for nu in range(mu + 1, 4):
            t = sign_t(sig, mu, nu)
            if t:
                comm = x[mu] @ x[nu] - x[nu] @ x[mu]
                rhs += t * np.kron(g[mu] @ g[nu], comm)
    for mu in range(4):
        for nu in range(4):
            for al in range(4):
                for sg in range(4):
                    s_ = sign_s(sig, mu, nu, al, sg)
                    if s_:
                        acomm = x[nu] @ k[mu] + k[mu] @ x[nu]
                        rhs += 0.5 * s_ * np.kron(g[al] @ g[sg], acomm)
    for mu in range(4):
        comm = k[mu] @ x[mu] - x[mu] @ k[mu]
        rhs += ((-1) ** mu / sig.sigma_eta) * np.kron(mod.chirality, comm)
    rhs += np.kron(eye4, Phi @ Phi)
    for g_I, dI in zip((*g, *map(mod.gamma_hat, range(4))), d):
        rhs += np.kron(g_I @ mod.chirality, dI @ Phi - Phi @ dI)
    return rhs
