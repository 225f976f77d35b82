"""Fuzzy and gauge matrix spectral triples: data, Dirac operators, axioms.

Every Dirac operator is built by `fluct.assemble_fluctuated`: the product
one at the zero fluctuation, `assemble_fluctuated(gt, zero_fluctuation(gt),
mod)`, and the fuzzy one as that product operator of `fuzzy_triple(fz)`
(n = 1, D_F = 0).  Its square is stated once, in Weitzenbock form, by
`weitzenbock_rhs`, one coefficient per Clifford monomial.  `gamma_basis` is
the one check that a Clifford module belongs to a triple.

The Hilbert space of a fuzzy geometry is V (x) M_N; a gauge triple tensors a
finite part on M_n, giving V (x) M_N (x) M_n of dimension 4 N^2 n^2.  The
matrix factor M_N (x) M_n is identified with M_{Nn} via the Kronecker
product, so all of its operators run through the vectorization conventions
of `superop`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

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
    read off the shape, and N = 0 is refused.  An error names its block as mu<k> or hat<k>.
    """

    sig: Signature
    K: np.ndarray
    K_hat: np.ndarray

    def __post_init__(self):
        N = self.N
        sig = self.sig
        if N < 1:
            raise DimensionMismatch(f"N = {N}: the K blocks are empty")
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
    """Inner-space data: dimension n >= 1 and a Hermitian D_F (possibly zero)."""

    n: int
    D_F: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"n = {self.n}: D_F is empty")
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


def gamma_basis(gt: GaugeTriple, mod: CliffordModule) -> np.ndarray:
    """gamma^0..3, gamma^{hat 0}..{hat 3}, gamma of mod; one of another signature is refused."""
    if gt.sig != mod.signature:
        raise DimensionMismatch("triple and Clifford module carry different signatures")
    return np.array([*mod.gammas, *map(mod.gamma_hat, range(4)), mod.chirality])


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
    the blocks overflow raises OverflowError, and N = 0 the DimensionMismatch of `FuzzyData`,
    without numpy's warnings.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(max(N, 1))
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
    """D_f^2 on V (x) M_N: `weitzenbock_rhs` of `fuzzy_triple(fz)` at A = S = 0, Phi = 0.

    Of its 16 coefficients the eight of gamma^I gamma vanish, 1 carries sum_mu e_mu
    (k_mu^2 - det(eta) x_mu^2), and gamma^mu gamma^nu and gamma carry theirs at
    k_mu = {K_mu, .}_{e_mu} and x_mu = {K_{hat mu}, .}_{e_hat mu}.
    """
    from .fluct import zero_fluctuation
    gt = fuzzy_triple(fz)
    return weitzenbock_rhs(gt, zero_fluctuation(gt), mod)


def weitzenbock_rhs(gt: GaugeTriple, fl, mod: CliffordModule) -> np.ndarray:
    """D_omega^2 in Weitzenbock form, for D_omega = sum_I gamma^I (x) d_I + gamma (x) Phi with
    the nine `fluct.term_ops` (k_mu = d_mu, the triple-index x_mu with gamma^{hat mu}, Phi),
    as one coefficient per Clifford monomial, 16 in all (s, t: `clifford.sign_s`, `sign_t`):
      1                  sum_mu e_mu (k_mu^2 - det(eta) x_mu^2) + Phi^2
      gamma^mu gamma^nu  [k_mu, k_nu] + t_{mu nu} [x_mu, x_nu] + sum_{alpha, beta} s_{alpha beta
        (mu < nu)        mu nu} {x_beta, k_alpha}, alpha and beta the two indices not mu or nu
      gamma              (1/sigma_eta) sum_mu (-1)^mu [k_mu, x_mu]   (the sign D^2 requires)
      gamma^I gamma      [d_I, Phi] for each of the eight I, as gamma anticommutes with gamma^I
    """
    from .fluct import term_ops
    sig = gt.sig
    g = gamma_basis(gt, mod)
    *d, Phi = term_ops(gt, fl)
    k, x = d[:4], d[4:]

    def comm(a, b, sign=-1):  # [a, b], or {a, b} at sign = +1
        return a @ b + sign * (b @ a)

    pairs = [(np.eye(4), sum(sig.e[mu] * (k[mu] @ k[mu] - sig.det_eta() * x[mu] @ x[mu])
                             for mu in range(4)) + Phi @ Phi)]
    for mu, nu in combinations(range(4), 2):
        rest = [lam for lam in range(4) if lam not in (mu, nu)]
        pairs.append((g[mu] @ g[nu], comm(k[mu], k[nu]) + sign_t(sig, mu, nu) * comm(x[mu], x[nu])
                      + sum(sign_s(sig, al, be, mu, nu) * comm(x[be], k[al], +1)
                            for al, be in permutations(rest))))
    pairs.append((g[8], sum((-1) ** mu * comm(k[mu], x[mu]) for mu in range(4)) / sig.sigma_eta))
    pairs += [(g_I @ g[8], comm(d_I, Phi)) for g_I, d_I in zip(g[:8], d)]
    return sum(np.kron(G, C) for G, C in pairs)
