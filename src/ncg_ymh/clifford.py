"""Signature data, gamma matrices, chirality and charge conjugation for d = 4.

Conventions (fixed once, used everywhere):

* eta = diag(e_0, ..., e_3) with e_mu = +1 for mu < p and -1 for mu >= p;
  gamma^mu is Hermitian and squares to +1 in the first case, anti-Hermitian
  squaring to -1 in the second.
* The representation starts from a chiral Euclidean set of four Hermitian,
  pairwise anticommuting, square-one 4x4 matrices built from Pauli blocks;
  gamma^mu is multiplied by i for every mu >= p.
* hat indices: gamma^{hat mu} (`CliffordModule.gamma_hat`) is the
  increasing-order product of the three gammas with index != mu; its
  adjointness sign is e_{hat mu} = e_mu (-1)^{q+1} (`Signature.e_hat`).  A
  multi-index I of the Dirac operator is one of the four mu or the four
  hat mu; every matrix family indexed by I is kept as two mu-ordered stacks,
  with signs read off `Signature.e` and `Signature.e_hat`.
* chirality gamma = sigma_eta * gamma^0 gamma^1 gamma^2 gamma^3 with
  sigma_eta = (-i)^{s(s+1)/2 mod 4}, s = (q - p) mod 8.
* charge conjugation C = U_C o (entrywise conjugation), U_C found by a
  deterministic search over the 16 Pauli tensor monomials.
* every identity check of the package (here, in `dirac`, `gauge` and
  `verify`) folds its deviations with `worst`: the largest, or NaN if any
  deviation is NaN, so a NaN fails its identity instead of vanishing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConjugationNotFound, NonFourDimensional

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# KO sign table, s -> (eps, eps', eps'')
_KO_TABLE = {
    0: (+1, +1, +1),
    1: (+1, -1, +1),
    2: (-1, +1, -1),
    3: (-1, +1, +1),
    4: (-1, +1, +1),
    5: (-1, -1, +1),
    6: (+1, +1, -1),
    7: (+1, +1, +1),
}

# (-i)^k for k = 0..3, kept exact (no float powers)
_MINUS_I_POW = (1.0 + 0j, -1j, -1.0 + 0j, 1j)


@dataclass(frozen=True)
class Signature:
    """The (p, q) data with every derived sign."""

    p: int
    q: int
    s: int
    e: tuple
    e_hat: tuple
    eps: int
    eps_prime: int
    eps_dblprime: int
    sigma_eta: complex

    def det_eta(self) -> int:
        out = 1
        for x in self.e:
            out *= x
        return out


def build_signature(p: int, q: int) -> Signature:
    """All derived signs of a four-dimensional signature (p, q)."""
    if p < 0 or q < 0 or p + q != 4:
        raise NonFourDimensional(f"(p, q) = ({p}, {q}) but the pipeline needs p + q = 4")
    s = (q - p) % 8
    e = tuple(+1 if mu < p else -1 for mu in range(4))
    e_hat = tuple(e[mu] * (-1) ** (q + 1) for mu in range(4))
    eps, eps_prime, eps_dblprime = _KO_TABLE[s]
    sigma_eta = _MINUS_I_POW[(s * (s + 1) // 2) % 4]
    return Signature(p=p, q=q, s=s, e=e, e_hat=e_hat, eps=eps, eps_prime=eps_prime,
                     eps_dblprime=eps_dblprime, sigma_eta=sigma_eta)


@dataclass(frozen=True)
class CliffordModule:
    """Concrete gammas, chirality and conjugation unitary on V = C^4."""

    signature: Signature
    gammas: tuple
    chirality: np.ndarray
    conj_unitary: np.ndarray

    def gamma_hat(self, mu: int) -> np.ndarray:
        others = [nu for nu in range(4) if nu != mu]
        return self.gammas[others[0]] @ self.gammas[others[1]] @ self.gammas[others[2]]


# four Hermitian, pairwise anticommuting matrices squaring to +1
_EUCLIDEAN_BASE = (
    np.kron(_PAULI[1], _PAULI[0]),
    np.kron(_PAULI[2], _PAULI[0]),
    np.kron(_PAULI[3], _PAULI[1]),
    np.kron(_PAULI[3], _PAULI[2]),
)

# the 16 Pauli tensor monomials in search order (tensor factors 1, x, y, z)
_MONOMIALS = tuple(np.kron(_PAULI[a], _PAULI[b]) for a in range(4) for b in range(4))


def _equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Entrywise equality to 1e-12; the entries compared here lie in {0, +-1, +-i}."""
    return np.abs(x - y).max() <= 1e-12


def _search_conjugation(sig: Signature, gammas, chirality) -> np.ndarray:
    """First Pauli monomial U with C = U o conj satisfying the C relations.

    The search order (tensor factors in Pauli order 1, x, y, z) is fixed so
    the output is reproducible.  The phase of U is irrelevant to every
    relation, so plain monomials suffice.
    """
    eye = np.eye(4)
    for U in _MONOMIALS:
        if (_equal(U @ U.conj(), sig.eps * eye)
                and all(_equal(U @ g.conj(), sig.eps_prime * g @ U) for g in gammas)
                and _equal(U @ chirality.conj(), sig.eps_dblprime * chirality @ U)):
            return U.copy()
    raise ConjugationNotFound(
        f"no monomial U_C satisfies the C relations for (p, q) = ({sig.p}, {sig.q})")


def build_gammas(sig: Signature) -> CliffordModule:
    """Explicit 4x4 representation for the given signature."""
    gammas = tuple(g.copy() if mu < sig.p else 1j * g for mu, g in enumerate(_EUCLIDEAN_BASE))
    chirality = sig.sigma_eta * gammas[0] @ gammas[1] @ gammas[2] @ gammas[3]
    U = _search_conjugation(sig, gammas, chirality)
    return CliffordModule(signature=sig, gammas=gammas,
                          chirality=chirality, conj_unitary=U)


def build_module(p: int, q: int) -> CliffordModule:
    return build_gammas(build_signature(p, q))


def _eta_entry(sig: Signature, mu: int, nu: int) -> int:
    return sig.e[mu] if mu == nu else 0


def trace4(sig: Signature, mu: int, nu: int, alpha: int, rho: int) -> float:
    """Closed form of Tr_V(gamma^mu gamma^nu gamma^alpha gamma^rho)."""
    return 4.0 * (_eta_entry(sig, mu, nu) * _eta_entry(sig, alpha, rho)
                  - _eta_entry(sig, mu, alpha) * _eta_entry(sig, nu, rho)
                  + _eta_entry(sig, mu, rho) * _eta_entry(sig, nu, alpha))


def sign_s(sig: Signature, mu: int, nu: int, alpha: int, sigma_idx: int) -> int:
    """s_{mu nu alpha sigma}: nonzero only when all four indices differ."""
    if len({mu, nu, alpha, sigma_idx}) != 4:
        return 0
    return int(sig.e[mu] * (-1) ** mu * np.sign(nu - mu) * np.sign(sigma_idx - alpha))


def sign_t(sig: Signature, mu: int, nu: int) -> int:
    """t_{mu nu} = sum_{lam < rho} (-1)^{1+|mu-nu|} delta_{mu nu lam rho} e_lam e_rho."""
    out = 0
    for lam in range(4):
        for rho in range(lam + 1, 4):
            if len({mu, nu, lam, rho}) == 4:
                out += (-1) ** (1 + abs(mu - nu)) * sig.e[lam] * sig.e[rho]
    return out


def worst(values) -> float:
    """The largest of the deviations `values`, or NaN if any of them is NaN.

    Every identity check folds its deviations by this one rule: the builtin
    max drops a NaN (max(0.0, nan) is 0.0), np.max keeps it.  A zero reads
    0.0, never -0.0.
    """
    return float(np.max(tuple(values))) + 0.0


def verify_gamma_identities(mod: CliffordModule) -> dict:
    """Max absolute deviation of each gamma-algebra identity.

    Covers the single/triple product expansions over all index pairs, with
    the signs s and t the Weitzenbock form reads, the trace-of-four-gammas
    formula over all 256 tuples, and the vanishing of odd-product traces.
    """
    sig = mod.signature
    g = mod.gammas
    hat = [mod.gamma_hat(mu) for mu in range(4)]
    eye = np.eye(4)
    g0123 = g[0] @ g[1] @ g[2] @ g[3]
    det = sig.det_eta()
    pairs = [(mu, nu) for mu in range(4) for nu in range(4)]
    report = {}

    def single_triple(mu, nu):
        return (-1) ** mu * (mu == nu) * g0123 + sum(
            sign_s(sig, mu, nu, al, sg) * g[al] @ g[sg]
            for al in range(4) for sg in range(al + 1, 4))

    report["single_times_triple"] = worst(
        np.abs(g[mu] @ hat[nu] - single_triple(mu, nu)).max() for mu, nu in pairs)
    report["triple_single_anticommute"] = worst(
        np.abs(hat[mu] @ g[mu] + g[mu] @ hat[mu]).max() for mu in range(4))
    report["triple_single_commute"] = worst(
        np.abs(hat[nu] @ g[mu] - g[mu] @ hat[nu]).max() for mu, nu in pairs if nu != mu)
    report["triple_times_triple"] = worst(
        np.abs(hat[mu] @ hat[nu]
               - (sign_t(sig, mu, nu) * g[mu] @ g[nu] - (mu == nu) * sig.e[mu] * det * eye)).max()
        for mu, nu in pairs)
    report["trace_four_gammas"] = worst(
        abs(np.trace(g[mu] @ g[nu] @ g[al] @ g[rho]) - trace4(sig, mu, nu, al, rho))
        for mu, nu in pairs for al, rho in pairs)
    triples = [g[mu] @ g[nu] @ g[rho] for mu, nu in pairs for rho in range(4)]
    report["odd_traces"] = worst(
        abs(np.trace(x)) for x in (*g, *triples, *(t @ mod.chirality for t in triples)))
    return report


def verify_module_invariants(mod: CliffordModule) -> dict:
    """Max deviation of the defining Clifford/chirality/conjugation relations."""
    sig = mod.signature
    g = mod.gammas
    eye = np.eye(4)
    report = {}

    report["anticommutation"] = worst(
        np.abs(g[mu] @ g[nu] + g[nu] @ g[mu] - 2.0 * _eta_entry(sig, mu, nu) * eye).max()
        for mu in range(4) for nu in range(4))
    report["unitarity"] = worst(np.abs(gm @ gm.conj().T - eye).max() for gm in g)
    report["adjointness"] = worst(
        np.abs(g[mu].conj().T - sig.e[mu] * g[mu]).max() for mu in range(4))

    c = mod.chirality
    report["chirality_square"] = np.abs(c @ c - eye).max()
    report["chirality_selfadjoint"] = np.abs(c - c.conj().T).max()
    report["chirality_anticommutes"] = worst(np.abs(c @ gm + gm @ c).max() for gm in g)

    U = mod.conj_unitary
    report["conj_square"] = np.abs(U @ U.conj() - sig.eps * eye).max()
    report["conj_gamma"] = worst(
        np.abs(U @ gm.conj() - sig.eps_prime * gm @ U).max() for gm in g)
    report["conj_chirality"] = np.abs(U @ c.conj() - sig.eps_dblprime * c @ U).max()

    # the eight gamma^I of the Dirac operator: (gamma^I)* = e_I gamma^I
    report["multiindex_adjointness"] = worst(
        np.abs(gI.conj().T - e * gI).max()
        for gI, e in zip((*g, *map(mod.gamma_hat, range(4))), (*sig.e, *sig.e_hat)))

    return report
