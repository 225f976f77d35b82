"""Spectral action: bi-tracial closed-form sectors and their operator oracles.

The action (1/4) Tr f(D_omega) lives on the matrix Hilbert space M_m,
m = N n, so every "Tr" in the sector formulas is a trace of an operator on
M_m.  Those operators are words in left and right multiplications l(a),
r(b), and the rules

    l(a) l(b) = l(ab),   r(a) r(b) = r(ba),   [l(a), r(b)] = 0,
    Tr_{M_m} l(a) r(b) = Tr a Tr b

turn each such trace into a bi-tracial polynomial in m x m matrices.  One
kernel, `bitracial_traces`, evaluates the seven traces that the sectors and
the quadratic and quartic trace lemmas are built from.  The m^2 x m^2
superoperator forms (`theta`, `field_strength`, the shortcut side of
`gauge_higgs_identity_sides`, `tetrahedral`) are kept as brute-force
oracles.  Index raising uses the constant signature eta = diag(e_0..e_3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford import build_gammas, single
from .dirac import GaugeTriple
from .errors import DimensionMismatch, NotFlat, NotRiemannian, NotSelfAdjoint
from .fluct import Fluctuation, assemble_fluctuated, covariant_ops, higgs_field
from .superop import SuperOp, gen_comm


@dataclass(frozen=True)
class ActionPolynomial:
    """f(x) = (1/2) sum_i a_i x^i with real coefficients a_1..a_m."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def coefficient(self, i: int) -> float:
        """a_i, zero outside the stored range (i >= 1)."""
        return self.coeffs[i - 1] if 1 <= i <= len(self.coeffs) else 0.0

    @property
    def a2(self) -> float:
        return self.coefficient(2)

    @property
    def a4(self) -> float:
        return self.coefficient(4)

    def evaluate_sum(self, eigenvalues: np.ndarray) -> float:
        """sum_k f(lambda_k)."""
        out = 0.0
        for i, a in enumerate(self.coeffs, start=1):
            if a:
                out += 0.5 * a * np.sum(eigenvalues ** i)
        return float(out)

    def confining(self) -> bool:
        """Even top degree with positive coefficient (normalizable weight)."""
        return self.degree % 2 == 0 and self.coeffs[-1] > 0


@dataclass(frozen=True)
class ActionBreakdown:
    s_ym: float
    s_h: float
    s_gh: float
    s_theta: float
    total_closed: float
    total_direct: float | None = None

    @property
    def rest(self) -> float | None:
        """Degree >= 5 contribution: direct total minus the four sectors."""
        if self.total_direct is None:
            return None
        return self.total_direct - self.total_closed


@dataclass(frozen=True)
class FieldStrength:
    """F_super[mu][nu] = [d_mu, d_nu]; F_matrix only in flat (0,4) data."""

    F_super: tuple
    F_matrix: tuple | None


def _require_flat(gt: GaugeTriple, fl: Fluctuation):
    if gt.fuzzy.has_triples:
        raise NotFlat("fuzzy data carries nonzero triple-index blocks")
    if fl.S is not None and max(np.abs(Sm).max() for Sm in fl.S) > 0:
        raise NotFlat("fluctuation carries nonzero S matrices")


def _require_riemannian(gt: GaugeTriple):
    if (gt.sig.p, gt.sig.q) != (0, 4):
        raise NotRiemannian(f"signature ({gt.sig.p}, {gt.sig.q}); need (0, 4)")


def field_strength(gt: GaugeTriple, fl: Fluctuation) -> FieldStrength:
    """F_{mu nu} = [d_mu, d_nu] as superops; matrix avatar when Riemannian flat."""
    d = covariant_ops(gt, fl)
    F = tuple(tuple(d[mu] @ d[nu] - d[nu] @ d[mu] for nu in range(4)) for mu in range(4))
    F_mat = None
    if (gt.sig.p, gt.sig.q) == (0, 4) and not gt.fuzzy.has_triples \
            and (fl.S is None or max(np.abs(Sm).max() for Sm in fl.S) == 0):
        M = covariant_matrices([gt.fuzzy.block(single(mu)) for mu in range(4)], fl.A)
        F_mat = tuple(tuple(M[mu] @ M[nu] - M[nu] @ M[mu] for nu in range(4))
                      for mu in range(4))
    return FieldStrength(F_super=F, F_matrix=F_mat)


def theta(gt: GaugeTriple, fl: Fluctuation) -> SuperOp:
    """theta = sum eta^{mu nu} d_mu o d_nu; positive semidefinite always."""
    _require_flat(gt, fl)
    d = covariant_ops(gt, fl)
    out = gt.sig.e[0] * (d[0] @ d[0])
    for mu in range(1, 4):
        out = out + gt.sig.e[mu] * (d[mu] @ d[mu])
    return out


class BiTraces(NamedTuple):
    """The seven operator traces that every sector and trace lemma combines."""

    theta: float       # Tr theta
    theta2: float      # Tr theta^2
    F2: float          # sum e_mu e_nu Tr F_{mu nu}^2
    Phi2: float        # Tr Phi^2
    Phi4: float        # Tr Phi^4
    Phi2_theta: float  # Tr Phi^2 theta
    dPhi2: float       # sum e_mu Tr [d_mu, Phi]^2


def _tr(a: np.ndarray, b: np.ndarray):
    """Tr(a b), broadcast over leading axes."""
    return np.einsum("...ij,...ji->...", a, b)


def bitracial_traces(X: np.ndarray, P: np.ndarray, phi: np.ndarray, e, eps) -> BiTraces:
    """The seven traces over M_m as bi-tracial polynomials in m x m matrices.

    X is the (4, m, m) stack X_mu = K_mu (x) 1 + A_mu, P = 1 (x) D_F + phi,
    e the signs e_mu and eps = eps''.  With d_mu = l(X_mu) + e_mu r(X_mu) and
    Phi = l(P) + eps r(phi), every trace follows from l(a) l(b) = l(ab),
    r(a) r(b) = r(ba), [l, r] = 0 and Tr l(a) r(b) = Tr a Tr b.
    """
    m = X.shape[-1]
    e = np.asarray(e, dtype=float)
    t = np.trace(X, axis1=1, axis2=2)
    Q = np.tensordot(e, X @ X, axes=1)
    trQ = np.trace(Q)
    G = _tr(X[:, None], X[None])
    XX = X[:, None] @ X[None]
    C = XX - XX.swapaxes(0, 1)

    P2, phi2 = P @ P, phi @ phi
    trP, trphi, trP2, trphi2 = np.trace(P), np.trace(phi), np.trace(P2), np.trace(phi2)
    U = X @ P - P @ X
    V = phi @ X - X @ phi

    traces = BiTraces(
        theta=2 * m * trQ + 2 * np.sum(t * t),
        theta2=2 * m * _tr(Q, Q) + 2 * trQ * trQ + 8 * np.sum(_tr(Q, X) * t)
        + 4 * np.sum(G * G),
        F2=2 * m * (e @ _tr(C, C) @ e),
        Phi2=m * (trP2 + trphi2) + 2 * eps * trP * trphi,
        Phi4=m * (_tr(P2, P2) + _tr(phi2, phi2)) + 6 * trP2 * trphi2
        + 4 * eps * (_tr(P2, P) * trphi + trP * _tr(phi2, phi)),
        Phi2_theta=m * (_tr(P2, Q) + _tr(Q, phi2)) + (trP2 + trphi2) * trQ
        + 2 * eps * (_tr(P, Q) * trphi + trP * _tr(Q, phi))
        + np.sum(2 * (_tr(P2, X) + _tr(phi2, X)) * t + 4 * eps * _tr(P, X) * _tr(phi, X)),
        dPhi2=m * (e @ (_tr(U, U) + _tr(V, V))),
    )
    return BiTraces(*(float(np.real(v)) for v in traces))


def covariant_matrices(K, A) -> np.ndarray:
    """The (4, m, m) stack X_mu = K_mu (x) 1_n + A_mu from N x N blocks K_mu."""
    K, A = np.asarray(K), np.asarray(A)
    N, m = K.shape[-1], A.shape[-1]
    return np.einsum("kij,ab->kiajb", K, np.eye(m // N)).reshape(A.shape) + A


def _traces(gt: GaugeTriple, fl: Fluctuation) -> BiTraces:
    _require_flat(gt, fl)
    X = covariant_matrices([gt.fuzzy.block(single(mu)) for mu in range(4)], fl.A)
    P = np.kron(np.eye(gt.N), gt.finite.D_F) + fl.phi
    return bitracial_traces(X, P, fl.phi, gt.sig.e, gt.sig.eps_dblprime)


def _gauge_higgs(tr: BiTraces, a4: float) -> float:
    return a4 * (tr.Phi2_theta - 0.5 * tr.dPhi2)


def sector_breakdown(tr: BiTraces, f: ActionPolynomial,
                     total_direct: float | None = None) -> ActionBreakdown:
    """The four sectors of (1/4) Tr f(D_omega) from the kernel traces.

    S_YM = -(a4/4) sum e e Tr F^2, S_H = (1/2)(a2 Tr Phi^2 + a4 Tr Phi^4),
    S_theta = (1/2)(a2 Tr theta + a4 Tr theta^2) and S_gh the exact bracket
    of `gauge_higgs_sector`.
    """
    a2, a4 = f.a2, f.a4
    s_ym = -a4 / 4 * tr.F2
    s_h = 0.5 * (a2 * tr.Phi2 + a4 * tr.Phi4)
    s_gh = _gauge_higgs(tr, a4)
    s_th = 0.5 * (a2 * tr.theta + a4 * tr.theta2)
    return ActionBreakdown(s_ym=s_ym, s_h=s_h, s_gh=s_gh, s_theta=s_th,
                           total_closed=s_ym + s_h + s_gh + s_th, total_direct=total_direct)


def trace_d2_closed(gt: GaugeTriple, fl: Fluctuation) -> float:
    """(1/4) Tr D_omega^2 = Tr(theta + Phi^2) in flat data."""
    tr = _traces(gt, fl)
    return tr.theta + tr.Phi2


def trace_d4_closed(gt: GaugeTriple, fl: Fluctuation) -> float:
    """(1/4) Tr D_omega^4 in flat data.

    -1/2 sum Tr(F_{mu nu} F^{mu nu}) + Tr((theta + Phi^2)^2)
    - sum eta^{mu nu} Tr([d_mu, Phi][d_nu, Phi]).
    """
    tr = _traces(gt, fl)
    return -0.5 * tr.F2 + tr.theta2 + 2 * tr.Phi2_theta + tr.Phi4 - tr.dPhi2


def gauge_higgs_sector(gt: GaugeTriple, fl: Fluctuation, a4: float) -> float:
    """a4 [Tr(Phi^2 theta) - 1/2 sum eta Tr([d_mu, Phi][d_nu, Phi])].

    This bracket is the exact coefficient grouping that, together with the
    other three sectors, reproduces (1/4) Tr f(D) for degree <= 4.
    """
    return _gauge_higgs(_traces(gt, fl), a4)


def gauge_higgs_identity_sides(gt: GaugeTriple, fl: Fluctuation, a4: float):
    """Both candidate forms of the gauge-Higgs sector, evaluated independently.

    Left: the exact bracket a4 [Tr(Phi^2 theta) - 1/2 eta Tr([d, Phi][d, Phi])].
    Right: the integration-by-parts style shortcut
    -a4 sum eta^{mu nu} Tr(d_mu Phi d_nu Phi), operator composition
    throughout.  For matrix traces the two differ by 2 a4 Tr(theta Phi^2):
    the smooth analogue of that term is a total derivative, but a trace has
    no boundary to drop it over, so only the bracket reproduces the direct
    quartic trace.
    """
    lhs = gauge_higgs_sector(gt, fl, a4)
    e = gt.sig.e
    d = covariant_ops(gt, fl)
    Phi = higgs_field(fl, gt)
    rhs = 0.0 + 0j
    for mu in range(4):
        rhs -= e[mu] * np.trace(d[mu].rep @ Phi.rep @ d[mu].rep @ Phi.rep)
    return lhs, float(a4 * rhs.real)


def sectors(gt: GaugeTriple, fl: Fluctuation, f: ActionPolynomial,
            include_direct: bool = False) -> ActionBreakdown:
    """Sector decomposition of (1/4) Tr f(D_omega), flat Riemannian only.

    See `sector_breakdown`.  For f of degree <= 4 the four sectors sum to
    the direct trace.
    """
    _require_riemannian(gt)
    tr = _traces(gt, fl)
    direct = None
    if include_direct:
        mod = build_gammas(gt.sig)
        direct = spectral_action_direct(assemble_fluctuated(gt, fl, mod), f)
    return sector_breakdown(tr, f, direct)


def spectral_action_direct(D: np.ndarray, f: ActionPolynomial) -> float:
    """(1/4) Tr f(D) from the eigenvalues of a self-adjoint D."""
    if D.shape[0] != D.shape[1]:
        raise DimensionMismatch(f"operator not square: {D.shape}")
    dev = np.abs(D - D.conj().T).max()
    if dev > 1e-9 * max(1.0, np.abs(D).max()):
        raise NotSelfAdjoint(f"operator deviates from self-adjointness by {dev:.3e}")
    return 0.25 * f.evaluate_sum(np.linalg.eigvalsh(D))


def tetrahedral(K, sig=None) -> float:
    """-(1/2) sum_{mu != nu} Tr(k_mu k_nu k^mu k^nu) with k_mu = {K_mu, .}.

    Defaults to the (0, 4) signature (all commutators, trivial index
    raising); pass a Signature for other adjointness/raising conventions.
    """
    if sig is None:
        from .clifford import build_signature
        sig = build_signature(0, 4)
    if len(K) != 4:
        raise DimensionMismatch("need exactly four matrices")
    shape = K[0].shape
    if any(Km.shape != shape for Km in K):
        raise DimensionMismatch("matrices must share one size")
    k = [gen_comm(np.ascontiguousarray(Km, dtype=complex), sig.e[mu])
         for mu, Km in enumerate(K)]
    out = 0.0 + 0j
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            out += sig.e[mu] * sig.e[nu] * np.trace(
                k[mu].rep @ k[nu].rep @ k[mu].rep @ k[nu].rep)
    return float((-0.5 * out).real)
