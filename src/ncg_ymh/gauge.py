"""Gauge transformations of potentials, Higgs and field strength."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import ActionPolynomial, require_flat, sectors, spectral_action_direct
from .clifford import build_gammas
from .dirac import GaugeTriple, lift
from .errors import NotRiemannian
from .fluct import Fluctuation, assemble_fluctuated, covariant_matrices


@dataclass(frozen=True)
class GaugeElement:
    """A unitary u on C^N (x) C^n, optionally with a product factorization."""

    u: np.ndarray
    factors: tuple | None = None

    def __post_init__(self):
        m = self.u.shape[0]
        if np.abs(self.u.conj().T @ self.u - np.eye(m)).max() > 1e-12:
            raise ValueError("gauge element is not unitary")


def _haar(sz: int, rng) -> np.ndarray:
    z = rng.normal(size=(sz, sz)) + 1j * rng.normal(size=(sz, sz))
    Q, R = np.linalg.qr(z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_unitary(N: int, n: int, product_form: bool = False,
                   seed: int = 0) -> GaugeElement:
    """Haar unitary on C^{Nn}, or u1 (x) u2 with Haar factors."""
    rng = np.random.default_rng(seed)
    if product_form:
        u1 = _haar(N, rng)
        u2 = _haar(n, rng)
        return GaugeElement(u=np.kron(u1, u2), factors=(u1, u2))
    return GaugeElement(u=_haar(N * n, rng))


def _lifted_L(gt: GaugeTriple) -> np.ndarray:
    """The four L_mu (x) 1_n."""
    return lift(gt.fuzzy.K, gt.n)


def transform(gt: GaugeTriple, fl: Fluctuation, g: GaugeElement) -> Fluctuation:
    """A_mu -> u A_mu u* + u [L_mu, u*];  phi -> u phi u* + u [D_F, u*].

    Matrix-level rule, valid for flat Riemannian data where every K_mu is a
    commutator generator L_mu.
    """
    if (gt.sig.p, gt.sig.q) != (0, 4):
        raise NotRiemannian("matrix-level gauge transformation needs signature (0, 4)")
    u = g.u
    ustar = u.conj().T
    A_new = np.array([u @ A @ ustar + u @ (Lmu @ ustar - ustar @ Lmu)
                      for A, Lmu in zip(fl.A, _lifted_L(gt))])
    DFbig = gt.lifted_D_F
    phi_new = u @ fl.phi @ ustar + u @ (DFbig @ ustar - ustar @ DFbig)
    return Fluctuation(A=A_new, S=fl.S, phi=phi_new)


def covariance_report(gt: GaugeTriple, fl: Fluctuation, g: GaugeElement,
                      f: ActionPolynomial) -> dict:
    """Covariance of the field strength and invariance of the action, for flat data.

    Reports (i) max over mu < nu of ||F^u_{mu nu} - u F_{mu nu} u*||, with
    F_{mu nu} = [X_mu, X_nu] and X_mu = L_mu (x) 1 + A_mu,
    (ii) relative change of each sector and of (1/4) Tr f(D_omega),
    (iii) the deviation of the alternative-convention identity
    T^u = Ad_u(T) + Ad_u([L, L]) - [L, L] for T = F - [L, L].

    The action-invariance entries are exact for Yang-Mills triples; with
    D_F != 0 the left-multiplication realization of D_F is not J-compatible
    and the closed phi-rule cannot absorb the inhomogeneous J-term, so those
    entries are informational there.  Field strength covariance and the Ts
    identity involve only L and A and hold in either case.
    """
    if (gt.sig.p, gt.sig.q) != (0, 4):
        raise NotRiemannian("covariance is asserted in signature (0, 4) only")
    require_flat(gt, fl)
    u = g.u
    ustar = u.conj().T
    L = _lifted_L(gt)
    fl_u = transform(gt, fl, g)
    X0, Xu = covariant_matrices(gt.fuzzy.K, fl.A), covariant_matrices(gt.fuzzy.K, fl_u.A)

    cov = 0.0
    ts_dev = 0.0
    for mu in range(4):
        for nu in range(mu + 1, 4):
            F0 = X0[mu] @ X0[nu] - X0[nu] @ X0[mu]
            Fu = Xu[mu] @ Xu[nu] - Xu[nu] @ Xu[mu]
            cov = max(cov, np.abs(Fu - u @ F0 @ ustar).max())
            LL = L[mu] @ L[nu] - L[nu] @ L[mu]
            T0 = F0 - LL
            Tu = Fu - LL
            ts_dev = max(ts_dev, np.abs(Tu - (u @ T0 @ ustar + u @ LL @ ustar - LL)).max())

    b0 = sectors(gt, fl, f)
    bu = sectors(gt, fl_u, f)
    mod = build_gammas(gt.sig)
    direct0 = spectral_action_direct(assemble_fluctuated(gt, fl, mod), f)
    direct_u = spectral_action_direct(assemble_fluctuated(gt, fl_u, mod), f)
    scale = max(1.0, abs(direct0))

    report = {
        "field_strength_covariance": cov,
        "ts_identity": ts_dev,
        "action_invariance_rel": abs(direct_u - direct0) / scale,
        "sector_ym_rel": abs(bu.s_ym - b0.s_ym) / max(1.0, abs(b0.s_ym)),
        "sector_h_rel": abs(bu.s_h - b0.s_h) / max(1.0, abs(b0.s_h)),
        "sector_gh_rel": abs(bu.s_gh - b0.s_gh) / max(1.0, abs(b0.s_gh)),
        "sector_theta_rel": abs(bu.s_theta - b0.s_theta) / max(1.0, abs(b0.s_theta)),
    }
    return report
