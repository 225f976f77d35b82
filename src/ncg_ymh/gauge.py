"""Gauge transformations of potentials, Higgs and field strength.

A unitary u on C^N (x) C^n acts on M_m through l(a) -> l(u a u*) and
r(b) -> r(u b u*), in every signature (p, q).  Each inner-fluctuation field Z
with background B (A_mu with K_mu (x) 1, S_mu with K_hat_mu (x) 1, phi with
1 (x) D_F) therefore moves by one rule, Z -> u Z u* + u [B, u*], which sends
B + Z to u (B + Z) u*.  A u that is not square, or not m x m for the
triple it acts on, is refused (DimensionMismatch).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import ActionPolynomial, require_flat, sectors, spectral_action_direct
from .clifford import build_gammas, worst
from .dirac import GaugeTriple, complex_gaussian, lift
from .errors import DimensionMismatch
from .fluct import Fluctuation, assemble_fluctuated, terms


@dataclass(frozen=True)
class GaugeElement:
    """A unitary u on C^N (x) C^n."""

    u: np.ndarray

    def __post_init__(self):
        if self.u.ndim != 2 or self.u.shape[0] != self.u.shape[1]:
            raise DimensionMismatch(f"gauge element shape {self.u.shape}, expected a square matrix")
        m = self.u.shape[0]
        if not np.abs(self.u.conj().T @ self.u - np.eye(m)).max() <= 1e-12:
            raise ValueError("gauge element is not unitary")


def haar(sz: int, rng) -> np.ndarray:
    """A Haar unitary on C^sz: Q of the QR of one `complex_gaussian` draw, phases fixed."""
    Q, R = np.linalg.qr(complex_gaussian(rng, sz))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_unitary(N: int, n: int, product_form: bool = False, seed=0) -> GaugeElement:
    """Haar unitary on C^{Nn}, or u1 (x) u2 with Haar factors, from default_rng(seed); seed
    may be a Generator, such as one of `dirac.stream`."""
    rng = np.random.default_rng(seed)
    if product_form:
        return GaugeElement(u=np.kron(haar(N, rng), haar(n, rng)))
    return GaugeElement(u=haar(N * n, rng))


def transform(gt: GaugeTriple, fl: Fluctuation, g: GaugeElement) -> Fluctuation:
    """Z -> u Z u* + u [B, u*] for (Z, B) = (A_mu, K_mu (x) 1), (S_mu, K_hat_mu (x) 1)
    and (phi, 1 (x) D_F), in any signature.

    Each covariant matrix B + Z goes to u (B + Z) u*, and the adjointness
    type of every field is kept.  With D_F = 0 the fluctuated Dirac operator
    is conjugated, so its spectrum is unchanged; with D_F != 0 that holds
    when u commutes with 1 (x) D_F (see `covariance_report`).
    """
    u = g.u
    if u.shape != (gt.m, gt.m):
        raise DimensionMismatch(f"gauge element shape {u.shape}, expected ({gt.m}, {gt.m})")
    ustar = u.conj().T

    def rule(Z, B):
        return u @ Z @ ustar + u @ (B @ ustar - ustar @ B)

    A_new = np.array([rule(A, L) for A, L in zip(fl.A, lift(gt.fuzzy.K, gt.n))])
    S_new = np.array([rule(S, L) for S, L in zip(fl.S, lift(gt.fuzzy.K_hat, gt.n))])
    return Fluctuation(A=A_new, S=S_new, phi=rule(fl.phi, gt.lifted_D_F))


def covariance_report(gt: GaugeTriple, fl: Fluctuation, g: GaugeElement,
                      f: ActionPolynomial) -> dict:
    """Covariance of the field strength and invariance of the action, for flat
    data in any signature.

    Reports (i) max over mu < nu of ||F^u_{mu nu} - u F_{mu nu} u*||, with
    F_{mu nu} = [X_mu, X_nu] and X_mu = L_mu (x) 1 + A_mu,
    (ii) relative change of each sector and of (1/4) Tr f(D_omega),
    (iii) the deviation of the alternative-convention identity
    T^u = Ad_u(T) + Ad_u([L, L]) - [L, L] for T = F - [L, L].

    The action entries are exact for Yang-Mills triples and for u that
    commutes with 1 (x) D_F.  For other u with D_F != 0 they are
    informational: Phi = l(1 (x) D_F + phi) + eps'' r(phi) sees phi, not
    1 (x) D_F + phi, in its right slot, so eps'' r(u [D_F, u*]) survives.
    Field strength covariance and the Ts identity involve only L and A and
    hold in either case.  The sectors are closed forms of flat data, so
    triple-index data is refused (NotFlat).
    """
    require_flat(gt, fl)
    u = g.u
    ustar = u.conj().T
    L = lift(gt.fuzzy.K, gt.n)
    fl_u = transform(gt, fl, g)
    X0, Xu = (terms(gt, x)[0][:4] for x in (fl, fl_u))

    def deviations(mu, nu):
        F0 = X0[mu] @ X0[nu] - X0[nu] @ X0[mu]
        Fu = Xu[mu] @ Xu[nu] - Xu[nu] @ Xu[mu]
        LL = L[mu] @ L[nu] - L[nu] @ L[mu]
        T0 = F0 - LL
        Tu = Fu - LL
        return (np.abs(Fu - u @ F0 @ ustar).max(),
                np.abs(Tu - (u @ T0 @ ustar + u @ LL @ ustar - LL)).max())

    rows = [deviations(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]

    b0, bu = sectors(gt, fl, f), sectors(gt, fl_u, f)
    mod = build_gammas(gt.sig)
    direct0, directu = (spectral_action_direct(assemble_fluctuated(gt, x, mod), f)
                        for x in (fl, fl_u))
    scale = max(1.0, abs(direct0))

    report = {
        "field_strength_covariance": worst(row[0] for row in rows),
        "ts_identity": worst(row[1] for row in rows),
        "action_invariance_rel": abs(directu - direct0) / scale,
        "sector_ym_rel": abs(bu.s_ym - b0.s_ym) / max(1.0, abs(b0.s_ym)),
        "sector_h_rel": abs(bu.s_h - b0.s_h) / max(1.0, abs(b0.s_h)),
        "sector_gh_rel": abs(bu.s_gh - b0.s_gh) / max(1.0, abs(b0.s_gh)),
        "sector_theta_rel": abs(bu.s_theta - b0.s_theta) / max(1.0, abs(b0.s_theta)),
    }
    return report
