"""Spectral action: bi-tracial closed-form sectors and their operator oracles.

The action (1/4) Tr f(D_omega) lives on the matrix Hilbert space M_m,
m = N n, so every "Tr" in the sector formulas is a trace of an operator on
M_m.  Those operators are words in left and right multiplications l(a),
r(b), and the rules

    l(a) l(b) = l(ab),   r(a) r(b) = r(ba),   [l(a), r(b)] = 0,
    Tr_{M_m} l(a) r(b) = Tr a Tr b

turn each such trace into a bi-tracial polynomial in m x m matrices.  The
closed forms hold for flat data, whose stacks `FuzzyData.K_hat` and
`Fluctuation.S` are zero (`require_flat`); the fields X_mu = K_mu (x) 1 + A_mu
and P = 1 (x) D_F + phi are the left slots 0..3 and 8 of `fluct.terms`.  One
kernel, `Kernel`, evaluates the seven traces that the sectors and the
quadratic and quartic trace lemmas are built from.  A kernel of size m owns
its stack S = (1, X_0..X_3, P, phi) of m x m matrices and
three scratch rows (their layout named by STACK_X, STACK_P, STACK_PHI) into
which it writes P^2, phi^2 and Q, and every buffer it computes into.  So a
caller holds one kernel across calls and writes the rows that change in
place (the sampler restores a rejected proposal's), and a call allocates no
array; `bitracial_traces(X, P, phi, ...)` checks the fields' types, fills
a fresh kernel and calls it.  Every term is a product of entries of one Gram
matrix Tr(S_i S_j), except the commutator squares: minus the squared norms
of 14 commutators.  All products Y_a Y_b of Y = (X_mu, P, phi) come from one
(6m x m) @ (m x 6m) matrix product, not 36 small ones, its right factor,
like the Gram product's, a view of one transpose buffer; one `np.take` on
flat indices gathers the 34 blocks the kernel reads.  At the sampler's sizes
(m = 8) the cost is the number of numpy calls more than the flops, and this
form keeps that number small.  `sector_breakdown` is the one combination of
the seven traces: `sectors` returns the closed sectors only, and the trace
lemmas and the gauge-Higgs bracket are values of it.  The dense trace
`spectral_action_direct`, which holds two powers of D at a time
(Tr D^(2j+1) = <D^j, D^(j+1)>), is the oracle, called by name on
`fluct.assemble_fluctuated` where it is wanted.  The m^2 x m^2
superoperator forms (`theta`, `field_strength`, the shortcut side of
`gauge_higgs_identity_sides`) are kept as brute-force oracles; they compose
the operators d_mu and Phi of `fluct.term_ops`.  Index raising uses
eta = diag(e_0..e_3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dirac import GaugeTriple, has_adjointness_type
from .errors import DimensionMismatch, NotFlat, NotSelfAdjoint
from .fluct import Fluctuation, term_ops, terms


@dataclass(frozen=True)
class ActionPolynomial:
    """f(x) = (1/2) sum_i a_i x^i with real coefficients a_1..a_m."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self) -> int:
        """The largest i with a_i != 0; 0 for the zero polynomial."""
        return max((i for i, a in enumerate(self.coeffs, start=1) if a), default=0)

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
        return self.degree % 2 == 0 and self.coefficient(self.degree) > 0


class ActionBreakdown(NamedTuple):
    """The four sectors and their sum; a tuple, since the sampler builds one per proposal."""

    s_ym: float
    s_h: float
    s_gh: float
    s_theta: float
    total_closed: float


def require_flat(gt: GaugeTriple, fl: Fluctuation):
    """Refuse nonzero triple-index blocks K_hat and nonzero S matrices (NotFlat)."""
    if gt.fuzzy.has_triples:
        raise NotFlat("fuzzy data carries nonzero triple-index blocks")
    if np.any(fl.S):  # a NaN is nonzero
        raise NotFlat("fluctuation carries nonzero S matrices")


def field_strength(gt: GaugeTriple, fl: Fluctuation) -> tuple:
    """F[mu][nu] = [d_mu, d_nu] as m^2 x m^2 arrays."""
    d = term_ops(gt, fl)
    return tuple(tuple(d[mu] @ d[nu] - d[nu] @ d[mu] for nu in range(4)) for mu in range(4))


def theta(gt: GaugeTriple, fl: Fluctuation) -> np.ndarray:
    """theta = sum eta^{mu nu} d_mu o d_nu as an m^2 x m^2 array, positive semidefinite."""
    require_flat(gt, fl)
    d = term_ops(gt, fl)
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


# Rows of the kernel stack S: the identity, X_0..X_3 (row STACK_X + mu), P and phi,
# then three scratch rows that `Kernel.traces` overwrites with P^2, phi^2 and Q.
STACK_ROWS, STACK_X, STACK_P, STACK_PHI = 10, 1, 5, 6
_X, _P, _PHI, _P2, _PHI2, _Q = slice(STACK_X, STACK_X + 4), STACK_P, STACK_PHI, 7, 8, 9
# the 14 commutators [Y_a, Y_b] the traces need, Y = (X_0..X_3, P, phi):
# [X_mu, X_nu] for mu < nu (F^2 is symmetric in mu, nu), then [X_mu, P] and [X_mu, phi]
_COMMUTATORS = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)] + \
    [(mu, b) for b in (4, 5) for mu in range(4)]
# the 34 products Y_a Y_b the kernel reads: Y_a Y_b and Y_b Y_a for each pair of
# _COMMUTATORS, then the squares Y_0^2 .. Y_5^2
_PRODUCTS = np.array(_COMMUTATORS + [(b, a) for a, b in _COMMUTATORS] + [(k, k) for k in range(6)])
# flat indices, into the float view of the stacked Gram matrices (G, W), of the real parts
# of the 23 entries the traces read: Tr S_k = G_0k for five k, nine more of G, nine of W
_ENTRIES = 2 * np.ravel_multi_index(np.array(
    [(0, 0, k) for k in (_P, _PHI, _P2, _PHI2, _Q)]
    + [(0, i, j) for i, j in ((_Q, _Q), (_P2, _P2), (_PHI2, _PHI2), (_P2, _P), (_PHI2, _PHI),
                              (_P2, _Q), (_Q, _PHI2), (_P, _Q), (_Q, _PHI))]
    + [(1, i, j) for i, j in ((0, 0), (_Q, 0), (1, 1), (2, 2), (3, 3), (4, 4), (_P2, 0),
                              (_PHI2, 0), (_P, _PHI))]).T, (2, STACK_ROWS, STACK_ROWS))


class Kernel:
    """The seven traces over M_m as bi-tracial polynomials in m x m matrices, at one m.

    The kernel owns its stack S (STACK_ROWS, m, m): row 0 is the identity,
    rows 1..6 hold (X_mu, P, phi), which its caller writes through the views
    X (4, m, m), P and phi, with X_mu = K_mu (x) 1 + A_mu and
    P = 1 (x) D_F + phi; `traces` writes P^2, phi^2 and Q into the scratch
    rows 7..9 and reads rows 0..6 only, of the types X_mu* = e_mu X_mu and
    P* = P, phi* = phi, which make commutator squares minus squared norms.
    e are the signs e_mu and eps = eps''.  It also owns every buffer `traces`
    writes into, one transpose buffer for both matrix products among them,
    so a call allocates no array; one kernel serves one thread at a time.
    """

    def __init__(self, m: int, e, eps):
        self.m, self.e, self.eps = m, tuple(e), eps
        self.S = np.zeros((STACK_ROWS, m, m), dtype=complex)
        self.S[0] = np.eye(m)
        self.X, self.P, self.phi = self.S[_X], self.S[_P], self.S[_PHI]
        # flat indices, into the 6m x 6m product Y Y, of the blocks _PRODUCTS: entry (i, j)
        # of Y_a Y_b is entry (a m + i, b m + j) of Y Y
        a, b, i = _PRODUCTS[:, 0], _PRODUCTS[:, 1], np.arange(m)
        self.idx = np.add.outer((6 * m * a + b) * m, 6 * m * i[:, None] + i)
        self.ST = self.S.transpose(0, 2, 1).copy()  # ST[i] = S_i^T; row 0 stays the identity
        self.YY = np.empty((6 * m, 6 * m), dtype=complex)
        self.B = np.empty((len(_PRODUCTS), m, m), dtype=complex)
        self.C = np.empty((len(_COMMUTATORS), m, m), dtype=complex)
        self.GW = np.empty((2, STACK_ROWS, STACK_ROWS), dtype=complex)
        (self.G, self.W), self.GW_float = self.GW, self.GW.view(float)
        self.entries, self.e_row = np.empty(len(_ENTRIES)), np.array([self.e], dtype=complex)
        n, Y, T = len(_COMMUTATORS), slice(STACK_X, STACK_PHI + 1), self.S.transpose(0, 2, 1)
        # ST is refilled rows Y first, scratch rows after; the products read transposed views of it
        self.ST_Y, self.S_T_Y, self.ST_sq, self.S_T_sq = self.ST[Y], T[Y], self.ST[_P2:], T[_P2:]
        self.Y_flat, self.Y_flat_T = self.S[Y].reshape(6 * m, m), self.ST[Y].reshape(6 * m, m).T
        self.S_flat, self.ST_flat_T = self.S.reshape(-1, m * m), self.ST.reshape(-1, m * m).T
        self.sq, self.Q = self.S[_P2:_PHI2 + 1], self.S[_Q].reshape(1, -1)
        self.B_ab, self.B_ba = self.B[:n], self.B[n:2 * n]
        self.B_XX, self.B_sq = self.B[2 * n:2 * n + 4].reshape(4, -1), self.B[2 * n + 4:]
        self.C_XX, self.C_XP = self.C[:6].reshape(-1), self.C[6:].reshape(-1)
        self.G_col, self.G_row = self.G[:, _X], self.G[_X]

    def traces(self) -> BiTraces:
        """The seven traces of the stack as it stands.

        With d_mu = l(X_mu) + e_mu r(X_mu) and Phi = l(P) + eps r(phi), every
        trace follows from l(a) l(b) = l(ab), r(a) r(b) = r(ba), [l, r] = 0
        and Tr l(a) r(b) = Tr a Tr b.  Every term is a product of Gram entries
        G_ij = Tr(S_i S_j) over the stack completed by P^2, phi^2 and
        Q = sum e_mu X_mu^2.  One matrix product forms G, Tr S_i is G_0i, and
        the sums over mu are read off W = G_{., X} G_{X, .}; one `np.take`
        gathers the real parts of the 23 entries of G and W the formulas read,
        all real: Tr(S_i S_j) is real where e_i e_j = 1, as in G's entries
        read, and imaginary where -1, which W pairs.  The products Y_a Y_b of
        Y = (X_mu, P, phi) come from one (6m x m) @ (m x 6m) product, and one
        `np.take` on flat indices gathers the 34 blocks the kernel reads; Q is
        one (1 x 4) @ (4 x m^2) product.  Both large products read their right
        factor off one transpose buffer ST.  As Y_a* = e_a Y_a, with e = 1 for
        P and phi, C = [Y_a, Y_b] has e_a e_b Tr C^2 = -||C||^2: F^2 and
        [d, Phi]^2 are -4m and -m times the squared norms of [X_mu, X_nu],
        mu < nu, and of [X_mu, P], [X_mu, phi], so never positive, and zero
        exactly for commuting data.

        Every array is written with out= into the kernel's buffers, so a
        call allocates only the few Python numbers the traces are read as.
        Each `np.take` runs with mode="clip", as mode="raise" copies through a
        buffer of the size of its output; the indices are in range either
        way.

        Overflow gives non-finite traces, which the callers report; they, not
        the kernel, silence numpy's overflow warnings, since entering
        `np.errstate` costs about 2 % of a kernel call at m = 8.
        """
        m, eps = self.m, self.eps
        np.copyto(self.ST_Y, self.S_T_Y)
        np.matmul(self.Y_flat, self.Y_flat_T, out=self.YY)
        self.YY.take(self.idx, out=self.B, mode="clip")
        np.subtract(self.B_ab, self.B_ba, out=self.C)
        np.copyto(self.sq, self.B_sq)
        np.matmul(self.e_row, self.B_XX, out=self.Q)
        np.copyto(self.ST_sq, self.S_T_sq)
        np.matmul(self.S_flat, self.ST_flat_T, out=self.G)
        np.matmul(self.G_col, self.G_row, out=self.W)
        self.GW_float.take(_ENTRIES, out=self.entries, mode="clip")
        (trP, trphi, trP2, trphi2, trQ,
         gQQ, gP2P2, gphi2phi2, gP2P, gphi2phi, gP2Q, gQphi2, gPQ, gQphi,
         w00, wQ0, w11, w22, w33, w44, wP20, wphi20, wPphi) = self.entries.tolist()
        return BiTraces(
            theta=2 * m * trQ + 2 * w00,
            theta2=2 * m * gQQ + 2 * trQ * trQ + 8 * wQ0 + 4 * (w11 + w22 + w33 + w44),
            F2=-4 * m * float(np.vdot(self.C_XX, self.C_XX).real),
            Phi2=m * (trP2 + trphi2) + 2 * eps * trP * trphi,
            Phi4=(m * (gP2P2 + gphi2phi2) + 6 * trP2 * trphi2
                  + 4 * eps * (gP2P * trphi + trP * gphi2phi)),
            Phi2_theta=(m * (gP2Q + gQphi2) + (trP2 + trphi2) * trQ
                        + 2 * eps * (gPQ * trphi + trP * gQphi)
                        + 2 * (wP20 + wphi20) + 4 * eps * wPphi),
            dPhi2=-m * float(np.vdot(self.C_XP, self.C_XP).real),
        )


def bitracial_traces(X: np.ndarray, P: np.ndarray, phi: np.ndarray, e, eps) -> BiTraces:
    """The traces of a fresh `Kernel` filled with X (the stack X_mu), P and phi, type-checked."""
    for name, M, sign in zip(("X0", "X1", "X2", "X3", "P", "phi"), (*X, P, phi), (*e, 1, 1)):
        if not has_adjointness_type(M, sign):
            raise NotSelfAdjoint(f"{name} violates its adjointness type (e = {sign})")
    k = Kernel(X.shape[-1], e, eps)
    k.X[...], k.P[...], k.phi[...] = X, P, phi
    return k.traces()


def _traces(gt: GaugeTriple, fl: Fluctuation) -> BiTraces:
    require_flat(gt, fl)
    # an overflow shows as non-finite traces, which the callers report
    with np.errstate(over="ignore", invalid="ignore"):
        L, _ = terms(gt, fl)
        return bitracial_traces(L[:4], L[8], fl.phi, gt.sig.e, gt.sig.eps_dblprime)


def sector_breakdown(tr: BiTraces, f: ActionPolynomial) -> ActionBreakdown:
    """The four sectors of (1/4) Tr f(D_omega) from the kernel traces.

    S_YM = -(a4/4) sum e e Tr F^2, S_H = (1/2)(a2 Tr Phi^2 + a4 Tr Phi^4),
    S_theta = (1/2)(a2 Tr theta + a4 Tr theta^2) and S_gh the exact bracket
    a4 [Tr(Phi^2 theta) - 1/2 sum eta Tr([d_mu, Phi][d_nu, Phi])], which
    with the other three sectors reproduces (1/4) Tr f(D) for degree <= 4.
    The only code that combines the kernel traces: the trace lemmas and the
    bracket side of `gauge_higgs_identity_sides` read it through `sectors`.
    """
    a2, a4 = f.a2, f.a4
    s_ym = -a4 / 4 * tr.F2
    s_h = 0.5 * (a2 * tr.Phi2 + a4 * tr.Phi4)
    s_gh = a4 * (tr.Phi2_theta - 0.5 * tr.dPhi2)
    s_th = 0.5 * (a2 * tr.theta + a4 * tr.theta2)
    return ActionBreakdown(s_ym=s_ym, s_h=s_h, s_gh=s_gh, s_theta=s_th,
                           total_closed=s_ym + s_h + s_gh + s_th)


def sectors(gt: GaugeTriple, fl: Fluctuation, f: ActionPolynomial) -> ActionBreakdown:
    """The closed-form sectors of (1/4) Tr f(D_omega), flat data in any signature.

    See `sector_breakdown`.  Closed forms only: the dense oracle, to which
    the four sectors sum for f of degree <= 4, is called by name,
    spectral_action_direct(assemble_fluctuated(gt, fl, build_gammas(gt.sig)), f).
    """
    return sector_breakdown(_traces(gt, fl), f)


def trace_d2_closed(gt: GaugeTriple, fl: Fluctuation) -> float:
    """(1/4) Tr D_omega^2 = Tr(theta + Phi^2) in flat data: `sectors` at f = x^2 (a2 = 2)."""
    return sectors(gt, fl, ActionPolynomial((0.0, 2.0))).total_closed


def trace_d4_closed(gt: GaugeTriple, fl: Fluctuation) -> float:
    """(1/4) Tr D_omega^4 in flat data: `sectors` at f = x^4 (a4 = 2).

    -1/2 sum Tr(F_{mu nu} F^{mu nu}) + Tr((theta + Phi^2)^2)
    - sum eta^{mu nu} Tr([d_mu, Phi][d_nu, Phi]).
    """
    return sectors(gt, fl, ActionPolynomial((0.0, 0.0, 0.0, 2.0))).total_closed


def gauge_higgs_identity_sides(gt: GaugeTriple, fl: Fluctuation, a4: float):
    """Both candidate forms of the gauge-Higgs sector, evaluated independently.

    Left: the exact bracket a4 [Tr(Phi^2 theta) - 1/2 eta Tr([d, Phi][d, Phi])],
    the S_gh of `sectors` at a4.
    Right: the integration-by-parts style shortcut
    -a4 sum eta^{mu nu} Tr(d_mu Phi d_nu Phi), operator composition
    throughout.  For matrix traces the two differ by 2 a4 Tr(theta Phi^2):
    the smooth analogue of that term is a total derivative, but a trace has
    no boundary to drop it over, so only the bracket reproduces the direct
    quartic trace.
    """
    lhs = sectors(gt, fl, ActionPolynomial((0.0, 0.0, 0.0, a4))).s_gh
    e = gt.sig.e
    *d, Phi = term_ops(gt, fl)
    rhs = 0.0 + 0j
    for mu in range(4):
        rhs -= e[mu] * np.trace(d[mu] @ Phi @ d[mu] @ Phi)
    return lhs, float(a4 * rhs.real)


def _checked_tiles(D: np.ndarray) -> list:
    """D's spinor tiles, None where zero, once D passes the self-adjointness check.

    The tiles are the views D_ac of D's 4 x 4 spinor blocks, or D itself when
    4 does not divide dim.  Each tile is read whole: one max|D_ac| per tile,
    one finiteness test of those maxima (a NaN or inf anywhere fails), and
    one max|D_ac - D_ca*| per mirror pair a <= c with a nonzero member, which
    must be at most 1e-9 max(1, max|D|).  No temporary is larger than a tile.
    """
    g = 4 if D.shape[0] % 4 == 0 else 1
    s = D.shape[0] // g
    tiles = [[D[a * s:(a + 1) * s, c * s:(c + 1) * s] for c in range(g)] for a in range(g)]
    top = np.array([[np.abs(t).max(initial=0.0) for t in row] for row in tiles])
    # every maximum is tested, since the builtin max(x, nan) drops a NaN (the
    # reason every identity check folds with clifford.worst)
    if not np.isfinite(top).all():
        raise NotSelfAdjoint("operator has non-finite entries")
    dev = max((np.abs(tiles[a][c] - tiles[c][a].conj().T).max()
               for a in range(g) for c in range(a, g) if top[a, c] or top[c, a]), default=0.0)
    if not dev <= 1e-9 * max(1.0, top.max()):
        raise NotSelfAdjoint(f"operator deviates from self-adjointness by {dev:.3e}")
    return [[t if top[a, c] else None for c, t in enumerate(row)] for a, row in enumerate(tiles)]


def _upper_product(P: list, T: list) -> list:
    """Tiles a <= c of the self-adjoint product P D from tile grids of P and D.

    None is a zero tile, and a product with a zero factor is skipped.  A tile
    that P lacks is read, one at a time, as the conjugate transpose of its
    mirror, so a power may hold its tiles a <= b only; D's grid T is full.
    """
    g = len(T)
    out = [[None] * g for _ in range(g)]
    for a in range(g):
        for b in range(g):
            Pab = P[a][b] if P[a][b] is not None or P[b][a] is None else P[b][a].conj().T
            if Pab is None:
                continue
            for c in range(a, g):
                if T[b][c] is not None:
                    term = Pab @ T[b][c]
                    if out[a][c] is None:
                        out[a][c] = term
                    else:
                        out[a][c] += term
    return out


def _inner(P: list, Q: list) -> float:
    """<P, Q> = Tr(P Q) of two self-adjoint tile grids, from their tiles a <= c."""
    g = len(P)
    return float(sum((1 if a == c else 2) * np.vdot(P[a][c], Q[a][c]).real
                     for a in range(g) for c in range(a, g)
                     if P[a][c] is not None and Q[a][c] is not None))


def spectral_action_direct(D: np.ndarray, f: ActionPolynomial) -> float:
    """(1/4) Tr f(D) for a self-adjoint D, from traces of powers of D.

    Tr f(D) = (1/2) sum_k a_k Tr D^k by one rule: Tr D is the trace of D's
    diagonal blocks, Tr D^(2j) = <D^j, D^j> and Tr D^(2j+1) = <D^j, D^(j+1)>,
    each a real part of block products, weight 2 off the diagonal.  The
    powers live on the grid of D's 4 x 4 spinor blocks (one block when 4
    does not divide dim), each as its blocks a <= c, two at a time: D^j and
    the D^(j+1) = D^j D it forms; Tr D^2 = <D, D> is one pass over D itself,
    which copies nothing when D is contiguous.  A product with a zero block
    of D is skipped.  No diagonalisation: the default quartic costs one
    block-wise matrix product, and the four anti-diagonal blocks of every D
    that `assemble_fluctuated` writes are zero (odd products of gammas never
    reach them).  The self-adjointness check (`_checked_tiles`), which reads
    each block whole, is the pass that finds the zero blocks.
    """
    if D.shape[0] != D.shape[1]:
        raise DimensionMismatch(f"operator not square: {D.shape}")
    tiles = _checked_tiles(D)
    a, total = f.coefficient, 0.0
    # an overflow shows as a non-finite total, which the callers report
    with np.errstate(over="ignore", invalid="ignore"):
        if a(1):
            total += 0.5 * a(1) * float(sum(np.trace(row[b]).real for b, row in enumerate(tiles)
                                            if row[b] is not None))
        P, j = tiles, 1
        while 2 * j <= f.degree:
            Q = _upper_product(P, tiles) if 2 * j < f.degree else None
            for k, R in ((2 * j, P), (2 * j + 1, Q)):
                if a(k):
                    total += 0.5 * a(k) * (float(np.vdot(D, D).real) if k == 2 else _inner(P, R))
            P, j = Q, j + 1
    return 0.25 * total
