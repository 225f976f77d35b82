"""The identity checks, each written once, and the suites behind `cli verify`.

Each check takes the data of one statement (triple, fluctuation, Clifford
module, and an rng, seed, unitaries or lambda where it needs them) and
returns its worst deviation, mostly against a brute-force oracle.  Every
fold of deviations, within a check and over a suite's samples, is
`clifford.worst`, which keeps a NaN: a NaN deviation fails its entry, and
`IdentityResult.as_dict` writes it as null.  The suites call the checks on
keyed inputs, the tests with their own data:

    check                        #        suite       tests
    clifford_identities                   signature   acceptance 01
    axioms                       1        signature   acceptance 02
    weitzenbock                  2, 4, 7  signature   acceptance 03, 05, test_dirac
    dual_path                    3        signature   acceptance 04, test_fluct
    field_strength_adjointness   5        signature
    trace_lemmas, odd_traces     6        signature   acceptance 06a, 07, test_action
    sector_split                 8        signature   acceptance 07, test_action
    gauge_covariance             9        riemannian  acceptance 08, test_gauge
    action_invariance_with_DF   10        riemannian  test_gauge
    central_unitary             11        riemannian  acceptance 08

#2, test 03 and test_dirac reach `weitzenbock` through `lichnerowicz`, its
case n = 1, D_F = 0 at the zero fluctuation.

A suite draws each random input from its own stream, dirac.stream(seed, p,
q, #, sample, role), with role 0 the fuzzy blocks, 1 D_F, 2 the fluctuation,
3 and 4 the check's own draws (algebra pairs, one-form, unitaries).  Both
suites run at N = n = 2.  `riemannian_suite`'s identities hold in every
signature (test_gauge checks all five), but it runs in (0, 4) only while the
benchmark replays it by name.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import action as action_mod
from . import clifford, dirac, fluct, gauge
from .action import ActionPolynomial
from .clifford import worst
from .dirac import FiniteData, GaugeTriple, random_hermitian, stream

_QUARTIC = ActionPolynomial((0.0, 1.0, 0.0, 1.0))  # the suites' f
_N, _n = 2, 2  # the suites' fuzzy and finite sizes


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_deviation <= self.tolerance)

    def as_dict(self) -> dict:
        """The entry as strict JSON: a non-finite deviation is null (and fails)."""
        dev = float(self.max_deviation)
        return {"identity": self.name, "max_deviation": dev if np.isfinite(dev) else None,
                "tolerance": float(self.tolerance), "pass": self.passed}


def _rel(diff: float, scale: float) -> float:
    return diff / max(scale, 1e-300)


def _square_dev(D: np.ndarray, rhs: np.ndarray) -> float:
    D2 = D @ D
    return _rel(np.linalg.norm(D2 - rhs), np.linalg.norm(D2))


def _worst(rows):
    """Entry-wise worst over the per-sample deviation tuples."""
    return tuple(map(worst, zip(*rows)))


def clifford_identities(mod) -> dict:
    """Module invariants and gamma identities, keyed by identity name."""
    out = {f"clifford/{k}": v for k, v in clifford.verify_module_invariants(mod).items()}
    out.update({f"gamma/{k}": v for k, v in clifford.verify_gamma_identities(mod).items()})
    return out


def axioms(gt: GaugeTriple, mod, seed) -> dict:
    """The asserted axiom deviations (20 random algebra pairs), keyed by name."""
    rep = dirac.check_axioms(gt, mod, seed=seed, pairs=20)
    return {f"axioms/{k}": v for k, v in rep.items() if not k.startswith("informational_")}


def weitzenbock(gt: GaugeTriple, fl, mod) -> float:
    """Relative deviation of D_omega^2 from its Weitzenboeck form.

    D_omega = sum_I gamma^I (x) d_I + gamma (x) Phi, with I over the single
    indices (d_mu, `fluct.covariant_ops`) and the triple ones (x_mu,
    `fluct.triple_ops`, with gamma^{hat mu}).  gamma anticommutes with every
    gamma^I, so D_omega^2 is the Higgs-free `dirac._weitzenbock_core` plus
    1 (x) Phi^2 plus sum_I gamma^I gamma (x) [d_I, Phi].
    """
    D = fluct.assemble_fluctuated(gt, fl, mod)
    d = [*fluct.covariant_ops(gt, fl), *fluct.triple_ops(gt, fl)]
    Phi = fluct.higgs_field(fl, gt)
    rhs = dirac._weitzenbock_core(gt.sig, mod, d[:4], d[4:], gt.m * gt.m)
    rhs += np.kron(np.eye(4), Phi @ Phi)
    for g, dI in zip(fluct._gamma_basis(mod)[:8], d):
        rhs += np.kron(g @ mod.chirality, dI @ Phi - Phi @ dI)
    return _square_dev(D, rhs)


def lichnerowicz(fz, mod) -> float:
    """Relative deviation of the fuzzy D^2 from its closed form: `weitzenbock` of
    the n = 1 triple with D_F = 0 at the zero fluctuation (A = S = 0, Phi = 0)."""
    gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=1, D_F=np.zeros((1, 1), dtype=complex)))
    return weitzenbock(gt, fluct.zero_fluctuation(gt), mod)


def dual_path(gt: GaugeTriple, mod, rng: np.random.Generator) -> float:
    """D + omega + eps' J omega J* against the closed-form D_omega.

    omega is the self-adjoint part (omega + omega*)/2 of the Connes one-form
    of three random pairs (a, c), each factor a Kronecker product of complex
    Gaussian N x N and n x n matrices; both paths read that one omega.
    """
    N, n = gt.N, gt.n
    pairs = [tuple(np.kron(dirac.complex_gaussian(rng, N), dirac.complex_gaussian(rng, n))
                   for _ in range(2)) for _ in range(3)]
    omega = fluct.connes_one_form(gt, mod, pairs)
    omega = (omega + omega.conj().T) / 2
    S = dirac.real_structure(mod, gt.m)
    D = fluct.assemble_fluctuated(gt, fluct.zero_fluctuation(gt), mod)
    D_fl = fluct.fluctuate(D, omega, S, gt.sig.eps_prime)
    fl = fluct.extract_fluctuation(gt, mod, omega)
    closed = fluct.assemble_fluctuated(gt, fl, mod)
    return _rel(np.linalg.norm(D_fl - closed), np.linalg.norm(D_fl))


def field_strength_adjointness(gt: GaugeTriple, fl) -> float:
    """F_{mu nu} = -F_{nu mu} and F_{mu nu}* = -e_mu e_nu F_{mu nu} (flat data)."""
    e = gt.sig.e
    F = action_mod.field_strength(gt, fl)
    return worst(dev for mu in range(4) for nu in range(4) for dev in (
        np.abs(F[mu][nu] + F[nu][mu]).max(),
        np.abs(F[mu][nu].conj().T + e[mu] * e[nu] * F[mu][nu]).max()))


def trace_lemmas(gt: GaugeTriple, fl, mod) -> tuple:
    """Relative deviations of the closed (1/4) Tr D^2 and (1/4) Tr D^4 from the direct trace."""
    D = fluct.assemble_fluctuated(gt, fl, mod)
    # (1/4) Tr f(D) for f = x^2 and x^4 (a_k = 2)
    lhs2, lhs4 = (action_mod.spectral_action_direct(D, ActionPolynomial((0.0,) * (k - 1) + (2.0,)))
                  for k in (2, 4))
    return (_rel(abs(lhs2 - action_mod.trace_d2_closed(gt, fl)), abs(lhs2)),
            _rel(abs(lhs4 - action_mod.trace_d4_closed(gt, fl)), abs(lhs4)))


def odd_traces(gt: GaugeTriple, fl, mod) -> float:
    """|Tr D_omega^k| / Tr |D_omega|^k for k = 1, 3."""
    ev = np.linalg.eigvalsh(fluct.assemble_fluctuated(gt, fl, mod))
    odd1 = abs(np.sum(ev)) / max(np.sum(np.abs(ev)), 1e-300)
    odd3 = abs(np.sum(ev ** 3)) / max(np.sum(np.abs(ev) ** 3), 1e-300)
    return worst((odd1, odd3))


def sector_split(gt: GaugeTriple, fl, poly: ActionPolynomial) -> tuple:
    """(sector sum vs direct (1/4) Tr f(D), negativity of a sector, of theta)."""
    br = action_mod.sectors(gt, fl, poly)
    direct = action_mod.spectral_action_direct(
        fluct.assemble_fluctuated(gt, fl, clifford.build_gammas(gt.sig)), poly)
    theta_min = float(np.linalg.eigvalsh(action_mod.theta(gt, fl)).min())
    return (_rel(abs(br.total_closed - direct), abs(direct)),
            worst((0.0, -br.s_ym, -br.s_h, -br.s_theta)),
            worst((0.0, -theta_min)))


def gauge_covariance(gt: GaugeTriple, fl, poly: ActionPolynomial, unitaries) -> tuple:
    """(field strength covariance, action invariance, Ts identity) from
    `covariance_report`, worst over the gauge elements `unitaries`."""
    reports = [gauge.covariance_report(gt, fl, g, poly) for g in unitaries]
    return _worst((r["field_strength_covariance"], r["action_invariance_rel"], r["ts_identity"])
                  for r in reports)


def action_invariance_with_DF(gt: GaugeTriple, fl, poly: ActionPolynomial,
                              rng: np.random.Generator) -> float:
    """Action invariance under u = u1 (x) u2 with [u2, D_F] = 0: u1 Haar on
    C^N, u2 = V diag(e^{i theta}) V* with V the eigenvectors of D_F."""
    u1 = gauge._haar(gt.N, rng)
    theta = rng.uniform(0.0, 2 * np.pi, gt.n)
    V = np.linalg.eigh(gt.finite.D_F)[1]
    u2 = (V * np.exp(1j * theta)) @ V.conj().T
    g = gauge.GaugeElement(u=np.kron(u1, u2), factors=(u1, u2))
    return gauge.covariance_report(gt, fl, g, poly)["action_invariance_rel"]


def central_unitary(gt: GaugeTriple, fl, lam: complex) -> float:
    """Largest change of A_mu and phi under the central unitary lam 1."""
    out = gauge.transform(gt, fl, gauge.GaugeElement(u=lam * np.eye(gt.m)))
    return worst(np.abs(new - old).max() for new, old in zip((*out.A, out.phi), (*fl.A, fl.phi)))


def _inputs(sig, seed: int, key: tuple, include_X: bool, with_DF: bool):
    """(triple, fluctuation) at N = n = 2 of the suite input key = (#, sample)."""
    key = (seed, sig.p, sig.q, *key)
    fz = dirac.random_fuzzy(_N, sig, seed=stream(*key, 0), include_X=include_X)
    DF = random_hermitian(_n, stream(*key, 1)) if with_DF else np.zeros((_n, _n), dtype=complex)
    gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=_n, D_F=DF))
    return gt, fluct.random_fluctuation(gt, seed=stream(*key, 2))


def signature_suite(p: int, q: int, seed: int = 0):
    """Identities valid in any 4d signature, for one (p, q)."""
    sig = clifford.build_signature(p, q)
    mod = clifford.build_gammas(sig)
    results = [IdentityResult(k, v, 1e-12) for k, v in clifford_identities(mod).items()]
    # the J D sign is asserted only for D_F = 0; axioms and dual_path read only the triple
    results += [IdentityResult(k, v, 1e-10) for k, v in axioms(
        _inputs(sig, seed, (1, 0), True, False)[0], mod, stream(seed, p, q, 1, 0, 3)).items()]
    flat_higgs = _inputs(sig, seed, (6, 0), False, True)
    quadratic, quartic = trace_lemmas(*flat_higgs, mod)
    split = _worst(sector_split(*_inputs(sig, seed, (8, sd), False, True), _QUARTIC)
                   for sd in range(5))
    return results + [IdentityResult(name, dev, tol) for name, dev, tol in (
        ("lichnerowicz/square_equals_rhs",
         worst(lichnerowicz(dirac.random_fuzzy(NN, sig, seed=stream(seed, p, q, 2, sd, 0)), mod)
             for sd, NN in enumerate((2,) * 5 + (3,) * 5)), 1e-10),
        ("fluctuation/dual_path",
         worst(dual_path(_inputs(sig, seed, (3, sd), True, True)[0], mod,
                       stream(seed, p, q, 3, sd, 3))
             for sd in range(3)), 1e-10),
        ("weitzenbock/full",
         worst(weitzenbock(*_inputs(sig, seed, (4, sd), True, False), mod)
             for sd in range(2)), 1e-10),
        ("field_strength/antisymmetry_adjointness",
         field_strength_adjointness(*_inputs(sig, seed, (5, 0), False, False)), 1e-10),
        ("trace/quadratic", quadratic, 1e-9),
        ("trace/quartic", quartic, 1e-9),
        ("trace/odd_powers_vanish", odd_traces(*flat_higgs, mod), 1e-9),
        ("weitzenbock/flat_higgs",
         worst(weitzenbock(*_inputs(sig, seed, (7, sd), False, True), mod)
             for sd in range(3)), 1e-10),
        ("sectors/sum_equals_direct_trace", split[0], 1e-9),
        ("sectors/positivity", split[1], 1e-10),
        ("theta/positive_semidefinite", split[2], 1e-10))]


def riemannian_suite(seed: int = 0):
    """Gauge covariance and invariance, run in (0, 4)."""
    sig = clifford.build_signature(0, 4)
    # the action is invariant under a generic u only if D_F = 0: these act on Yang-Mills data
    cov = _worst(gauge_covariance(*_inputs(sig, seed, (9, sd), False, False), _QUARTIC, [
        gauge.random_unitary(_N, _n, product_form=product, seed=stream(seed, 0, 4, 9, sd, role))
        for role, product in ((3, True), (4, False))]) for sd in range(3))
    return [IdentityResult(name, dev, tol) for name, dev, tol in (
        ("gauge/field_strength_covariance", cov[0], 1e-10),
        ("gauge/action_invariance", cov[1], 1e-9),
        ("gauge/ts_identity", cov[2], 1e-10),
        ("gauge/central_unitary_trivial",
         central_unitary(*_inputs(sig, seed, (11, 0), False, True), np.exp(0.37j)), 1e-12),
        ("gauge/action_invariance_with_DF",
         worst(action_invariance_with_DF(*_inputs(sig, seed, (10, sd), False, True), _QUARTIC,
                                       stream(seed, 0, 4, 10, sd, 3))
             for sd in range(3)), 1e-9))]


def run_identity_suite(p: int, q: int, seed: int = 0):
    results = signature_suite(p, q, seed)
    if (p, q) == (0, 4):
        results.extend(riemannian_suite(seed))
    return results
