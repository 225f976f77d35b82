import numpy as np
import pytest

from ncg_ymh import action, dirac, fluct, verify
from ncg_ymh.action import ActionPolynomial
from ncg_ymh.clifford import build_module, build_signature, single
from ncg_ymh.dirac import FiniteData, FuzzyData, GaugeTriple
from ncg_ymh.errors import NotFlat, NotRiemannian, NotSelfAdjoint
from ncg_ymh.superop import gen_comm

POLY = ActionPolynomial((0.0, 0.7, 0.0, 1.3))


def make_triple(p=0, q=4, N=2, n=2, seed=0, include_X=False, with_DF=True):
    sig = build_signature(p, q)
    fz = dirac.random_fuzzy(N, sig, seed=seed, include_X=include_X)
    DF = dirac.random_hermitian(n, np.random.default_rng(seed + 99)) if with_DF \
        else np.zeros((n, n), dtype=complex)
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))


def test_polynomial_accessors():
    f = ActionPolynomial((0.5, 1.0, 0.25, 2.0))
    assert f.a2 == 1.0 and f.a4 == 2.0 and f.degree == 4
    assert f.coefficient(7) == 0.0
    assert f.confining()
    assert not ActionPolynomial((1.0,)).confining()
    assert not ActionPolynomial((0.0, 1.0, 0.0, -1.0)).confining()
    ev = np.array([1.0, -1.0, 2.0])
    assert abs(f.evaluate_sum(ev) - sum(
        0.5 * (0.5 * x + 1.0 * x ** 2 + 0.25 * x ** 3 + 2.0 * x ** 4) for x in ev)) < 1e-12


def test_field_strength_zero_for_commuting_data():
    sig = build_signature(0, 4)
    # diagonal anti-Hermitian blocks commute
    K = {single(mu): 1j * np.diag([1.0, float(mu)]).astype(complex) for mu in range(4)}
    gt = GaugeTriple(fuzzy=FuzzyData(N=2, sig=sig, K=K),
                     finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    fl = fluct.zero_fluctuation(gt)
    F = action.field_strength(gt, fl)
    assert max(np.abs(F.F_super[mu][nu].rep).max() for mu in range(4)
               for nu in range(4)) <= 1e-12


def test_field_strength_antisymmetry_and_matrix_form():
    gt = make_triple(seed=3, with_DF=False)
    fl = fluct.random_fluctuation(gt, seed=4)
    F = action.field_strength(gt, fl)
    assert F.F_matrix is not None
    for mu in range(4):
        for nu in range(4):
            assert np.abs(F.F_super[mu][nu].rep + F.F_super[nu][mu].rep).max() == 0
            # dual representation: commutator superop of the matrix avatar
            np.testing.assert_allclose(F.F_super[mu][nu].rep,
                                       gen_comm(F.F_matrix[mu][nu], -1).rep, atol=1e-11)


def test_theta_positivity_and_reduction():
    gt = make_triple(seed=5, with_DF=False)
    fl = fluct.zero_fluctuation(gt)
    th = action.theta(gt, fl)
    # K-only theta is sum eta k k
    expected = np.zeros_like(th.rep)
    for mu in range(4):
        k = gen_comm(np.kron(gt.fuzzy.block(single(mu)), np.eye(gt.n)), -1)
        expected -= (k @ k).rep
    np.testing.assert_allclose(th.rep, expected, atol=1e-13)

    fl = fluct.random_fluctuation(gt, seed=6)
    th = action.theta(gt, fl)
    assert np.linalg.eigvalsh(th.rep).min() >= -1e-10

    zero_gt = GaugeTriple(fuzzy=dirac.zero_fuzzy(2, gt.sig),
                          finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    assert np.abs(action.theta(zero_gt, fluct.zero_fluctuation(zero_gt)).rep).max() == 0


def test_trace_d2_closed():
    gt = make_triple(N=3, n=2, seed=7)
    fl = fluct.random_fluctuation(gt, seed=8)
    assert verify.trace_lemmas(gt, fl, build_module(0, 4))[0] <= 1e-10

    # Yang-Mills reduces to Tr theta
    gt_ym = make_triple(seed=9, with_DF=False)
    fl_ym = fluct.random_fluctuation(gt_ym, seed=10)
    assert abs(action.trace_d2_closed(gt_ym, fl_ym)
               - action.theta(gt_ym, fl_ym).trace().real) <= 1e-10

    zero_gt = make_triple(seed=0, with_DF=False)
    zfl = fluct.zero_fluctuation(zero_gt)
    zero_gt = GaugeTriple(fuzzy=dirac.zero_fuzzy(2, zero_gt.sig), finite=zero_gt.finite)
    assert action.trace_d2_closed(zero_gt, fluct.zero_fluctuation(zero_gt)) == 0.0


def test_trace_d4_closed():
    gt = make_triple(N=3, n=2, seed=11)
    fl = fluct.random_fluctuation(gt, seed=12)
    assert verify.trace_lemmas(gt, fl, build_module(0, 4))[1] <= 1e-9

    # Higgs only: reduces to Tr Phi^4
    sig = build_signature(0, 4)
    gt_h = GaugeTriple(fuzzy=dirac.zero_fuzzy(2, sig),
                       finite=FiniteData(n=2, D_F=dirac.random_hermitian(
                           2, np.random.default_rng(1))))
    fl_h = fluct.random_fluctuation(gt_h, seed=13)
    fl_h = fluct.Fluctuation(A=fluct.zero_fluctuation(gt_h).A, S=None, phi=fl_h.phi)
    Phi = fluct.higgs_field(fl_h, gt_h).rep
    assert abs(action.trace_d4_closed(gt_h, fl_h)
               - np.trace(Phi @ Phi @ Phi @ Phi).real) <= 1e-10


def test_not_flat_rejected():
    gt = make_triple(include_X=True, seed=14)
    fl = fluct.random_fluctuation(gt, seed=15)
    with pytest.raises(NotFlat):
        action.trace_d2_closed(gt, fl)
    with pytest.raises(NotFlat):
        action.sectors(gt, fl, POLY)


def test_not_riemannian_rejected():
    gt = make_triple(p=1, q=3, include_X=False, seed=16)
    fl = fluct.random_fluctuation(gt, seed=17)
    with pytest.raises(NotRiemannian):
        action.sectors(gt, fl, POLY)


def test_sectors_quadratic_truncation():
    gt = make_triple(seed=18)
    fl = fluct.random_fluctuation(gt, seed=19)
    f2 = ActionPolynomial((0.0, 0.9))
    br = action.sectors(gt, fl, f2)
    assert br.s_ym == 0.0 and br.s_gh == 0.0
    th = action.theta(gt, fl).trace().real
    Phi = fluct.higgs_field(fl, gt).rep
    expected = 0.45 * (th + np.trace(Phi @ Phi).real)
    assert abs(br.total_closed - expected) <= 1e-10 * max(1.0, abs(expected))


def test_sector_sum_equals_direct():
    gt = make_triple(N=2, n=2, seed=20)
    fl = fluct.random_fluctuation(gt, seed=21)
    br = action.sectors(gt, fl, POLY, include_direct=True)
    assert br.total_direct is not None
    assert abs(br.total_closed - br.total_direct) <= 1e-9 * abs(br.total_direct)
    assert abs(br.rest) <= 1e-9 * abs(br.total_direct)
    assert br.s_ym >= -1e-10 and br.s_h >= -1e-10 and br.s_theta >= -1e-10


def test_rest_for_degree_six():
    gt = make_triple(N=2, n=2, seed=22, with_DF=False)
    fl = fluct.random_fluctuation(gt, seed=23)
    f6 = ActionPolynomial((0.0, 0.7, 0.0, 1.3, 0.0, 0.1))
    br = action.sectors(gt, fl, f6, include_direct=True)
    # degree-6 piece lands in rest, not in the four sectors
    assert abs(br.rest) > 1e-6


def test_spectral_action_direct():
    f = ActionPolynomial((0.0, 1.0))
    assert action.spectral_action_direct(np.zeros((8, 8)), f) == 0.0
    D = np.diag([1.0, -1.0, 2.0, -2.0]).astype(complex)
    got = action.spectral_action_direct(D, f)
    assert abs(got - 0.25 * 0.5 * 10.0) <= 1e-14
    with pytest.raises(NotSelfAdjoint):
        action.spectral_action_direct(np.array([[0.0, 1.0], [0.0, 0.0]]), f)


def test_tetrahedral():
    rng = np.random.default_rng(24)
    K0 = 1j * dirac.random_hermitian(3, rng)
    zero = np.zeros((3, 3), dtype=complex)
    assert action.tetrahedral([K0, zero, zero, zero]) == 0.0
    eye = np.eye(3, dtype=complex)
    assert action.tetrahedral([eye, eye, eye, eye]) == 0.0

    K = [1j * dirac.random_hermitian(3, rng) for _ in range(4)]
    got = action.tetrahedral(K)
    # independent oracle: naive index contraction of the superop reps
    k = [gen_comm(Km, -1).rep for Km in K]
    acc = 0.0
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            acc += np.einsum("ij,jm,ml,li->", k[mu], k[nu], k[mu], k[nu]).real
    assert abs(got - (-0.5) * acc) <= 1e-9 * max(1.0, abs(got))


def test_gauge_higgs_identity_sides_disagree_by_theta_phi2():
    # the trace shortcut misses the exact bracket by 2 a4 Tr(theta Phi^2)
    gt = make_triple(N=2, n=2, seed=25)
    fl = fluct.random_fluctuation(gt, seed=26)
    lhs, rhs = action.gauge_higgs_identity_sides(gt, fl, a4=1.0)
    th = action.theta(gt, fl).rep
    Phi = fluct.higgs_field(fl, gt).rep
    gap = 2.0 * np.trace(th @ Phi @ Phi).real
    assert abs((lhs - rhs) - gap) <= 1e-9 * max(1.0, abs(gap))


def _oracle_traces(gt, fl):
    """The seven kernel traces from the m^2 x m^2 superoperators."""
    e = gt.sig.e
    d = [x.rep for x in fluct.covariant_ops(gt, fl)]
    th = action.theta(gt, fl).rep
    Phi = fluct.higgs_field(fl, gt).rep
    F = action.field_strength(gt, fl).F_super
    c = [dm @ Phi - Phi @ dm for dm in d]
    Phi2 = Phi @ Phi
    return action.BiTraces(
        theta=np.trace(th).real,
        theta2=np.trace(th @ th).real,
        F2=sum(e[mu] * e[nu] * np.trace(F[mu][nu].rep @ F[mu][nu].rep)
               for mu in range(4) for nu in range(4)).real,
        Phi2=np.trace(Phi2).real,
        Phi4=np.trace(Phi2 @ Phi2).real,
        Phi2_theta=np.trace(Phi2 @ th).real,
        dPhi2=sum(e[mu] * np.trace(c[mu] @ c[mu]) for mu in range(4)).real,
    )


@pytest.mark.parametrize("with_DF", [True, False])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("p,q", [(0, 4), (1, 3), (2, 2), (3, 1)])
def test_bitracial_kernel_matches_superoperators(p, q, N, with_DF):
    gt = make_triple(p=p, q=q, N=N, seed=30 + N, with_DF=with_DF)
    fl = fluct.random_fluctuation(gt, seed=40 + N)
    assert max(abs(np.trace(A)) for A in fl.A) > 1e-3  # Tr A_mu != 0 is exercised
    got = action._traces(gt, fl)
    want = _oracle_traces(gt, fl)
    for name, g, w in zip(action.BiTraces._fields, got, want):
        assert abs(g - w) <= 1e-12 * max(abs(w), 1e-300), (name, g, w)


@pytest.mark.parametrize("degree", range(1, 7))
@pytest.mark.parametrize("with_DF", [True, False])
@pytest.mark.parametrize("p,q", [(0, 4), (1, 3), (2, 2), (3, 1)])
def test_spectral_action_direct_matches_eigenvalues(p, q, with_DF, degree):
    gt = make_triple(p=p, q=q, N=2, seed=50 + degree, include_X=True, with_DF=with_DF)
    fl = fluct.random_fluctuation(gt, seed=60 + degree)
    D = fluct.assemble_fluctuated(gt, fl, build_module(p, q))
    f = ActionPolynomial((0.3, -0.7, 0.5, 1.1, -0.2, 0.9)[:degree])
    ev = np.linalg.eigvalsh(D)
    want = 0.25 * f.evaluate_sum(ev)
    # relative to the size of the summed terms: Tr D vanishes identically
    scale = 0.25 * ActionPolynomial(tuple(map(abs, f.coeffs))).evaluate_sum(np.abs(ev))
    assert abs(action.spectral_action_direct(D, f) - want) <= 1e-12 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_action_direct_rejects_non_finite(bad):
    f = ActionPolynomial((0.0, 1.0, 0.0, 1.0))
    for D in (np.full((3, 3), bad), np.diag([1.0, bad, 2.0])):
        with pytest.raises(NotSelfAdjoint):
            action.spectral_action_direct(D, f)


def test_self_adjoint_check_over_row_blocks(monkeypatch):
    monkeypatch.setattr(action, "_CHECK_ENTRIES", 8)  # one row per block
    rng = np.random.default_rng(3)
    H = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    H = H + H.conj().T
    action.require_self_adjoint(H)
    H[6, 0] += 1e-3
    with pytest.raises(NotSelfAdjoint):
        action.require_self_adjoint(H)
    H[6, 0] = np.nan
    with pytest.raises(NotSelfAdjoint):
        action.require_self_adjoint(H)


@pytest.mark.parametrize("p,q", [(0, 4), (1, 3), (2, 2), (3, 1)])
def test_bitracial_kernel_at_benchmark_size(p, q):
    # N = 4, n = 2: m = 8, the sampler benchmark's matrix size, with D_F on
    gt = make_triple(p=p, q=q, N=4, seed=70, with_DF=True)
    fl = fluct.random_fluctuation(gt, seed=80)
    got = action._traces(gt, fl)
    want = _oracle_traces(gt, fl)
    for name, g, w in zip(action.BiTraces._fields, got, want):
        assert abs(g - w) <= 1e-12 * max(abs(w), 1e-300), (name, g, w)


def test_bitracial_kernel_commuting_data_exact_zero():
    # diagonal X_mu (anti-Hermitian), P and phi commute: no round-off survives
    rng = np.random.default_rng(12)
    m = 6
    X = np.array([1j * np.diag(rng.normal(size=m)) for _ in range(4)])
    phi = np.diag(rng.normal(size=m)).astype(complex)
    P = np.diag(rng.normal(size=m)) + phi
    sig = build_signature(0, 4)
    tr = action.bitracial_traces(X, P, phi, sig.e, sig.eps_dblprime)
    assert tr.F2 == 0.0
    assert tr.dPhi2 == 0.0
    assert tr.theta > 0 and tr.Phi4 > 0
