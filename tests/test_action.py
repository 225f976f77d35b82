import hashlib

import numpy as np
import pytest

from ncg_ymh import action, cli, dirac, fluct, verify
from ncg_ymh.action import ActionPolynomial
from ncg_ymh.clifford import build_module, build_signature
from ncg_ymh.dirac import FiniteData, FuzzyData, GaugeTriple
from ncg_ymh.errors import NotFlat, NotSelfAdjoint
from ncg_ymh.superop import gen_comm

POLY = ActionPolynomial((0.0, 0.7, 0.0, 1.3))
DEGREE_8 = (0.3, -0.7, 0.5, 1.1, -0.2, 0.9, 0.1, 0.4)  # truncated to test each degree


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
    K = np.array([1j * np.diag([1.0, float(mu)]).astype(complex) for mu in range(4)])
    gt = GaugeTriple(fuzzy=FuzzyData(sig=sig, K=K, K_hat=np.zeros_like(K)),
                     finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    fl = fluct.zero_fluctuation(gt)
    F = action.field_strength(gt, fl)
    assert max(np.abs(F[mu][nu]).max() for mu in range(4)
               for nu in range(4)) <= 1e-12


def test_field_strength_antisymmetry_and_matrix_form():
    gt = make_triple(seed=3, with_DF=False)
    fl = fluct.random_fluctuation(gt, seed=4)
    F = action.field_strength(gt, fl)
    X = fluct.covariant_matrices(gt.fuzzy.K, fl.A)
    for mu in range(4):
        for nu in range(4):
            assert np.abs(F[mu][nu] + F[nu][mu]).max() == 0
            # dual representation: commutator superop of the matrix avatar
            np.testing.assert_allclose(F[mu][nu], gen_comm(X[mu] @ X[nu] - X[nu] @ X[mu], -1),
                                       atol=1e-11)


def test_theta_positivity_and_reduction():
    gt = make_triple(seed=5, with_DF=False)
    fl = fluct.zero_fluctuation(gt)
    th = action.theta(gt, fl)
    # K-only theta is sum eta k k
    expected = np.zeros_like(th)
    for mu in range(4):
        k = gen_comm(np.kron(gt.fuzzy.K[mu], np.eye(gt.n)), -1)
        expected -= k @ k
    np.testing.assert_allclose(th, expected, atol=1e-13)

    fl = fluct.random_fluctuation(gt, seed=6)
    th = action.theta(gt, fl)
    assert np.linalg.eigvalsh(th).min() >= -1e-10

    zero_gt = GaugeTriple(fuzzy=dirac.zero_fuzzy(2, gt.sig),
                          finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    assert np.abs(action.theta(zero_gt, fluct.zero_fluctuation(zero_gt))).max() == 0


def test_trace_d2_closed():
    gt = make_triple(N=3, n=2, seed=7)
    fl = fluct.random_fluctuation(gt, seed=8)
    assert verify.trace_lemmas(gt, fl, build_module(0, 4))[0] <= 1e-10

    # Yang-Mills reduces to Tr theta
    gt_ym = make_triple(seed=9, with_DF=False)
    fl_ym = fluct.random_fluctuation(gt_ym, seed=10)
    assert abs(action.trace_d2_closed(gt_ym, fl_ym)
               - np.trace(action.theta(gt_ym, fl_ym)).real) <= 1e-10

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
    zero = fluct.zero_fluctuation(gt_h)
    fl_h = fluct.Fluctuation(A=zero.A, S=zero.S, phi=fl_h.phi)
    Phi = fluct.higgs_field(fl_h, gt_h)
    assert abs(action.trace_d4_closed(gt_h, fl_h)
               - np.trace(Phi @ Phi @ Phi @ Phi).real) <= 1e-10


def test_not_flat_rejected():
    gt = make_triple(include_X=True, seed=14)
    fl = fluct.random_fluctuation(gt, seed=15)
    with pytest.raises(NotFlat):
        action.trace_d2_closed(gt, fl)
    with pytest.raises(NotFlat):
        action.sectors(gt, fl, POLY)


def test_sectors_quadratic_truncation():
    gt = make_triple(seed=18)
    fl = fluct.random_fluctuation(gt, seed=19)
    f2 = ActionPolynomial((0.0, 0.9))
    br = action.sectors(gt, fl, f2)
    assert br.s_ym == 0.0 and br.s_gh == 0.0
    th = np.trace(action.theta(gt, fl)).real
    Phi = fluct.higgs_field(fl, gt)
    expected = 0.45 * (th + np.trace(Phi @ Phi).real)
    assert abs(br.total_closed - expected) <= 1e-10 * max(1.0, abs(expected))


def test_sector_sum_equals_direct():
    # every signature with p + q = 4
    for p in range(5):
        gt = make_triple(p=p, q=4 - p, N=2, n=2, seed=20)
        fl = fluct.random_fluctuation(gt, seed=21)
        br = action.sectors(gt, fl, POLY, include_direct=True)
        assert br.total_direct is not None
        assert abs(br.total_closed - br.total_direct) <= 1e-9 * abs(br.total_direct), p
        assert abs(br.rest) <= 1e-9 * abs(br.total_direct), p
        assert br.s_ym >= -1e-10 and br.s_h >= -1e-10 and br.s_theta >= -1e-10, p


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


def test_gauge_higgs_identity_sides_disagree_by_theta_phi2():
    # the trace shortcut misses the exact bracket by 2 a4 Tr(theta Phi^2)
    gt = make_triple(N=2, n=2, seed=25)
    fl = fluct.random_fluctuation(gt, seed=26)
    lhs, rhs = action.gauge_higgs_identity_sides(gt, fl, a4=1.0)
    th = action.theta(gt, fl)
    Phi = fluct.higgs_field(fl, gt)
    gap = 2.0 * np.trace(th @ Phi @ Phi).real
    assert abs((lhs - rhs) - gap) <= 1e-9 * max(1.0, abs(gap))


def _oracle_traces(gt, fl):
    """The seven kernel traces from the m^2 x m^2 superoperators."""
    e = gt.sig.e
    d = fluct.covariant_ops(gt, fl)
    th = action.theta(gt, fl)
    Phi = fluct.higgs_field(fl, gt)
    F = action.field_strength(gt, fl)
    c = [dm @ Phi - Phi @ dm for dm in d]
    Phi2 = Phi @ Phi
    return action.BiTraces(
        theta=np.trace(th).real,
        theta2=np.trace(th @ th).real,
        F2=sum(e[mu] * e[nu] * np.trace(F[mu][nu] @ F[mu][nu])
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


@pytest.mark.parametrize("degree", range(1, 9))
@pytest.mark.parametrize("with_DF", [True, False])
@pytest.mark.parametrize("p,q", [(0, 4), (1, 3), (2, 2), (3, 1)])
def test_spectral_action_direct_matches_eigenvalues(p, q, with_DF, degree):
    gt = make_triple(p=p, q=q, N=2, seed=50 + degree, include_X=True, with_DF=with_DF)
    fl = fluct.random_fluctuation(gt, seed=60 + degree)
    D = fluct.assemble_fluctuated(gt, fl, build_module(p, q))
    f = ActionPolynomial(DEGREE_8[:degree])
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


def _filled(kernel, X, P, phi):
    kernel.X[...], kernel.P[...], kernel.phi[...] = X, P, phi
    return kernel


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("field", ["A2", "phi"])
def test_candidate_stack_by_row_update(m, field):
    # the sampler's candidates: the state's stack copied into a second kernel's, with row
    # X_mu, or rows phi and P, updated; the kernel writes only the scratch rows of its stack
    rng = np.random.default_rng(m)
    sig = build_signature(0, 4)
    X = np.array([1j * dirac.random_hermitian(m, rng) for _ in range(4)])
    DF, phi = dirac.random_hermitian(m, rng), dirac.random_hermitian(m, rng)
    state = _filled(action.Kernel(m, sig.e, sig.eps_dblprime), X, DF + phi, phi)
    state.traces()  # fills the scratch rows of the state
    inc = dirac.random_hermitian(m, rng)
    cand = action.Kernel(m, sig.e, sig.eps_dblprime)
    np.copyto(cand.S, state.S)
    if field == "phi":
        cand.phi[...] += inc
        np.add(DF, cand.phi, out=cand.P)
        X_c, phi_c = X, phi + inc
    else:
        cand.X[2] += 1j * inc
        X_c, phi_c = X.copy(), phi
        X_c[2] = X[2] + 1j * inc
    rows = cand.S[:7].tobytes()
    got = cand.traces()
    assert cand.S[:7].tobytes() == rows
    want = action.bitracial_traces(X_c, DF + phi_c, phi_c, sig.e, sig.eps_dblprime)
    for name, g, w in zip(action.BiTraces._fields, got, want):
        assert abs(g - w) <= 1e-12 * max(abs(w), 1e-300), (name, g, w)


def _kernel_input(m, k):
    """(X, P, phi) at size m, the k-th of a fixed sequence."""
    rng = np.random.default_rng([m, k])
    X = np.array([1j * dirac.random_hermitian(m, rng) for _ in range(4)])
    DF, phi = dirac.random_hermitian(m, rng), dirac.random_hermitian(m, rng)
    return X, DF + phi, phi


# sha256 (first 16 hex digits) of the traces of `_kernel_input(m, k)`, m in (2, 4, 8, 16,
# 32), k in (0, 1, 2), as the kernel gave them before it computed into preallocated buffers
# (numpy 2.4.6, OpenBLAS 0.3.31)
KERNEL_DIGESTS = {(0, 4): "6ba741c3e6557697", (1, 3): "a4cefb37a7a4203b",
                  (2, 2): "61aa4bc688afd581", (3, 1): "002760863d8f3427"}


@pytest.mark.parametrize("p,q", [(0, 4), (1, 3), (2, 2), (3, 1)])
def test_stack_kernel_on_a_held_workspace(p, q):
    # one kernel per m, refilled with three inputs in turn, gives the traces of a fresh
    # kernel bit for bit
    sig = build_signature(p, q)
    h = hashlib.sha256()
    for m in (2, 4, 8, 16, 32):
        kernel = action.Kernel(m, sig.e, sig.eps_dblprime)
        for k in range(3):
            X, P, phi = _kernel_input(m, k)
            got = _filled(kernel, X, P, phi).traces()
            want = action.bitracial_traces(X, P, phi, sig.e, sig.eps_dblprime)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (m, k)
            h.update(np.array(got).tobytes())
    assert h.hexdigest()[:16] == KERNEL_DIGESTS[(p, q)]


def test_stack_kernel_allocates_no_array():
    # on a held kernel only the Python numbers of the traces are allocated
    import tracemalloc
    sig = build_signature(0, 4)
    peaks = {}
    for m in (16, 32, 64):
        kernel = _filled(action.Kernel(m, sig.e, sig.eps_dblprime), *_kernel_input(m, 0))
        kernel.traces()
        tracemalloc.start()
        try:
            kernel.traces()
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] < 16 * 1024, peaks
    assert peaks[64] <= peaks[16], peaks


def test_stack_kernel_from_many_threads():
    # every thread writes only its own kernels, one per m, refilled with each input it is
    # given, so concurrent calls give the serial traces bit for bit
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor
    sig = build_signature(0, 4)
    inputs = []
    for k in range(16):
        rng = np.random.default_rng(100 + k)
        m = (4, 6, 8)[k % 3]
        X = np.array([1j * dirac.random_hermitian(m, rng) for _ in range(4)])
        inputs.append((X, dirac.random_hermitian(m, rng), dirac.random_hermitian(m, rng)))
    want = [action.bitracial_traces(*inp, sig.e, sig.eps_dblprime) for inp in inputs]
    local = threading.local()

    def runs(inp):
        kernels, m = vars(local).setdefault("kernels", {}), inp[0].shape[-1]
        if m not in kernels:
            kernels[m] = action.Kernel(m, sig.e, sig.eps_dblprime)
        return [_filled(kernels[m], *inp).traces() for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(runs, inputs * 2, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(runs == [w] * 20 for runs, w in zip(got, want * 2))


def _dense_direct(D, f):
    """Reference: (1/4) Tr f(D) from dense powers of D, Tr D^k = <D^i, D^j>."""
    powers = [None, D]
    for _ in range((f.degree + 1) // 2 - 1):
        powers.append(powers[-1] @ D)
    total = 0.0
    for k, a in enumerate(f.coeffs, start=1):
        if a:
            tr = np.trace(D) if k == 1 else np.vdot(powers[k // 2], powers[k - k // 2])
            total += 0.5 * a * float(tr.real)
    return 0.25 * total


def _zero_tiles(D):
    return [[t is None for t in row] for row in action._checked_tiles(D)]


ANTI_DIAGONAL = [[a + c == 3 for c in range(4)] for a in range(4)]


def test_direct_trace_matches_dense_at_evaluate_size():
    # the benchmark's evaluate config at N = 6, through the CLI's own input path
    cfg = cli.resolve({"geometry": {"p": 0, "q": 4, "N": 6, "n": 2, "d_f": "random"},
                       "seed": 0})
    gt, fl = cli._fields(cfg)
    D = fluct.assemble_fluctuated(gt, fl, build_module(0, 4))
    assert _zero_tiles(D) == ANTI_DIAGONAL
    f = ActionPolynomial((0.0, 1.0, 0.0, 1.0))
    want = _dense_direct(D, f)
    assert abs(action.spectral_action_direct(D, f) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("degree", range(1, 9))
@pytest.mark.parametrize("data", ["triple_blocks", "dense_tiles", "dim_7"])
def test_direct_trace_matches_dense(data, degree):
    if data == "triple_blocks":
        gt = make_triple(N=2, seed=90 + degree, include_X=True)
        fl = fluct.random_fluctuation(gt, seed=100 + degree)
        assert np.abs(fl.S).max() > 0
        D = fluct.assemble_fluctuated(gt, fl, build_module(0, 4))
        # odd products of gammas never reach the anti-diagonal spinor blocks
        assert _zero_tiles(D) == ANTI_DIAGONAL
    else:
        D = dirac.random_hermitian(64 if data == "dense_tiles" else 7,
                                   np.random.default_rng(degree))
        zero = _zero_tiles(D)  # a 4 x 4 grid of dense tiles, or one tile for dim 7
        assert len(zero) == (4 if data == "dense_tiles" else 1) and not any(map(any, zero))
    f = ActionPolynomial(DEGREE_8[:degree])
    ev = np.linalg.eigvalsh(D)
    # relative to the size of the summed terms: Tr D^k may cancel for odd k
    scale = 0.25 * ActionPolynomial(tuple(map(abs, f.coeffs))).evaluate_sum(np.abs(ev))
    assert abs(action.spectral_action_direct(D, f) - _dense_direct(D, f)) <= 1e-12 * scale


def test_direct_trace_holds_two_powers_at_a_time():
    # beyond D, degree 6 holds D^2 and D^3, and degree 16 no more: two powers at a time.
    # The slack of 1% of D is the interpreter's own bookkeeping (tens of bytes); one more
    # power would add about 60% of D
    import tracemalloc
    gt = make_triple(N=3, n=2, seed=7)
    D = fluct.assemble_fluctuated(gt, fluct.random_fluctuation(gt, seed=8), build_module(0, 4))
    peaks = {}
    for degree in (6, 16):
        tracemalloc.start()
        try:
            action.spectral_action_direct(D, ActionPolynomial((0.1,) * (degree - 1) + (1.0,)))
            peaks[degree] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] <= peaks[6] + D.nbytes // 100, (peaks, D.nbytes)


def test_direct_trace_of_zero_operator():
    f = ActionPolynomial((0.3, -0.7, 0.5, 1.1, -0.2, 0.9))
    for dim in (16, 7):
        D = np.zeros((dim, dim), dtype=complex)
        assert all(all(row) for row in _zero_tiles(D))
        assert action.spectral_action_direct(D, f) == 0.0 == _dense_direct(D, f)


@pytest.mark.parametrize("where", [(9, 0), (13, 0), (5, 2)])
def test_nan_only_in_a_lower_mirror_tile(where):
    # D is 16 x 16, tiles 4 x 4: (9, 0) sits in tile (2, 0), whose mirror (0, 2)
    # is nonzero; (13, 0) in tile (3, 0), whose mirror (0, 3) is zero
    gt = make_triple(N=2, n=1, seed=5)
    fl = fluct.random_fluctuation(gt, seed=6)
    D = fluct.assemble_fluctuated(gt, fl, build_module(0, 4))
    assert _zero_tiles(D) == ANTI_DIAGONAL
    D[where] = np.nan
    for check in (action.require_self_adjoint,
                  lambda D: action.spectral_action_direct(D, POLY)):
        with pytest.raises(NotSelfAdjoint, match="non-finite"):
            check(D)
