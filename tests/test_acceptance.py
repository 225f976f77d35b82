"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `ACCEPTANCE <id> ...: PASS|FAIL` line (visible with
pytest -s).  Desk scale throughout: N <= 4, n = 2, Hilbert dimension <= 256.
The identity checks live in `ncg_ymh.verify`, one function per statement;
criteria 01-08 call them with their own seeds, sizes and tolerances, and
fold the deviations with `clifford.worst`, so a NaN from any sample fails.

Criterion 6b (the integration-by-parts style shortcut for the gauge-Higgs
trace) is expected to fail: for operator traces the two sides differ by
2 a4 Tr(theta Phi^2), which has no reason to vanish (and is positive on
generic data).  The shortcut is kept as a faithful check rather than being
weakened; the sector decomposition itself (criterion 07) never uses it.
"""
import numpy as np
import pytest

from ncg_ymh import action, dirac, fluct, gauge, sampler, verify
from ncg_ymh.action import ActionPolynomial
from ncg_ymh.clifford import build_module, build_signature, worst
from ncg_ymh.dirac import FiniteData, GaugeTriple

ALL_SIGS = [(0, 4), (1, 3), (2, 2), (3, 1)]
QUARTIC = ActionPolynomial((0.0, 1.0, 0.0, 1.0))


def report(tag, ok):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {tag} failed"


def make_triple(p, q, N=2, n=2, seed=0, include_X=False, with_DF=False):
    sig = build_signature(p, q)
    fz = dirac.random_fuzzy(N, sig, seed=seed, include_X=include_X)
    DF = dirac.random_hermitian(n, np.random.default_rng(seed + 99)) if with_DF \
        else np.zeros((n, n), dtype=complex)
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=n, D_F=DF))


def rel(diff, scale):
    return diff / max(scale, 1e-300)


def test_01_clifford_suite():
    dev = worst(worst(verify.clifford_identities(build_module(p, q)).values())
                for (p, q) in ALL_SIGS)
    report("01 clifford suite (tol 1e-12)", dev <= 1e-12)


def test_02_axioms():
    dev = worst(worst(verify.axioms(make_triple(p, q, seed=5, include_X=True),
                                    build_module(p, q), seed=7).values())
                for (p, q) in ALL_SIGS)
    report("02 axioms: order-one, commutant, J/gamma/D signs (tol 1e-10)",
           dev <= 1e-10)


def test_03_lichnerowicz():
    dev = worst(verify.lichnerowicz(dirac.random_fuzzy(N, build_signature(p, q), seed=seed,
                                                       include_X=True), build_module(p, q))
                for (p, q) in ALL_SIGS for N in (2, 3) for seed in range(5))
    report("03 fuzzy Lichnerowicz D^2 = RHS (rel 1e-10)", dev <= 1e-10)


def test_04_fluctuation_dual_path():
    devs = []
    for seed in range(10):
        p, q = ALL_SIGS[seed % 4]
        gt = make_triple(p, q, seed=seed, include_X=True, with_DF=True)
        devs.append(verify.dual_path(gt, build_module(p, q), np.random.default_rng(100 + seed)))
    report("04 fluctuation dual path, 10 seeds (rel 1e-10)", worst(devs) <= 1e-10)


def test_05_weitzenbock():
    # flat (0, 4) with Higgs on
    devs = []
    mod = build_module(0, 4)
    for seed in range(3):
        gt = make_triple(0, 4, seed=seed, include_X=False, with_DF=True)
        fl = fluct.random_fluctuation(gt, seed=seed + 50)
        devs.append(verify.weitzenbock(gt, fl, mod))
    # full Weitzenboeck: X, S on, Higgs off, all signatures
    for (p, q) in ALL_SIGS:
        for seed in range(2):
            gt = make_triple(p, q, seed=seed, include_X=True, with_DF=False)
            fl = fluct.random_fluctuation(gt, seed=seed + 60)
            devs.append(verify.weitzenbock(gt, fl, build_module(p, q)))
    # X, S, D_F and phi all on, all five signatures: the only data that sees
    # the gamma^{hat mu} gamma (x) [x_mu, Phi] terms
    for (p, q) in ALL_SIGS + [(4, 0)]:
        for N, seed in ((2, 30), (3, 31)):
            gt = make_triple(p, q, N=N, seed=seed, include_X=True, with_DF=True)
            fl = fluct.random_fluctuation(gt, seed=seed + 110)
            devs.append(verify.weitzenbock(gt, fl, build_module(p, q)))
    report("05 Weitzenbock flat+Higgs, full, full+Higgs (rel 1e-10)", worst(devs) <= 1e-10)


def test_06a_trace_lemmas():
    devs = []
    mod = build_module(0, 4)
    for N, seed in ((2, 0), (3, 1), (4, 2)):     # Hilbert dims 64, 144, 256
        gt = make_triple(0, 4, N=N, seed=seed, include_X=False, with_DF=True)
        fl = fluct.random_fluctuation(gt, seed=seed + 70)
        devs.extend(verify.trace_lemmas(gt, fl, mod)[:2])
    report("06a trace lemmas TrD^2, TrD^4 vs brute force (rel 1e-9)", worst(devs) <= 1e-9)


def test_06b_gauge_higgs_trace_shortcut():
    # KNOWN RED: for operator traces the shortcut -a4 Tr(d Phi d Phi) misses
    # the exact bracket by 2 a4 Tr(theta Phi^2) > 0 on generic data (the
    # smooth-manifold analogue of that term is a total derivative, but matrix
    # traces have no boundary to lose it over).  Kept failing on purpose;
    # criterion 07 uses the exact bracket and passes.
    devs = []
    for seed in range(3):
        gt = make_triple(0, 4, seed=seed, include_X=False, with_DF=True)
        fl = fluct.random_fluctuation(gt, seed=seed + 80)
        lhs, rhs = action.gauge_higgs_identity_sides(gt, fl, a4=1.0)
        devs.append(rel(abs(lhs - rhs), abs(lhs)))
    report("06b gauge-Higgs trace shortcut (rel 1e-10)", worst(devs) <= 1e-10)


def test_07_sector_decomposition():
    rows = []
    mod = build_module(0, 4)
    for seed in range(20):
        gt = make_triple(0, 4, seed=seed, include_X=False, with_DF=(seed % 2 == 0))
        fl = fluct.random_fluctuation(gt, seed=seed + 90)
        sum_dev, pos_dev, _ = verify.sector_split(gt, fl, QUARTIC)
        rows.append((sum_dev, verify.trace_lemmas(gt, fl, mod)[2], pos_dev))
    worst_sum, worst_odd, worst_pos = map(worst, zip(*rows))
    ok = worst_sum <= 1e-9 and worst_odd <= 1e-9 and worst_pos <= 1e-10
    report("07 sector sum = (1/4)Tr f(D), odd traces, positivity", ok)


def test_08_gauge_covariance_invariance():
    poly = ActionPolynomial((0.0, 0.5, 0.0, 1.0))
    rows = []
    for seed in range(5):
        gt = make_triple(0, 4, seed=seed, include_X=False, with_DF=False)
        fl = fluct.random_fluctuation(gt, seed=seed + 110)
        unitaries = [gauge.random_unitary(gt.N, gt.n, product_form=product_form, seed=seed + 120)
                     for product_form in (True, False)]
        rows.append(verify.gauge_covariance(gt, fl, poly, unitaries)[:2])
    worst_cov, worst_inv = map(worst, zip(*rows))
    # central unitary acts trivially; lambda = i keeps IEEE arithmetic exact
    gt = make_triple(0, 4, seed=3, include_X=False, with_DF=True)
    central_dev = verify.central_unitary(gt, fluct.random_fluctuation(gt, seed=133), 1j)
    ok = worst_cov <= 1e-10 and worst_inv <= 1e-9 and central_dev == 0.0
    report("08 gauge covariance (1e-10), invariance (1e-9), central exact", ok)


def test_09_sampler():
    # Gaussian self test: <Tr M^2> = N^2/2 within 3 standard errors
    res = sampler.gaussian_self_test(N=2, samples=100_000, seed=11)
    ok_gauss = res["within_3se"]

    # full Yang-Mills chain: acceptance window and stationarity.  The
    # integrated autocorrelation time is ~15 sweeps, so records are thinned
    # and the two compared halves each span 2000 sweeps.
    gt = GaugeTriple(fuzzy=dirac.zero_fuzzy(2, build_signature(0, 4)),
                     finite=FiniteData(n=2, D_F=np.zeros((2, 2), dtype=complex)))
    cfg = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=4500, burn_in=500,
                                thin=4, seed=42)
    records, info = sampler.run_chain(cfg, gt)
    rate = records[-1].acceptance
    ok_window = 0.2 <= rate <= 0.6
    ym_series = [r.s_ym for r in records]
    ok_station = sampler.stationarity_check(ym_series)["stationary"]

    # seeded determinism, bit-identical records (short chain suffices)
    cfg_short = sampler.SamplerConfig(N=2, n=2, poly=QUARTIC, steps=120,
                                      burn_in=40, thin=1, seed=7)
    r1, _ = sampler.run_chain(cfg_short, gt)
    r2, _ = sampler.run_chain(cfg_short, gt)
    ok_det = len(r1) == len(r2) > 0 and all(a == b for a, b in zip(r1, r2))

    print(f"  gaussian mean {res['mean_tr_m2']:.4f} +- {res['stderr']:.4f}, "
          f"acceptance {rate:.3f}, stationary {ok_station}")
    report("09 sampler: Gaussian moment, window, stationarity, determinism",
           ok_gauss and ok_window and ok_station and ok_det)


def test_10_cli(tmp_path):
    from ncg_ymh import cli
    import json
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"out": str(tmp_path)}))
    code = cli.main(["verify", "--config", str(cfg_path), "--signatures", "all"])
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = str(tmp_path / "roundtrip.json")
    cli.save_matrix(path, M)
    ok_rt = np.array_equal(cli.load_matrix(path), M)
    report("10 cli verify --signatures all exit 0; matrix roundtrip bit-exact",
           code == 0 and ok_rt)
