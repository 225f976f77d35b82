"""The benchmark's workloads: inputs made from the seed, one operation, the
checks on its output, and the traced replay of the operation through the
public functions of each module.

Every workload is driven by a single thread in a closed loop: the next op
starts when the previous one has returned and been checked.  The program
receives only what is built here (config files, templates, seeds).

    sample-ym-n2     op = one sweep of a Yang-Mills chain, N = 2
    sample-higgs-n4  op = one sweep of a Higgs chain, N = 4
    evaluate         op = cli action + cli spectrum at N = 2, 3, 4, 6
    verify-all       op = cli verify --signatures all
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ncg_ymh import cli, clifford, dirac, fluct, gauge, sampler, verify
from ncg_ymh.action import (ActionPolynomial, sectors, spectral_action_direct,
                            trace_d4_closed)
from ncg_ymh.dirac import FiniteData, GaugeTriple

QUARTIC = (0.0, 1.0, 0.0, 1.0)
POLY = ActionPolynomial(QUARTIC)
SIGNATURES = ((0, 4), (1, 3), (2, 2), (3, 1))
EVAL_NS = (2, 3, 4, 6)
FINITE_N = 2
REL_TOL = 1e-9


def derive_seed(seed: int, *stream: int) -> int:
    """A 31-bit seed for one purpose, drawn from the benchmark seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=stream)
    return int(ss.generate_state(1)[0] >> 1)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class OpResult:
    """One call of a workload's op.

    `units` are end-to-end ops (a chain counts its sweeps), `program_s` the
    time spent inside the program, outside the benchmark's checks.
    """
    units: int
    program_s: float = 0.0
    errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    diag: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.errors


def _call(tr, name, parent, op_id, fn, *args, work: int = 1, **kwargs):
    """Run fn inside a span; return (value or None, seconds, error text)."""
    with tr.span(name, parent, op_id, work=work):
        t0 = time.perf_counter()
        try:
            value, err = fn(*args, **kwargs), ""
        except (Exception, SystemExit):
            value, err = None, f"{name}: {traceback.format_exc(limit=3)}"
        dt = time.perf_counter() - t0
    return value, dt, err


def verify_worker_cap(requested: int = len(SIGNATURES)) -> int:
    """The verify fan-out width the CLI uses: NCG_YMH_THREADS, else the cpu count."""
    env = os.environ.get("NCG_YMH_THREADS")
    if env is None:
        return min(requested, os.cpu_count() or 1)
    return max(1, min(requested, int(env)))


class Workload:
    """One workload: inputs built from the seed, then `op` runs one operation.

    `size` selects the chain length of the sample workloads: "full" in the
    timed loop, "probe" in another workload's traced run, "check" for the
    determinism check and "warmup" for set-up.  The CLI workloads ignore it.
    """

    name = ""

    def __init__(self, seed: int, work_dir: str, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def op(self, seed, tr, parent, op_id, size="full") -> OpResult:
        raise NotImplementedError


# ------------------------------------------------------------------ evaluate

class Evaluate(Workload):
    name = "evaluate"

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.Ns = (2,) if smoke else EVAL_NS
        self.D_bytes = {}
        self.out = os.path.join(work_dir, "evaluate")
        os.makedirs(self.out, exist_ok=True)
        self.configs = {}
        for N in self.Ns:
            path = os.path.join(work_dir, f"evaluate_N{N}.json")
            with open(path, "w") as fh:
                json.dump({"geometry": {"p": 0, "q": 4, "N": N, "n": FINITE_N,
                                        "d_f": "random"},
                           "fields": {"source": "random", "fluctuation": True},
                           "poly": list(QUARTIC)}, fh)
            self.configs[N] = path

    def op(self, seed, tr, parent, op_id, size="full"):
        res = OpResult(units=1)
        h = hashlib.sha256()
        res.counts = {"cli.calls": 0, "cli.failed": 0}
        for N in self.Ns:
            argv = ["--config", self.configs[N], "--seed", str(seed), "--out", self.out]
            texts = []
            for sub, output in (("action", "action_breakdown.json"), ("spectrum", "spectrum.csv")):
                rc, dt, err = _call(tr, f"cli.{sub}.N{N}", parent, op_id,
                                    cli.main, [sub, *argv])
                res.program_s += dt
                res.counts["cli.calls"] += 1
                if err or rc != 0:
                    res.counts["cli.failed"] += 1
                    res.errors.append(err or f"N={N}: cli {sub} exit code {rc}")
                    break
                with open(os.path.join(self.out, output)) as fh:
                    texts.append(fh.read())
            if len(texts) < 2:
                continue
            for text in texts:
                h.update(text.encode())
            breakdown = json.loads(texts[0])
            ev, problems = _check_outputs(breakdown, texts[1], 4 * (N * FINITE_N) ** 2)
            if tr.enabled and not problems:
                problems = self.replay(tr, parent, op_id, N, seed, breakdown, ev)
            res.errors += [f"N={N}: {p}" for p in problems]
        res.digest = h.hexdigest()
        return res

    def replay(self, tr, parent, op_id, N, seed, breakdown=None, ev=None):
        """The library calls of `cli action` and `cli spectrum` with the CLI's
        inputs and seeds; returns the mismatches against the CLI's output."""
        problems = []
        with tr.span(f"replay.action.N{N}", parent, op_id) as sid:
            gt, fl = self._inputs(tr, sid, op_id, N, seed)
            with tr.span(f"action.sectors.N{N}", sid, op_id):
                closed = sectors(gt, fl, POLY).total_closed
            with tr.span("clifford.build_gammas", sid, op_id):
                mod = clifford.build_gammas(gt.sig)
            with tr.span(f"fluct.assemble_fluctuated.N{N}", sid, op_id):
                D = fluct.assemble_fluctuated(gt, fl, mod)
            with tr.span(f"action.spectral_action_direct.N{N}", sid, op_id):
                direct = spectral_action_direct(D, POLY)
        with tr.span(f"replay.spectrum.N{N}", parent, op_id) as sid:
            gt, fl = self._inputs(tr, sid, op_id, N, seed)
            with tr.span("clifford.build_gammas", sid, op_id):
                mod = clifford.build_gammas(gt.sig)
            with tr.span(f"fluct.assemble_fluctuated.N{N}", sid, op_id):
                D = fluct.assemble_fluctuated(gt, fl, mod)
            with tr.span(f"numpy.eigvalsh.N{N}", sid, op_id):
                spec = np.sort(np.linalg.eigvalsh(D))
        self.D_bytes[N] = D.nbytes
        if breakdown is not None:
            if rel(closed, breakdown["total_closed"]) > 1e-12:
                problems.append("replayed sectors differ from cli action")
            if rel(direct, breakdown["total_direct"]) > REL_TOL:
                problems.append("replayed direct trace differs from cli action")
        if ev is not None:
            if np.abs(spec - ev).max() > 1e-12 * max(1.0, np.abs(ev).max()):
                problems.append("replayed spectrum differs from cli spectrum")
        return problems

    @staticmethod
    def _inputs(tr, parent, op_id, N, seed):
        """cli._geometry and cli._fields for the evaluate config, via public calls."""
        sig = clifford.build_signature(0, 4)
        with tr.span("dirac.random_hermitian", parent, op_id):
            DF = dirac.random_hermitian(FINITE_N, np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
        with tr.span(f"dirac.random_fuzzy.N{N}", parent, op_id):
            fz = dirac.random_fuzzy(N, sig, scale=None, seed=seed, include_X=False)
        gt = GaugeTriple(fuzzy=fz, finite=FiniteData(n=FINITE_N, D_F=DF))
        with tr.span(f"fluct.random_fluctuation.N{N}", parent, op_id):
            fl = fluct.random_fluctuation(gt, scale=None, seed=seed + 1)
        return gt, fl


def _check_outputs(breakdown: dict, spectrum_text: str, dim: int):
    """The evaluate checks; returns (eigenvalues, list of problems)."""
    problems = []
    closed, direct = breakdown.get("total_closed"), breakdown.get("total_direct")
    if not (isinstance(closed, float) and isinstance(direct, float)
            and math.isfinite(closed) and math.isfinite(direct)):
        return None, [f"non-finite action totals {closed!r}, {direct!r}"]
    if rel(closed, direct) > REL_TOL:
        problems.append(f"total_closed {closed!r} vs total_direct {direct!r}")
    rows = list(csv.reader(spectrum_text.splitlines()))
    if not rows or rows[0] != ["index", "eigenvalue"]:
        return None, problems + ["spectrum.csv header"]
    body = rows[1:]
    if len(body) != dim or [int(r[0]) for r in body] != list(range(dim)):
        return None, problems + [f"spectrum.csv has {len(body)} rows, want {dim}"]
    ev = np.array([float(r[1]) for r in body])
    if not np.all(np.isfinite(ev)):
        problems.append("non-finite eigenvalue")
    elif np.any(np.diff(ev) < 0):
        problems.append("eigenvalues not ascending")
    else:
        from_csv = 0.25 * sum(0.5 * a * np.sum(ev ** i)
                              for i, a in enumerate(QUARTIC, start=1) if a)
        if rel(from_csv, direct) > REL_TOL:
            problems.append(f"(1/4) sum f(lambda) {from_csv!r} vs total_direct {direct!r}")
    return ev, problems


# ---------------------------------------------------------------- verify-all

class VerifyAll(Workload):
    name = "verify-all"

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.out = os.path.join(work_dir, "verify")
        os.makedirs(self.out, exist_ok=True)
        self.modules = {pq: clifford.build_module(*pq) for pq in SIGNATURES}

    def op(self, seed, tr, parent, op_id, size="full"):
        res = OpResult(units=1)
        rc, res.program_s, err = _call(
            tr, "cli.verify", parent, op_id, cli.main,
            ["verify", "--signatures", "all", "--seed", str(seed), "--out", self.out])
        res.counts = {"cli.calls": 1, "cli.failed": int(bool(err) or rc != 0)}
        if err or rc != 0:
            res.errors.append(err or f"cli verify exit code {rc}")
            return res
        with open(os.path.join(self.out, "verify_report.json")) as fh:
            text = fh.read()
        res.digest = hashlib.sha256(text.encode()).hexdigest()
        report = json.loads(text)
        if report.get("pass") is not True:
            res.errors.append("verify report has pass != true")
        if set(report.get("signatures", {})) != {f"({p},{q})" for p, q in SIGNATURES}:
            res.errors.append("verify report does not cover the four signatures")
        n_ident = sum(len(v) for v in report.get("signatures", {}).values())
        res.counts["verify.identities"] = n_ident
        if tr.enabled:
            replayed = self.replay(tr, parent, op_id, seed)
            if replayed != n_ident:
                res.errors.append(f"replay evaluated {replayed} identities, cli {n_ident}")
            self.inner(tr, parent, op_id, seed)
        return res

    def replay(self, tr, parent, op_id, seed) -> int:
        """run_identity_suite per signature with the CLI's fan-out width."""
        with tr.span("replay.verify", parent, op_id) as sid:
            def suite(pq):
                p, q = pq
                with tr.span(f"verify.signature_suite.{p}{q}", sid, op_id):
                    out = verify.signature_suite(p, q, seed=seed)
                if pq == (0, 4):
                    with tr.span("verify.riemannian_suite", sid, op_id):
                        out += verify.riemannian_suite(seed=seed)
                return out
            workers = verify_worker_cap()
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(suite, SIGNATURES))
            else:
                results = [suite(pq) for pq in SIGNATURES]
        return sum(len(r) for r in results)

    def inner(self, tr, parent, op_id, seed):
        """The suite's brute-force oracles, called directly on its inputs."""
        with tr.span("replay.verify_inner", parent, op_id) as sid:
            for pq in SIGNATURES:
                sig, mod = self.modules[pq].signature, self.modules[pq]
                gt0 = _random_triple(sig, 2, seed, include_X=True, with_DF=False)
                with tr.span("dirac.check_axioms.N2", sid, op_id):
                    dirac.check_axioms(gt0, mod, seed=seed, pairs=20)
                fz3 = dirac.random_fuzzy(3, sig, seed=seed, include_X=True)
                with tr.span("dirac.lichnerowicz_rhs.N3", sid, op_id):
                    dirac.lichnerowicz_rhs(fz3, mod)
                gt = _random_triple(sig, 2, seed, include_X=True, with_DF=True)
                rng = np.random.default_rng(seed)
                pairs = [tuple(np.kron(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                                       rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                               for _ in range(2)) for _ in range(3)]
                with tr.span("fluct.connes_one_form.N2", sid, op_id):
                    fluct.connes_one_form(gt, mod, pairs)
                gtf = _random_triple(sig, 2, seed, include_X=False, with_DF=True)
                flf = fluct.random_fluctuation(gtf, seed=seed)
                with tr.span("action.trace_d4_closed.N2", sid, op_id):
                    trace_d4_closed(gtf, flf)
            gt = _random_triple(self.modules[(0, 4)].signature, 2, seed,
                                include_X=False, with_DF=False)
            fl = fluct.random_fluctuation(gt, seed=seed + 31)
            for product_form in (True, False):
                g = gauge.random_unitary(2, FINITE_N, product_form=product_form, seed=seed)
                with tr.span("gauge.covariance_report.N2", sid, op_id):
                    gauge.covariance_report(gt, fl, g, POLY)


def _random_triple(sig, N, seed, include_X, with_DF):
    """The identity suite's random triple, built from public calls."""
    fz = dirac.random_fuzzy(N, sig, seed=seed, include_X=include_X)
    DF = (dirac.random_hermitian(FINITE_N, np.random.default_rng(seed + 1000))
          if with_DF else np.zeros((FINITE_N, FINITE_N), dtype=complex))
    return GaugeTriple(fuzzy=fz, finite=FiniteData(n=FINITE_N, D_F=DF))


# ------------------------------------------------------------------ sampling

def tau_int(x, c: float = 5.0) -> float:
    """Integrated autocorrelation time in records, Sokal's automatic window."""
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    if n < 4 or not np.any(x):
        return 0.5
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    rho = acf / acf[0]
    tau = 0.5
    for w in range(1, n):
        tau += rho[w]
        if w >= c * tau:
            break
    return max(tau, 0.5)


# chain lengths per call size: (steps, burn_in, thin).  "full" chains are
# short (0.1 to 0.5 s) so that a run holds many latency samples and its
# fastest one, op_ms_min, is likely to fall in a fast phase of a shared host.
_CHAINS = {
    "ym_n2": {"full": (25, 10, 1), "probe": (150, 50, 1),
              "check": (40, 10, 1), "warmup": (1, 0, 1)},
    "higgs_n4": {"full": (20, 10, 1), "probe": (40, 20, 1),
                 "check": (12, 4, 1), "warmup": (1, 0, 1)},
}
_SMOKE_CHAIN = (10, 5, 1)


class SampleChain(Workload):
    key = ""
    chain_options = {}

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.template = self.build_template(2 if smoke else self.N)

    def op(self, seed, tr, parent, op_id, size="full"):
        steps, burn_in, thin = _SMOKE_CHAIN if self.smoke and size != "warmup" \
            else _CHAINS[self.key][size]
        N = self.template.N
        cfg = sampler.SamplerConfig(N=N, n=FINITE_N, poly=POLY, steps=steps,
                                    burn_in=burn_in, thin=thin, seed=seed,
                                    **self.chain_options)
        out, dt, err = _call(tr, f"sampler.run_chain.{self.key}", parent, op_id,
                             sampler.run_chain, cfg, self.template, work=steps)
        res = OpResult(units=steps, program_s=dt)
        if err:
            res.errors.append(err)
            return res
        records, info = out
        state = info["final_state"]
        fields = 8 + (0 if self.template.yang_mills else 1)
        res.counts = {"sampler.sweeps": steps, "sampler.proposals": state.proposal_count,
                      "sampler.accepted": state.accept_count}
        want = len(range(burn_in, steps, thin))
        if len(records) != want:
            res.errors.append(f"{len(records)} records, want {want}")
        values = np.array([[r.s_total, r.s_ym, r.s_h, r.s_gh, r.s_theta, r.acceptance]
                           for r in records], dtype=float).reshape(-1, 6)
        if not np.all(np.isfinite(values)):
            res.errors.append("non-finite record")
        if size == "full" and not self.smoke and self.check_window:
            rate = records[-1].acceptance
            if not 0.2 <= rate <= 0.6:
                res.errors.append(f"final acceptance {rate:.3f} outside [0.2, 0.6]")
        res.digest = hashlib.sha256(values.tobytes()).hexdigest()
        tau = tau_int(values[:, 1]) if len(records) else 0.5
        res.diag = {"key": self.key, "fields": fields, "tau_int_sweeps": tau * thin,
                    "ess_per_s": len(records) / (2 * tau) / dt}
        return res


class SampleYM(SampleChain):
    name = "sample-ym-n2"
    key = "ym_n2"
    N = 2
    check_window = True

    def build_template(self, N):
        sig = clifford.build_signature(0, 4)
        return GaugeTriple(fuzzy=dirac.zero_fuzzy(N, sig),
                           finite=FiniteData(n=FINITE_N,
                                             D_F=np.zeros((FINITE_N, FINITE_N), dtype=complex)))


class SampleHiggs(SampleChain):
    name = "sample-higgs-n4"
    key = "higgs_n4"
    N = 4
    check_window = False
    # near the step sizes autotune settles on after 250 sweeps, so that a
    # short chain samples at the tuned acceptance (about 0.4)
    chain_options = {"step_sizes": {"L": 0.03, "A": 0.02, "phi": 0.02}}

    def build_template(self, N):
        sig = clifford.build_signature(0, 4)
        DF = dirac.random_hermitian(FINITE_N, np.random.default_rng(derive_seed(self.seed, 1, 0)))
        fz = dirac.random_fuzzy(N, sig, seed=derive_seed(self.seed, 1, 1), include_X=False)
        return GaugeTriple(fuzzy=fz, finite=FiniteData(n=FINITE_N, D_F=DF))


WORKLOADS = {w.name: w for w in (SampleYM, SampleHiggs, Evaluate, VerifyAll)}
