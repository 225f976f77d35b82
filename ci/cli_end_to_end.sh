#!/usr/bin/env bash
# CI step "CLI end to end", runnable by hand: bash ci/cli_end_to_end.sh
# verify in all signatures at one BLAS thread and at the default, at seed 7, and
# (4, 0), with every entry present; action and spectrum against the direct trace;
# K blocks from files and triple-index blocks; Higgs and Yang-Mills samples and their
# summaries; the exit codes and one-line errors of overflow, divergence, bad configs
# and malformed input; strict JSON throughout.
# Configs and outputs go to $RUNNER_TEMP, or to a fresh temporary directory that is
# removed on exit.  Each check prints its name as it starts, and a failure names the
# check it happened in.
cd "$(dirname "$0")/.."
set -e
section=setup
check() {
  section=$1
  echo "== $section"
}
work=${RUNNER_TEMP:-$(mktemp -d)}
finish() {
  code=$?
  [ -n "$RUNNER_TEMP" ] || rm -rf "$work"
  if [ "$code" -ne 0 ]; then
    echo "FAILED (exit $code) in: $section" >&2
  fi
}
trap finish EXIT
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
out="$work/cli"
echo '{"geometry": {"p": 0, "q": 4, "N": 6, "n": 2, "d_f": "random"}}' \
  > "$work/n6.json"
echo '{"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
       "sampler": {"steps": 30, "burn_in": 10}}' > "$work/higgs.json"
echo '{"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": null},
       "sampler": {"steps": 30, "burn_in": 10}}' > "$work/ym.json"
echo '{"sampler": {"steps": 5000}}' > "$work/self_test.json"
check "verify at one BLAS thread and at the default: byte-identical reports"
# the BLAS thread count must not change a byte of the report
OPENBLAS_NUM_THREADS=1 python -m ncg_ymh.cli verify --signatures all --out "$out/verify1"
python -m ncg_ymh.cli verify --signatures all --out "$out/verify2"
cmp "$out/verify1/verify_report.json" "$out/verify2/verify_report.json"
check "gauge invariance with a Higgs field in (0, 4)"
# gauge invariance of the action with a Higgs field, for a u that fixes D_F
python - "$out/verify1/verify_report.json" <<'PY'
import json
import sys

rows = json.load(open(sys.argv[1]))["signatures"]["(0,4)"]
found = [r for r in rows if r["identity"] == "gauge/action_invariance_with_DF"]
print(found)
if len(found) != 1 or found[0]["pass"] is not True:
    sys.exit("the (0,4) block lacks a passing gauge/action_invariance_with_DF")
PY
check "verify at seed 7 and in (4, 0): every entry present and passing"
# every suite input has its own stream: another seed, and (4, 0), pass with every entry
python -m ncg_ymh.cli verify --signatures all --seed 7 --out "$out/verify7"
echo '{"geometry": {"p": 4, "q": 0}}' > "$work/verify_40.json"
python -m ncg_ymh.cli verify --signatures one --config "$work/verify_40.json" \
  --out "$out/verify40"
python - "$out/verify1" "$out/verify7" "$out/verify40" <<'PY'
import json
import os
import sys


def refuse(token):
    raise ValueError(f"{token} is not JSON")


every = {"(0,4)": 40, "(1,3)": 35, "(2,2)": 35, "(3,1)": 35}
for out, want in zip(sys.argv[1:], (every, every, {"(4,0)": 35})):
    report = json.load(open(os.path.join(out, "verify_report.json")),
                       parse_constant=refuse)
    counts = {sig: len(rows) for sig, rows in report["signatures"].items()}
    print(out, "pass:", report["pass"], counts)
    if report["pass"] is not True or counts != want:
        sys.exit(f"{out}: expected pass true and entry counts {want}")
PY
check "a NaN deviation fails verify as a null entry, exit 1"
# a NaN deviation fails its entry: written as null in strict JSON, pass false, exit 1
python - "$out/verify_nan" <<'PY'
import json
import os
import sys

from ncg_ymh import cli, verify

lichnerowicz = verify.lichnerowicz
calls = []


def nan_on_second(*args):
    calls.append(None)
    return float("nan") if len(calls) == 2 else lichnerowicz(*args)


def refuse(token):
    raise ValueError(f"{token} is not JSON")


verify.lichnerowicz = nan_on_second
code = cli.main(["verify", "--out", sys.argv[1]])
report = json.load(open(os.path.join(sys.argv[1], "verify_report.json")),
                   parse_constant=refuse)
nulls = [r for r in report["signatures"]["(0,4)"] if r["max_deviation"] is None]
print("exit", code, "pass:", report["pass"], "null entries:", nulls)
if (code != 1 or report["pass"] is not False or len(nulls) != 1
        or nulls[0]["identity"] != "lichnerowicz/square_equals_rhs"
        or nulls[0]["pass"] is not False):
    sys.exit("a NaN deviation must fail its entry as null in strict JSON, with exit 1")
PY
# K blocks from files and fluctuation false: action and spectrum both read the product D
echo '{"rows": 2, "cols": 2, "data": [[0.0, 0.3], [0.5, 0.0], [-0.5, 0.0], [0.0, -0.7]]}' \
  > "$work/l0.json"
echo '{"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
       "fields": {"source": "files", "K": {"mu0": "'"$work"'/l0.json"},
                  "fluctuation": false}}' > "$work/files_product.json"
for name in n6 files_product; do
  check "$name: action and spectrum reproduce the direct trace"
  python -m ncg_ymh.cli action --config "$work/$name.json" --out "$out/action_$name"
  python -m ncg_ymh.cli spectrum --config "$work/$name.json" --out "$out/spectrum_$name"
  # the sectors and the spectrum must both reproduce the direct trace
  python - "$out/action_$name/action_breakdown.json" "$out/spectrum_$name/spectrum.csv" <<'PY'
import csv
import json
import sys

def refuse(token):
    raise ValueError(f"{token} is not JSON")


br = json.load(open(sys.argv[1]), parse_constant=refuse)
ev = [float(row["eigenvalue"]) for row in csv.DictReader(open(sys.argv[2]))]
coeffs = (0.0, 1.0, 0.0, 1.0)  # the default poly
from_spectrum = 0.25 * sum(0.5 * a * sum(x ** k for x in ev)
                           for k, a in enumerate(coeffs, start=1))
direct = br["total_direct"]
for name, value in (("total_closed", br["total_closed"]),
                    ("(1/4) sum f(lambda)", from_spectrum)):
    rel = abs(value - direct) / max(1.0, abs(direct))
    print(f"{name} = {value!r}, total_direct = {direct!r}, rel {rel:.2e}")
    if not rel <= 1e-9:
        sys.exit(f"{name} misses total_direct by {rel:.2e} > 1e-9")
PY
done
check "a triple-index K block from a file: spectrum assembles it, action exits 1"
# a triple-index block K_hat1 (Hermitian in (0, 4)) from a file: spectrum assembles it,
# action's closed-form sectors refuse it with exit 1
echo '{"rows": 2, "cols": 2, "data": [[0.4, 0.0], [0.2, -0.1], [0.2, 0.1], [-0.3, 0.0]]}' \
  > "$work/h1.json"
echo '{"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
       "fields": {"source": "files",
                  "K": {"mu0": "'"$work"'/l0.json", "hat1": "'"$work"'/h1.json"}}}' \
  > "$work/files_hat.json"
python -m ncg_ymh.cli spectrum --config "$work/files_hat.json" --out "$out/spectrum_files_hat"
code=0
python -m ncg_ymh.cli action --config "$work/files_hat.json" \
  --out "$out/action_files_hat" || code=$?
if [ "$code" -ne 1 ]; then
  echo "expected exit 1 for action on a triple-index block, got $code"
  exit 1
fi
check "random triple-index blocks: spectrum exits 0, action gives one error line"
# random triple-index blocks: spectrum exits 0, action refuses them with one error line
echo '{"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
       "fields": {"include_x": true}}' > "$work/include_x.json"
python -m ncg_ymh.cli spectrum --config "$work/include_x.json" \
  --out "$out/spectrum_include_x"
code=0
python -m ncg_ymh.cli action --config "$work/include_x.json" \
  --out "$out/action_include_x" 2> "$out/include_x.err" || code=$?
cat "$out/include_x.err"
if [ "$code" -ne 1 ] || [ "$(wc -l < "$out/include_x.err")" -ne 1 ] \
    || ! grep -q '^error: ' "$out/include_x.err"; then
  echo "expected exit 1 and one error line from action on include_x, got exit $code"
  exit 1
fi
check "the sampler block binds only sample"
# the sampler block binds only sample: action runs with steps below the default burn-in
echo '{"sampler": {"steps": 7}}' > "$work/steps7.json"
python -m ncg_ymh.cli action --config "$work/steps7.json" --out "$out/steps7"
check "a Higgs chain: tau_int, ess and the acceptance of each field"
python -m ncg_ymh.cli sample --config "$work/higgs.json" --out "$out/sample"
# the summary carries tau_int and the effective sample size of S_ym and the
# acceptance of each field
python - "$out/sample/summary.json" <<'PY'
import json
import math
import sys

summary = json.load(open(sys.argv[1]))
values = {"tau_int": summary["s_ym"]["tau_int"], "ess": summary["s_ym"]["ess"],
          **{f"acceptance {k}": v for k, v in summary["acceptance_by_field"].items()}}
print(values)
if set(summary["acceptance_by_field"]) != {"A0", "A1", "A2", "A3", "phi"}:
    sys.exit(f"acceptance_by_field has fields {sorted(summary['acceptance_by_field'])}")
if not all(math.isfinite(v) for v in values.values()):
    sys.exit("non-finite tau_int, ess or acceptance in summary.json")
PY
check "a Yang-Mills chain proposes only the A_mu"
# with a scalar D_F (here 0) the Higgs space is 0: only the A_mu are proposed
python -m ncg_ymh.cli sample --config "$work/ym.json" --out "$out/sample_ym"
python - "$out/sample_ym/summary.json" <<'PY'
import json
import sys

fields = sorted(json.load(open(sys.argv[1]))["acceptance_by_field"])
print("acceptance_by_field:", fields)
if fields != ["A0", "A1", "A2", "A3"]:
    sys.exit(f"a Yang-Mills chain proposed fields {fields}")
PY
check "a chain with no records writes strict JSON"
# a chain with no records (steps == burn_in) still writes strict JSON: null, not NaN,
# and a null tau_int and ess
echo '{"sampler": {"steps": 5, "burn_in": 5}}' > "$work/no_records.json"
python -m ncg_ymh.cli sample --config "$work/no_records.json" \
  --out "$out/no_records"
python - "$out/no_records/summary.json" <<'PY'
import json
import sys

def refuse(token):
    sys.exit(f"summary.json holds {token}, which is not JSON")

summary = json.loads(open(sys.argv[1]).read(), parse_constant=refuse)
print({k: summary[k] for k in ("n_records", "s_total", "s_ym")})
if summary["n_records"] != 0 or summary["s_total"]["mean"] is not None:
    sys.exit("expected no records and a null mean")
if summary["s_ym"]["tau_int"] is not None or summary["s_ym"]["ess"] is not None:
    sys.exit("expected a null tau_int and ess of S_ym")
PY
check "the Gaussian self test"
python -m ncg_ymh.cli sample --self-test --config "$work/self_test.json" \
  --out "$out/self_test"
echo '{"geometri": {"N": 2}}' > "$work/misspelled.json"
echo '{"geometry": {"N": "two"}}' > "$work/n_two.json"
echo '{"poly": [0, 1, 0, 0, 0, 1], "sampler": {"steps": 5, "burn_in": 0}}' > "$work/sextic.json"
# a refused call exits 2 and leaves no --out path behind that was not there before it
expect_config_error() {
  code=0 dir= prev=
  for arg in "$@"; do
    [ "$prev" != --out ] || dir=$arg
    prev=$arg
  done
  fresh=0
  [ -e "$dir" ] || fresh=1
  python -m ncg_ymh.cli "$@" || code=$?
  if [ "$code" -ne 2 ]; then
    echo "expected exit 2 (config error), got $code: $*"
    exit 1
  fi
  if [ "$fresh" -eq 1 ] && [ -e "$dir" ]; then
    echo "a refused call left its --out path $dir behind: $*"
    exit 1
  fi
}
check "fields that overflow: exit 1, one error line, no warning"
# fields that overflow: one error line, exit 1, no numpy warning
echo '{"fields": {"scale": 1e100}}' > "$work/overflow.json"
code=0
python -m ncg_ymh.cli action --config "$work/overflow.json" \
  --out "$out/overflow" 2> "$out/overflow.err" || code=$?
cat "$out/overflow.err"
if [ "$code" -ne 1 ] || grep -q RuntimeWarning "$out/overflow.err"; then
  echo "expected exit 1 and no RuntimeWarning, got exit $code"
  exit 1
fi
check "a degree-8 direct trace matches the spectrum"
# a degree-8 poly: the direct trace, two powers of D at a time, matches the spectrum
echo '{"geometry": {"p": 0, "q": 4, "N": 3, "n": 2, "d_f": "random"},
       "poly": [0.3, -0.7, 0.5, 1.1, -0.2, 0.9, 0.1, 0.4]}' > "$work/octic.json"
python -m ncg_ymh.cli action --config "$work/octic.json" --out "$out/action_octic"
python -m ncg_ymh.cli spectrum --config "$work/octic.json" \
  --out "$out/spectrum_octic"
python - "$out/action_octic/action_breakdown.json" "$out/spectrum_octic/spectrum.csv" <<'PY'
import csv
import json
import sys

direct = json.load(open(sys.argv[1]))["total_direct"]
ev = [float(row["eigenvalue"]) for row in csv.DictReader(open(sys.argv[2]))]
coeffs = (0.3, -0.7, 0.5, 1.1, -0.2, 0.9, 0.1, 0.4)
want = 0.25 * sum(0.5 * a * sum(x ** k for x in ev) for k, a in enumerate(coeffs, 1))
# relative to the size of the summed terms: the odd traces cancel
scale = 0.25 * sum(0.5 * abs(a) * sum(abs(x) ** k for x in ev)
                   for k, a in enumerate(coeffs, 1))
print(f"total_direct = {direct!r}, (1/4) sum f(lambda) = {want!r}")
if not abs(direct - want) <= 1e-9 * scale:
    sys.exit(f"total_direct misses (1/4) sum f(lambda) by {abs(direct - want):.3e}")
PY
check "fields that overflow at their scale: a config error in every triple mode"
# fields that overflow at their scale are a config error for every triple mode
echo '{"geometry": {"N": 2, "n": 2, "d_f": "random"}, "fields": {"scale": 1e308}}' \
  > "$work/scale_1e308.json"
for mode in action spectrum sample; do
  expect_config_error "$mode" --config "$work/scale_1e308.json" \
    --out "$out/scale_$mode"
done
check "finite K blocks whose D overflows: exit 1, one error line"
# finite K blocks whose D overflows: exit 1 and one error line, no warning or traceback
echo '{"rows": 2, "cols": 2, "data": [[0.0, 1e308], [0.0, 0.0], [0.0, 0.0], [0.0, -1e308]]}' \
  > "$work/k0_huge.json"
echo '{"geometry": {"N": 2, "n": 1},
       "fields": {"source": "files", "K": {"mu0": "'"$work"'/k0_huge.json"}}}' \
  > "$work/d_overflow.json"
for mode in action spectrum; do
  code=0
  python -m ncg_ymh.cli "$mode" --config "$work/d_overflow.json" \
    --out "$out/d_overflow_$mode" 2> "$out/d_overflow.err" || code=$?
  cat "$out/d_overflow.err"
  if [ "$code" -ne 1 ] || [ "$(wc -l < "$out/d_overflow.err")" -ne 1 ]; then
    echo "expected exit 1 and one stderr line from $mode, got exit $code"
    exit 1
  fi
done
check "a chain that diverges after burn-in: exit 1"
# a chain that diverges after burn-in (here: no burn-in) exits 1
echo '{"geometry": {"N": 2, "n": 2}, "fields": {"source": "zero"},
       "poly": [0, -1e13, 0, 1], "sampler": {"steps": 40, "burn_in": 0},
       "seed": 1}' > "$work/diverge.json"
code=0
python -m ncg_ymh.cli sample --config "$work/diverge.json" \
  --out "$out/diverge" || code=$?
if [ "$code" -ne 1 ]; then
  echo "expected exit 1 for a diverging chain, got $code"
  exit 1
fi
check "a misspelled key, a sextic poly for sample and a string N: exit 2"
expect_config_error action --config "$work/misspelled.json" --out "$out/misspelled"
expect_config_error sample --config "$work/sextic.json" --out "$out/sextic"
expect_config_error action --config "$work/n_two.json" --out "$out/n_two"
check "a D_F file that is not Hermitian, a nonzero phi for a scalar D_F: exit 2, nothing written"
# a D_F file that is not Hermitian is refused, not symmetrized, and nothing is written
echo '{"rows": 2, "cols": 2, "data": [[1.0, 0.0], [5.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}' \
  > "$work/df_not_hermitian.json"
echo '{"geometry": {"N": 2, "n": 2, "d_f": "'"$work"'/df_not_hermitian.json"},
       "sampler": {"steps": 5, "burn_in": 0}}' > "$work/df_not_hermitian_cfg.json"
for mode in action spectrum sample; do
  expect_config_error "$mode" --config "$work/df_not_hermitian_cfg.json" \
    --out "$out/df_$mode"
done
# a nonzero phi file with D_F null (scalar) is refused: phi = 0 there
python -c 'import json, sys; json.dump({"rows": 4, "cols": 4, "data": [[1.0, 0.0]] * 16},
                                       open(sys.argv[1], "w"))' "$work/phi_ones.json"
echo '{"geometry": {"N": 2, "n": 2}, "fields": {"source": "files", "phi": "'"$work"'/phi_ones.json"}}' \
  > "$work/phi_scalar_df.json"
expect_config_error action --config "$work/phi_scalar_df.json" --out "$out/phi_scalar_df"
check "--out a file, sizes beyond memory, a fields key the source does not read: exit 2"
# --out naming a file, a dense D, a chain or a self test beyond a float's range of GiB,
# and a fields key the source does not read
echo "not a directory" > "$work/out_file"
echo '{"geometry": {"N": 100000000000000000000000000000000000000000000000000000000000000000000000000000000}}' \
  > "$work/n_huge.json"
echo '{"fields": {"source": "random", "phi": "/nonexistent.json"}}' \
  > "$work/unread_phi.json"
expect_config_error verify --out "$work/out_file"
expect_config_error action --config "$work/n_huge.json" --out "$out/n_huge"
expect_config_error spectrum --config "$work/n_huge.json" --out "$out/n_huge"
expect_config_error sample --config "$work/n_huge.json" --out "$out/n_huge"
echo '{"sampler": {"steps": 100000000000000000000000000000000000000000000000000000000000000000000000000000000}}' \
  > "$work/steps_huge.json"
expect_config_error sample --self-test --config "$work/steps_huge.json" \
  --out "$out/steps_huge"
expect_config_error action --config "$work/unread_phi.json" --out "$out/unread_phi"
check "a potential file with fluctuation false, and fields.fluctuation for sample: exit 2"
# a potential file with fluctuation false, and fluctuation false for sample, are not read
python -c 'import json, sys; json.dump({"rows": 4, "cols": 4, "data": [[0.0, 0.0]] * 16},
           open(sys.argv[1], "w"))' "$work/a0.json"
echo '{"geometry": {"p": 0, "q": 4, "N": 2, "n": 2, "d_f": "random"},
       "fields": {"source": "files", "A": ["'"$work"'/a0.json"],
                  "fluctuation": false}}' > "$work/unread_a.json"
echo '{"fields": {"fluctuation": false}}' > "$work/sample_no_fluct.json"
expect_config_error action --config "$work/unread_a.json" --out "$out/unread_a"
expect_config_error spectrum --config "$work/unread_a.json" --out "$out/unread_a"
expect_config_error sample --config "$work/sample_no_fluct.json" \
  --out "$out/sample_no_fluct"
check "keys a mode does not read: exit 2"
# keys a mode does not read: verify's geometry size (its suites run at N = n = 2),
# a chain's self_test_N and the self test's thin; the self test reads burn_in
echo '{"geometry": {"N": 3}}' > "$work/verify_n3.json"
echo '{"sampler": {"self_test_N": 3}}' > "$work/chain_self_test_n.json"
echo '{"sampler": {"steps": 500, "thin": 2}}' > "$work/self_test_thin.json"
echo '{"sampler": {"steps": 500, "burn_in": 10}}' > "$work/self_test_burn_in.json"
expect_config_error verify --config "$work/verify_n3.json" --out "$out/verify_n3"
expect_config_error sample --config "$work/chain_self_test_n.json" \
  --out "$out/chain_self_test_n"
expect_config_error sample --self-test --config "$work/self_test_thin.json" \
  --out "$out/self_test_thin"
check "the self test refuses geometry, fields and poly, and reads burn_in"
# the self test reads no geometry, fields or poly: a missing D_F file, a missing phi
# file and a sextic poly are refused, not ignored
echo '{"geometry": {"N": 6, "d_f": "/nonexistent_df.json"},
       "fields": {"source": "files", "phi": "/nonexistent.json"},
       "poly": [0, 1, 0, 0, 0, -1], "sampler": {"steps": 100}}' \
  > "$work/self_test_unread.json"
expect_config_error sample --self-test --config "$work/self_test_unread.json" \
  --out "$out/self_test_unread"
python -m ncg_ymh.cli sample --self-test --config "$work/self_test_burn_in.json" \
  --out "$out/self_test_burn_in"
check "histogram_bins binds spectrum, signatures binds verify"
# histogram_bins is read by spectrum alone, and signatures by verify alone
echo '{"histogram_bins": 5}' > "$work/bins5.json"
echo '{"signatures": "all"}' > "$work/signatures_all.json"
expect_config_error action --config "$work/bins5.json" --out "$out/bins5"
expect_config_error sample --config "$work/signatures_all.json" \
  --out "$out/signatures_all"
check "malformed input: exit 2 and one config error line"
# malformed input: exit 2 and exactly one line on stderr, never a traceback
expect_one_config_error_line() {
  code=0
  python -m ncg_ymh.cli "$@" 2> "$out/stderr.txt" || code=$?
  cat "$out/stderr.txt"
  if [ "$code" -ne 2 ] || [ "$(wc -l < "$out/stderr.txt")" -ne 1 ]; then
    echo "expected exit 2 and one stderr line, got exit $code: $*"
    exit 1
  fi
}
echo '{"geometry": {"N": 2,}}' > "$work/not_json.json"
echo '{"geometry": {"N": 2, "n": 2}, "fields": {"source": "files",
       "phi": "'"$work"'/no_such_phi.json"}}' > "$work/missing_phi.json"
expect_one_config_error_line action --config "$work/not_json.json" \
  --out "$out/not_json"
expect_one_config_error_line action --config "$work/missing_phi.json" \
  --out "$out/missing_phi"
# a repeated key would drop its first value without a word
echo '{"sampler": {"steps": 100, "burn_in": 10}, "sampler": {"thin": 2}, "seed": 1, "seed": 3}' \
  > "$work/repeated_key.json"
expect_one_config_error_line sample --config "$work/repeated_key.json" \
  --out "$out/repeated_key"
check "a histogram beyond memory is refused before D is built"
# a histogram beyond memory is refused before D is built: nothing is written
echo '{"histogram_bins": 1000000000000}' > "$work/bins_huge.json"
expect_one_config_error_line spectrum --config "$work/bins_huge.json" \
  --out "$out/bins_huge"
if [ -e "$out/bins_huge" ]; then
  echo "spectrum made $out/bins_huge before refusing its histogram"
  exit 1
fi
