#!/usr/bin/env bash
# CI step "Every signature", runnable by hand: bash ci/every_signature.sh
# The action's closed total matches the direct trace in (1, 3), (2, 2), (3, 1) and
# (4, 0), with s_ym >= 0 and rest == total_direct - total_closed exactly; a (1, 3)
# chain reports every field, tau_int and ess, with S_ym >= 0 on every record; a Higgs
# chain run twice in (0, 4) and in (1, 3) writes byte-identical records.csv and
# summary.json.
# Configs and outputs go to $RUNNER_TEMP, or to a fresh temporary directory that is
# removed on exit.  Each check prints its name as it starts, and a failure names the
# check it happened in.  A numpy RuntimeWarning that escapes any python process
# (PYTHONWARNINGS, the filter the tests run under) fails its check.
. "$(dirname "$0")/common.sh"
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONWARNINGS=error::RuntimeWarning
out="$work/signatures"
for pq in "1 3" "2 2" "3 1" "4 0"; do
  set -- $pq
  check "action in ($1, $2): total_closed matches total_direct, rest exact, s_ym >= 0"
  echo '{"geometry": {"p": '"$1"', "q": '"$2"', "N": 3, "n": 2, "d_f": "random"}}' \
    > "$work/action_$1$2.json"
  python -m ncg_ymh.cli action --config "$work/action_$1$2.json" --out "$out/action_$1$2"
  python - "$out/action_$1$2/action_breakdown.json" <<'PY'
import json
import sys

br = json.load(open(sys.argv[1]))
closed, direct = br["total_closed"], br["total_direct"]
rel = abs(closed - direct) / max(1.0, abs(direct))
print(f"{sys.argv[1]}: total_closed = {closed!r}, total_direct = {direct!r}, rel {rel:.2e}")
if not rel <= 1e-9:
    sys.exit(f"total_closed misses total_direct by {rel:.2e} > 1e-9")
# the rest is the difference of the two totals, bit for bit
if not br["rest"] == direct - closed:
    sys.exit(f"rest = {br['rest']!r} is not total_direct - total_closed = {direct - closed!r}")
# a4 >= 0: S_ym = -(a4/4) F^2 and F^2 is minus a squared norm
if not br["s_ym"] >= 0:
    sys.exit(f"s_ym = {br['s_ym']!r} < 0")
PY
done
check "a (1, 3) chain: every field, tau_int and ess, S_ym >= 0 on every record"
echo '{"geometry": {"p": 1, "q": 3, "N": 2, "n": 2, "d_f": "random"},
       "sampler": {"steps": 30, "burn_in": 10}}' > "$work/sample_13.json"
python -m ncg_ymh.cli sample --config "$work/sample_13.json" --out "$out/sample_13"
python - "$out/sample_13/summary.json" "$out/sample_13/records.csv" <<'PY'
import csv
import json
import math
import sys

s_ym = [float(row["S_ym"]) for row in csv.DictReader(open(sys.argv[2]))]
print("records:", len(s_ym), "min S_ym:", min(s_ym, default=None))
if not s_ym or not all(v >= 0 for v in s_ym):
    sys.exit("records.csv lacks records or has an S_ym row below 0")
summary = json.load(open(sys.argv[1]))
fields = sorted(summary["acceptance_by_field"])
tau, ess = summary["s_ym"]["tau_int"], summary["s_ym"]["ess"]
print("acceptance_by_field:", fields, "tau_int:", tau, "ess:", ess)
if fields != ["A0", "A1", "A2", "A3", "phi"]:
    sys.exit(f"a (1, 3) Higgs chain proposed fields {fields}")
if not (math.isfinite(tau) and math.isfinite(ess)):
    sys.exit("non-finite tau_int or ess in summary.json")
PY
# the same sample config run twice gives the same bytes: a Higgs chain at N = 2
for pq in "0 4" "1 3"; do
  set -- $pq
  check "a Higgs chain run twice in ($1, $2): byte-identical records.csv and summary.json"
  echo '{"geometry": {"p": '"$1"', "q": '"$2"', "N": 2, "n": 2, "d_f": "random"},
         "sampler": {"steps": 60, "burn_in": 30}}' > "$work/twice_$1$2.json"
  for run in 1 2; do
    python -m ncg_ymh.cli sample --config "$work/twice_$1$2.json" \
      --out "$out/twice_$1$2_$run"
  done
  cmp "$out/twice_$1$2_1/records.csv" "$out/twice_$1$2_2/records.csv"
  cmp "$out/twice_$1$2_1/summary.json" "$out/twice_$1$2_2/summary.json"
done
