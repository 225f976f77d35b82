#!/usr/bin/env bash
# CI step "Known mutants", runnable by hand: bash ci/mutants.sh
# The acceptance tests (without test_06b, red by design) pass on a copy of src/, and
# fail on each known mutant of it: eps'' flipped in the Higgs right slot, e_hat flipped
# in the triple-index right slots, the sign of [d_I, Phi] flipped in weitzenbock_rhs,
# and the four gamma^{hat mu} gamma (x) [x_mu, Phi] terms dropped from it.
# Each mutant is one sed on the copy; a pattern that no longer matches stops the
# script, so a mutant cannot silently become the clean tree.  The copy goes to
# $RUNNER_TEMP, or to a fresh temporary directory that is removed on exit.  Each check
# prints its name as it starts, and a failure names the check it happened in.
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
export PYTHONDONTWRITEBYTECODE=1
copy="$work/mutants/src"
# the acceptance tests on the copy, with pytest's exit status; prints pytest's last line
acceptance() {
  local status=0
  PYTHONPATH="$copy" python -m pytest -q -x -p no:cacheprovider tests/test_acceptance.py \
    --deselect tests/test_acceptance.py::test_06b_gauge_higgs_trace_shortcut > "$work/mutants/log" \
    || status=$?
  tail -n 1 "$work/mutants/log"
  return "$status"
}
fresh_copy() {
  rm -rf "$copy"
  mkdir -p "$(dirname "$copy")"
  cp -r src "$copy"
  rm -rf "$copy"/ncg_ymh/__pycache__
}
# mutant NAME FILE FROM TO: replace the basic regex FROM by TO in src/ncg_ymh/FILE
mutant() {
  check "mutant: $1"
  fresh_copy
  file="$copy/ncg_ymh/$2"
  if ! grep -q -- "$3" "$file"; then
    echo "the pattern '$3' no longer matches src/ncg_ymh/$2: update this mutant" >&2
    exit 1
  fi
  sed -i "s/$3/$4/" "$file"
  local status=0
  acceptance || status=$?
  if [ "$status" -ne 1 ]; then
    echo "mutant not caught: the acceptance tests exit $status, want 1 (a failing test)" >&2
    exit 1
  fi
}
check "the clean copy passes"
fresh_copy
if ! acceptance; then
  cat "$work/mutants/log"
  exit 1
fi
mutant "eps'' flipped in the Higgs right slot R[8]" fluct.py \
  'R\[8\] = sig\.eps_dblprime' 'R[8] = -sig.eps_dblprime'
mutant "e_hat flipped in the triple-index right slots" fluct.py \
  '\*sig\.e_hat, 0\]' '*(-e for e in sig.e_hat), 0]'
mutant "the sign of [d_I, Phi] flipped in weitzenbock_rhs" dirac.py \
  'dI @ Phi - Phi @ dI' 'Phi @ dI - dI @ Phi'
mutant "the gamma^{hat mu} gamma (x) [x_mu, Phi] terms dropped from weitzenbock_rhs" dirac.py \
  'zip((\*g, \*map(mod\.gamma_hat, range(4))), d)' 'zip(g, d)'
