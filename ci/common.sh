# Sourced by the ci/ scripts: run from the repo root under set -e; `check NAME` names the
# section that runs, and a failure prints "FAILED (exit N) in: NAME".  $work is
# $RUNNER_TEMP, or a fresh temporary directory that is removed on exit.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
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
