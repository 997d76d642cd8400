#!/bin/sh
# Runs bpredict's per-program subcommands, and trace, on a built-in
# workload and on MiniC files, cfg on a procedure that does not exist,
# predict on a directory, then experiment on an experiment that
# loads no workload and on an unknown id, list, and experiment with
# -j 0, each case three times:
# without the store (BALLARUS_NO_CACHE), then cold and warm over one
# private store that starts empty.  Fails unless the three runs print the same bytes and
# exit the same way, and the warm run writes nothing new.  Prints each
# case's output once, with its exit status, for the diff against
# cli.expected.
#
# Usage: sh run.sh BPREDICT_EXE
set -u
bpredict=$1
store=$(pwd)/cli-store
fail=0

run_case() {
  printf '$ bpredict %s\n' "$*"
  rm -rf "$store"
  BALLARUS_NO_CACHE=1 "$bpredict" "$@" >out.none 2>&1
  echo "exit $?" >>out.none
  env -u BALLARUS_NO_CACHE BALLARUS_CACHE_DIR="$store" "$bpredict" "$@" \
    >out.cold 2>&1
  echo "exit $?" >>out.cold
  cold_entries=$(ls "$store" 2>/dev/null)
  env -u BALLARUS_NO_CACHE BALLARUS_CACHE_DIR="$store" "$bpredict" "$@" \
    >out.warm 2>&1
  echo "exit $?" >>out.warm
  warm_entries=$(ls "$store" 2>/dev/null)
  for run in cold warm; do
    if ! cmp -s out.none "out.$run"; then
      echo "bpredict $*: the $run run differs from the uncached one" >&2
      fail=1
    fi
  done
  if [ "$cold_entries" != "$warm_entries" ]; then
    echo "bpredict $*: the warm run wrote to the store" >&2
    fail=1
  fi
  cat out.none
}

for src in xlisp small.mc; do
  run_case compile "$src"
  run_case cfg "$src"
  run_case predict "$src"
  run_case profile "$src"
  run_case layout "$src"
done
run_case profile bad.mc
run_case cfg small.mc --proc nosuch
run_case predict .
run_case trace xlisp
run_case trace small.mc
run_case experiment graph12
run_case experiment nosuch
run_case list
run_case experiment graph12 -j 0

rm -rf "$store" out.none out.cold out.warm
exit $fail
