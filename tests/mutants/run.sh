#!/usr/bin/env bash
# Mutation check: every mutant in tests/mutants/catalogue.txt must make its
# test command fail.
#
# Usage: tests/mutants/run.sh [work_dir]
#
# The script copies the working tree (without build outputs) to
# `work_dir/tree` and builds there into `work_dir/target`, which it keeps
# between runs, so a warm run rebuilds only the crates a mutant touches.
# First it runs each distinct test command on the unmutated copy, which
# must pass. Then, one mutant at a time, it applies the `sed` expression,
# which must match exactly one line, runs the test command, requires a
# failure that is not a build error, and restores the file. It exits
# non-zero if a mutant no longer applies, does not compile or survives.
# `work_dir` defaults to `${TMPDIR:-/tmp}/easis-mutants`.
set -euo pipefail

repo="$(cd "$(dirname "$0")/../.." && pwd)"
catalogue="$repo/tests/mutants/catalogue.txt"
work="${1:-${TMPDIR:-/tmp}/easis-mutants}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
copy="$work/tree"
log="$work/last.log"
export CARGO_TARGET_DIR="$work/target"

# A fresh copy drops files deleted from the tree; tar keeps modification
# times, so unchanged sources stay fresh for the warm target directory.
rm -rf "$copy"
mkdir -p "$copy"
(cd "$repo" && tar --exclude=./.git --exclude=./target --exclude='*/target' \
  --exclude=./.bench_build -cf - .) | tar -xf - -C "$copy"
# The target directory still holds the builds of the files the last run
# mutated; a new modification time makes cargo rebuild them from source.
touch "$work/mutated"
while IFS= read -r file; do
  if [ -f "$copy/$file" ]; then touch "$copy/$file"; fi
done < "$work/mutated"
: > "$work/mutated"

# Reads the catalogue into parallel arrays, one entry per mutant.
names=() files=() exprs=() tests=()
while IFS= read -r line; do
  case "$line" in
    'name: '*) names+=("${line#name: }") ;;
    'file: '*) files+=("${line#file: }") ;;
    'sed: '*) exprs+=("${line#sed: }") ;;
    'test: '*) tests+=("${line#test: }") ;;
  esac
done < "$catalogue"
count=${#names[@]}
if [ "${#files[@]}" -ne "$count" ] || [ "${#exprs[@]}" -ne "$count" ] \
   || [ "${#tests[@]}" -ne "$count" ]; then
  echo "catalogue.txt: every mutant needs one name, file, sed and test line"; exit 1
fi

echo "==> the unmutated tree passes every test command"
while IFS= read -r cmd; do
  if ! (cd "$copy" && eval "$cmd") > "$log" 2>&1; then
    cat "$log"
    echo "the unmutated tree fails '$cmd'"; exit 1
  fi
done < <(printf '%s\n' "${tests[@]}" | sort -u)

failed=0
for ((i = 0; i < count; i++)); do
  name="${names[$i]}" file="$copy/${files[$i]}" expr="${exprs[$i]}" cmd="${tests[$i]}"
  hits=0
  if [ -f "$file" ]; then hits="$(sed -n -e "${expr}p" "$file" | wc -l)"; fi
  if [ "$hits" -ne 1 ]; then
    echo "STALE     $name: the expression matches $hits lines of ${files[$i]}"
    failed=1
    continue
  fi
  cp "$file" "$work/original"
  echo "${files[$i]}" >> "$work/mutated"
  sed -i -e "$expr" "$file"
  if (cd "$copy" && eval "$cmd") > "$log" 2>&1; then
    echo "SURVIVED  $name: '$cmd' passes"
    failed=1
  elif grep -q 'could not compile' "$log"; then
    echo "NO BUILD  $name: the mutated tree does not compile"
    failed=1
  else
    echo "killed    $name"
  fi
  # A plain copy gives the restored file a new modification time, so the
  # next build recompiles it instead of reusing the mutant's build.
  cp "$work/original" "$file"
done
exit "$failed"
