#!/usr/bin/env bash
# Report the out-of-line library functions that no shipped binary links.
#
# Builds every library at -O0 -fno-inline -ffunction-sections, links
# every bench, example and the perfbench driver with --gc-sections, and
# prints, per static library, the global functions (nm type T) it
# defines that none of those binaries keeps. Inline and template code
# (weak symbols) is not counted, so this undercounts; a constructor
# counts, and prints, once per ABI variant (complete and base object
# symbols). Tests are not linked: a function only a test reaches is
# reported.
#
# The report is a ratchet: scripts/dead_code_allowlist.txt lists, one
# demangled name per line, the functions known to be unreached. The
# script exits 1, naming each one, when a function off that list is
# unreached, so new dead code fails CI; a listed function that is
# reached again or deleted is named as stale, to be dropped from the
# list, without failing. Run from anywhere:
#
#   scripts/dead_code.sh              # build in a fresh temporary dir
#   scripts/dead_code.sh <build-dir>  # build (or reuse) <build-dir>
#
# The build configures perfbench/ as its source, which adds the whole
# repository as a subdirectory, so one tree holds the libraries, the
# benches, the examples and perfbench; nothing in the checkout is
# written.
set -euo pipefail
export LC_ALL=C # one collation for sort, comm and the committed list
root=$(cd "$(dirname "$0")/.." && pwd)
allowlist=$root/scripts/dead_code_allowlist.txt

owned=
if [[ $# -ge 1 ]]; then
    dir=$1
else
    dir=$(mktemp -d "${TMPDIR:-/tmp}/dead_code.XXXXXX")
    owned=$dir
fi
linked=$(mktemp)
unreached_all=$(mktemp)
trap 'rm -rf "$linked" "$unreached_all" ${owned:+"$owned"}' EXIT

cmake -S "$root/perfbench" -B "$dir" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    -DCMAKE_CXX_FLAGS="-fno-inline -ffunction-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null

binaries=(perfbench)
for src in "$root"/bench/bench_*.cc "$root"/examples/*.cpp; do
    name=$(basename "$src")
    binaries+=("${name%.*}")
done
cmake --build "$dir" -j"${JOBS:-$(nproc)}" --target "${binaries[@]}" \
    >/dev/null

# Every global text symbol some binary keeps after --gc-sections.
for name in "${binaries[@]}"; do
    nm --defined-only "$(find "$dir" -type f -name "$name" -perm -u+x)" |
        awk '$2 == "T" { print $3 }'
done | sort -u >"$linked"

total=0
dead=0
while IFS= read -r lib; do
    defined=$(nm --defined-only "$lib" 2>/dev/null |
                  awk '$2 == "T" { print $3 }' | sort -u)
    [[ -n "$defined" ]] || continue
    unreached=$(comm -23 <(printf '%s\n' "$defined") "$linked")
    n=$(printf '%s\n' "$defined" | wc -l)
    u=0
    [[ -z "$unreached" ]] || u=$(printf '%s\n' "$unreached" | wc -l)
    total=$((total + n))
    dead=$((dead + u))
    echo "$(basename "$lib" .a): $u of $n unreached"
    [[ -z "$unreached" ]] || printf '%s\n' "$unreached" | c++filt |
        tee -a "$unreached_all" | sed 's/^/    /'
done < <(find "$dir" -name 'libvs_*.a' | sort)
echo "total: $dead of $total out-of-line library functions unreached"

new=$(sort -u "$unreached_all" | comm -23 - <(sort -u "$allowlist"))
stale=$(sort -u "$allowlist" | comm -23 - <(sort -u "$unreached_all"))
if [[ -n "$stale" ]]; then
    echo "reached or deleted; drop from ${allowlist#"$root"/}:"
    printf '%s\n' "$stale" | sed 's/^/    /'
fi
if [[ -n "$new" ]]; then
    echo "unreached and not in ${allowlist#"$root"/}:"
    printf '%s\n' "$new" | sed 's/^/    /'
    exit 1
fi
