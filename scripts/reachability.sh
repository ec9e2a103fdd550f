#!/usr/bin/env bash
# Reachability gate: every out-of-line function that src/ defines must be
# reachable from a production binary — the bench drivers and examples of
# this tree, plus perfbench's sentbench — unless scripts/reachability.allow
# names it with a reason.
#
# It builds those binaries in build-reach/ at -O0 -fno-inline with one
# section per function and links them with --gc-sections, so the linker
# keeps exactly the functions some binary reaches. (At -O2 a function whose
# callers all inline it would be collected although it is used.) It then
# compares the type-T symbols of the libsent_*.a archives with the text
# symbols of the binaries. Header-inline functions and templates are weak
# symbols and out of scope.
#
# Fails (exit 1) on an unreached function that the allowlist does not name,
# and on an allowlist line whose function is reached or no longer defined.
#
#   JOBS=4 scripts/reachability.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
TREE=build-reach
ALLOW=scripts/reachability.allow
FLAGS="-O0 -fno-inline -ffunction-sections -DNDEBUG"
CONFIG=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
  "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=${FLAGS}"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

mapfile -t BENCHES < <(sed -n 's/^sent_bench(\([A-Za-z0-9_]*\)[ )].*/\1/p' \
  bench/CMakeLists.txt)
mapfile -t EXAMPLES < <(sed -n 's/^sent_example(\([A-Za-z0-9_]*\)[ )].*/\1/p' \
  examples/CMakeLists.txt)

cmake -B "${TREE}" -S . "${CONFIG[@]}" > /dev/null
cmake --build "${TREE}" -j "${JOBS}" --target "${BENCHES[@]}" "${EXAMPLES[@]}"
cmake -B "${TREE}/perfbench" -S perfbench "${CONFIG[@]}" > /dev/null
cmake --build "${TREE}/perfbench" -j "${JOBS}" --target sentbench

BINARIES=("${BENCHES[@]/#/${TREE}/bench/}" "${EXAMPLES[@]/#/${TREE}/examples/}"
  "${TREE}/perfbench/sentbench")

# nm prints "<16-digit address> <type> <name>"; the name starts at column 20.
defined=$(nm -C --defined-only "${TREE}"/src/libsent_*.a |
  awk '$2 == "T"' | cut -c20- | sort -u)
reached=$(for bin in "${BINARIES[@]}"; do
  nm -C --defined-only "${bin}" | awk '$2 ~ /^[TtWw]$/' | cut -c20-
done | sort -u)
# Allowlist lines read "<demangled name> # <reason>".
allowed=$(sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' \
  -e 's/[[:space:]]*#.*$//' "${ALLOW}" | sort -u)

unreached=$(comm -23 <(echo "${defined}") <(echo "${reached}"))
status=0
while IFS= read -r name; do
  [ -n "${name}" ] || continue
  echo "reachability: no production binary reaches ${name}" >&2
  status=1
done < <(comm -23 <(echo "${unreached}") <(echo "${allowed}"))
while IFS= read -r name; do
  [ -n "${name}" ] || continue
  if grep -qxF -- "${name}" <<< "${defined}"; then
    echo "reachability: stale allowlist line, now reached: ${name}" >&2
  else
    echo "reachability: stale allowlist line, not defined: ${name}" >&2
  fi
  status=1
done < <(comm -13 <(echo "${unreached}") <(echo "${allowed}"))

echo "reachability: $(grep -c . <<< "${defined}") out-of-line src/ functions," \
  "${#BINARIES[@]} binaries, $(grep -c . <<< "${unreached}") unreached," \
  "$(grep -c . <<< "${allowed}") allowlisted"
if [ "${status}" -ne 0 ]; then
  echo "reachability: FAILED" >&2
  exit 1
fi
echo "reachability OK"
