#!/usr/bin/env bash
# Fails when src/ reads an environment variable outside the allow-list.
#
# Every env knob is a second way to configure the library, and one that
# no test sweeps by default. The library reads exactly these two; a new
# one must earn its place here, not slip in beside a getenv call.
#
#   ci/check_env_knobs.sh

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ALLOWED="EXPLAINTI_MIN_LOG_SEVERITY EXPLAINTI_NUM_THREADS"

# Every getenv/secure_getenv call outside a comment, as file:line:text.
calls=$(grep -rnE 'getenv[[:space:]]*\(' "$ROOT/src" \
          | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)

bad=0
while IFS=: read -r file line text; do
  [ -z "$file" ] && continue
  where="${file#"$ROOT/"}:$line"
  name=$(printf '%s\n' "$text" \
           | sed -nE 's/.*getenv[[:space:]]*\([[:space:]]*"([^"]+)".*/\1/p')
  if [ -z "$name" ]; then
    echo "UNCHECKED: $where reads a non-literal env name" >&2
    bad=1
  elif [[ " $ALLOWED " == *" $name "* ]]; then
    echo "allowed:     $name ($where)"
  else
    echo "NOT ALLOWED: $name ($where)" >&2
    bad=1
  fi
done <<< "$calls"

if [ "$bad" -ne 0 ]; then
  echo "check_env_knobs: FAILED — src/ may read only $ALLOWED" >&2
  exit 1
fi
echo "check_env_knobs: OK — src/ reads only $ALLOWED"
