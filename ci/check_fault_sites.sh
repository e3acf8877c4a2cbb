#!/usr/bin/env bash
# Fails when src/ plants a fault-injection site that no test arms.
#
# A site is planted with FAULT_POINT("name") or ShouldInject("name", ...)
# outside a comment; a test arms it with FaultRegistry::Arm("name", ...)
# or a scoped ArmedFault guard("name", ...) under tests/. An unarmed site
# is recovery code nothing exercises, so it must get a test or go.
#
#   ci/check_fault_sites.sh

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

sites=$(grep -rhE '(FAULT_POINT|ShouldInject)\("[^"]+"' "$ROOT/src" \
          | grep -vE '^[[:space:]]*//' \
          | grep -oE '(FAULT_POINT|ShouldInject)\("[^"]+"' \
          | sed -E 's/.*\("([^"]+)"/\1/' | sort -u)
if [ -z "$sites" ]; then
  echo "check_fault_sites: no fault sites found under src/" >&2
  exit 1
fi

missing=0
for site in $sites; do
  pattern="(\\.Arm|ArmedFault +[A-Za-z_]+)\\(\"${site//./\\.}\""
  if grep -rqE "$pattern" "$ROOT/tests"; then
    echo "armed:   $site"
  else
    echo "UNARMED: $site (planted in src/, armed by no test)" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "check_fault_sites: FAILED" >&2
  exit 1
fi
echo "check_fault_sites: OK — every planted site is armed by a test"
