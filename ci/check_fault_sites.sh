#!/usr/bin/env bash
# Fails when src/ plants a fault-injection site that no test arms, or
# plants one whose name is not a string literal.
#
# A site is planted with FAULT_POINT("name"), ShouldInject("name", ...)
# or InjectionPoint("name") outside a comment; a test arms it with
# FaultRegistry::Arm("name", ...) or a scoped ArmedFault guard("name",
# ...) under tests/. An unarmed site is recovery code nothing exercises,
# so it must get a test or go. A name passed in as a parameter would
# escape that check, so every call outside the definitions in
# util/fault_injection.* must name its site with a literal.
#
#   ci/check_fault_sites.sh

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CALL='(FAULT_POINT|ShouldInject|InjectionPoint)[[:space:]]*\('

# Every call outside a comment and outside the definitions, as
# file:line:text; any whose first argument is not a literal fails.
nonliteral=$(grep -rnE "$CALL" "$ROOT/src" --exclude='fault_injection.*' \
               | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
               | grep -vE "$CALL[[:space:]]*\"" || true)
if [ -n "$nonliteral" ]; then
  while IFS= read -r call; do
    echo "NON-LITERAL: ${call#"$ROOT/"}" >&2
  done <<< "$nonliteral"
  echo "check_fault_sites: FAILED — name every site with a string literal" >&2
  exit 1
fi

literal="$CALL[[:space:]]*\"[^\"]+\""
sites=$(grep -rhE "$literal" "$ROOT/src" \
          | grep -vE '^[[:space:]]*//' \
          | grep -oE "$literal" \
          | sed -E 's/.*"([^"]+)"/\1/' | sort -u)
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
