#!/usr/bin/env bash
# codelines.sh — prints the number of non-blank, non-comment lines of
# non-test Go code under internal/ and cmd/, the size a simplicity change
# reports before and after. A line whose first non-blank characters are
# // counts as a comment; block comments and trailing comments count as
# code.
#
#   bash scripts/codelines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat |
  grep -v '^\s*$' | grep -v '^\s*//' | wc -l
