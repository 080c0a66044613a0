#!/usr/bin/env bash
# The four line counts a change reports, for the working tree:
#
#     ci/loc.sh                          # here, and in a checkout of the parent
#
# 1. non-test Rust in crates/ and src/: each file up to its first
#    `#[cfg(test)]` line;
# 2. Rust tests: the rest of those files, every file under a tests/
#    directory (crates/*/tests/, the root tests/) and test modules kept in a
#    file of their own (`tests.rs`);
# 3. shims/: every .rs line, counted apart from the first two;
# 4. docs: README.md, ROADMAP.md, CHANGES.md and benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

rust_files() { find "$@" -name '*.rs' -not -path '*/target/*' | sort; }

read -r code tests < <(rust_files crates src tests | xargs awk '
  FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\// || FILENAME ~ /\/tests\.rs$/) }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  { if (in_test) t++; else n++ }
  END { print n + 0, t + 0 }')
shims=$(rust_files shims | xargs cat | wc -l)
docs=$(cat README.md ROADMAP.md CHANGES.md benchmark/README.md | wc -l)

echo "rust (crates/ + src/, non-test): $code"
echo "rust tests:                      $tests"
echo "shims/:                          $shims"
echo "docs:                            $docs"
