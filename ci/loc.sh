#!/usr/bin/env bash
# The four line counts a change reports, for the working tree:
#
#     ci/loc.sh                          # here, and in a checkout of the parent
#
# 1. non-test Rust in crates/ and src/: every line outside a
#    `#[cfg(test)]` item;
# 2. Rust tests: each `#[cfg(test)]` item — from the attribute to the `;`
#    that ends it or the `}` that closes its first brace block — every file
#    under a tests/ directory (crates/*/tests/, the root tests/) and test
#    modules kept in a file of their own (`tests.rs`);
# 3. shims/: every .rs line, counted apart from the first two;
# 4. docs: README.md, ROADMAP.md, CHANGES.md and benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

rust_files() { find "$@" -name '*.rs' -not -path '*/target/*' | sort; }

read -r code tests < <(rust_files crates src tests | xargs awk '
  # Walks a gated line for the brace or `;` that ends the item; braces and
  # semicolons inside strings, raw strings, char literals and line comments
  # do not count. A string may run on to the next line.
  function scan(line,   i, c, n) {
    n = length(line)
    for (i = 1; i <= n && gated; i++) {
      c = substr(line, i, 1)
      if (quoted) {
        if (c == "\\" && !hashes) i++
        else if (c == "\"" && substr(line, i + 1, hashes) == closing) { quoted = 0; i += hashes }
      } else if (c == "/" && substr(line, i + 1, 1) == "/") break
      else if (c == "\"") { quoted = 1; hashes = 0; closing = "" }
      else if (c == "r" && match(substr(line, i + 1), /^#*"/)) {
        quoted = 1; hashes = RLENGTH - 1; closing = substr(line, i + 1, hashes); i += RLENGTH
      } else if (c == "\047") {
        if (substr(line, i + 1, 1) == "\\") i += 1 + index(substr(line, i + 2), "\047")
        else if (substr(line, i + 2, 1) == "\047") i += 2
      } else if (c == "{") { depth++; opened = 1 }
      else if (c == "}") { if (--depth == 0 && opened) gated = 0 }
      else if (c == ";" && !opened) gated = 0
    }
  }
  FNR == 1 { test_file = (FILENAME ~ /(^|\/)tests\// || FILENAME ~ /\/tests\.rs$/); gated = 0 }
  !gated && /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; depth = 0; opened = 0; quoted = 0 }
  {
    if (test_file || gated) t++; else n++
    if (gated) scan($0)
  }
  END { print n + 0, t + 0 }')
shims=$(rust_files shims | xargs cat | wc -l)
docs=$(cat README.md ROADMAP.md CHANGES.md benchmark/README.md | wc -l)

echo "rust (crates/ + src/, non-test): $code"
echo "rust tests:                      $tests"
echo "shims/:                          $shims"
echo "docs:                            $docs"
