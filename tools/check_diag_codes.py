#!/usr/bin/env python3
"""Drift check for the diagnostic-code vocabulary.

Cross-checks three sources of truth that historically rot apart:

  1. the DiagCode enum in src/analysis/diagnostics.h (the vocabulary),
  2. the code table in DESIGN.md (the documentation),
  3. the golden corpus in tests/lint_corpus/ (the behaviour pins).

Checks:
  * enum codes are unique (no constant reuses a code number);
  * every enum code appears in DESIGN.md's code table (single rows like
    `| W204 |` or ranges like `| E101–E109 |`);
  * every code the DESIGN.md table mentions exists in the enum (stale
    docs fail too);
  * every analyzer-emitted code appears in at least one
    tests/lint_corpus/*.expected golden. Codes the analyzer cannot emit
    on a source file (runtime/ingest/server codes, and shapes the parser
    rejects before analysis) are listed in EXEMPT with a reason;
  * every EXEMPT entry names a code in the enum (a deleted code's
    exemption fails too).

Run from the repository root (CI runs it in the lint-smoke job, and
`ctest -L lint` runs it as the check_diag_codes test):
    python3 tools/check_diag_codes.py
"""

import glob
import os
import re
import sys

# Codes with no lint-corpus fixture, each with the reason the analyzer
# cannot produce it from a model file. Adding a code here is a reviewed
# decision, not a silent skip.
EXEMPT = {
    "E107": "parser rejects a query without PATTERN before analysis",
    "E108": "parser rejects a processing query without DERIVE first",
    "P301": "needs > context-bitvector-width contexts; corpus keeps "
            "fixtures human-readable (covered by analysis_test)",
    "I402": "runtime ingest quarantine code (fault-injection suite)",
    "I403": "runtime ingest quarantine code (fault-injection suite)",
    "I404": "runtime ingest quarantine code (fault-injection suite)",
    "I405": "runtime ingest quarantine code (fault-injection suite)",
    "I406": "runtime ingest quarantine code (fault-injection suite)",
    "I420": "server backpressure code (caesard_test)",
    "I421": "server unknown-tenant code (caesard_test)",
    "I422": "server duplicate-tenant code (caesard_test)",
    "I423": "server bad-frame code (caesard_test)",
    "I424": "server admission code (caesard_test)",
}

CODE_RE = re.compile(r"\bk([CEWPI]\d{3})[A-Z]")
# `| W204 |` single row, or `| E101–E109 |` range row (en dash or ASCII -).
TABLE_RE = re.compile(
    r"^\|\s*([CEWPI])(\d{3})(?:\s*[–-]\s*(?:[CEWPI])?(\d{3}))?\s*\|")


def fail(errors):
    for e in errors:
        print(f"check_diag_codes: {e}", file=sys.stderr)
    print(f"check_diag_codes: FAILED ({len(errors)} problem(s))",
          file=sys.stderr)
    return 1


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    errors = []

    header = os.path.join(root, "src", "analysis", "diagnostics.h")
    with open(header, encoding="utf-8") as f:
        header_text = f.read()
    # Only the enum body: mentions elsewhere (default initializers,
    # comments) are uses, not declarations.
    enum_match = re.search(r"enum class DiagCode[^{]*\{(.*?)\};",
                           header_text, re.DOTALL)
    if not enum_match:
        return fail([f"no DiagCode enum found in {header}"])
    enum_codes = CODE_RE.findall(enum_match.group(1))
    if not enum_codes:
        return fail([f"no diagnostic codes found in {header}"])

    seen = set()
    duplicates = set()
    for code in enum_codes:
        if code in seen:
            duplicates.add(code)
        seen.add(code)
    for code in sorted(duplicates):
        errors.append(f"code {code} is declared more than once in "
                      f"src/analysis/diagnostics.h")
    codes = sorted(seen)

    design = os.path.join(root, "DESIGN.md")
    documented = set()
    with open(design, encoding="utf-8") as f:
        for line in f:
            m = TABLE_RE.match(line.strip())
            if not m:
                continue
            prefix, lo, hi = m.group(1), int(m.group(2)), m.group(3)
            hi = int(hi) if hi else lo
            for n in range(lo, hi + 1):
                documented.add(f"{prefix}{n:03d}")
    if not documented:
        return fail([f"no code table found in {design}"])

    for code in codes:
        if code not in documented:
            errors.append(f"code {code} is missing from the DESIGN.md "
                          f"code table")
    for code in sorted(documented - seen):
        errors.append(f"DESIGN.md documents {code}, which is not in the "
                      f"DiagCode enum (stale row?)")

    corpus = glob.glob(os.path.join(root, "tests", "lint_corpus",
                                    "*.expected"))
    if not corpus:
        return fail(["no goldens under tests/lint_corpus/"])
    pinned = set()
    for path in corpus:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for code in codes:
            if f"[{code}]" in text:
                pinned.add(code)

    for code in sorted(set(EXEMPT) - seen):
        errors.append(f"code {code} is EXEMPT but not in the DiagCode enum "
                      f"— remove the exemption")
    for code in codes:
        if code in pinned and code in EXEMPT:
            errors.append(f"code {code} is EXEMPT but has a lint_corpus "
                          f"golden — remove the exemption")
        elif code not in pinned and code not in EXEMPT:
            errors.append(f"code {code} has no tests/lint_corpus/*.expected "
                          f"golden (add a fixture or an EXEMPT entry)")

    if errors:
        return fail(errors)
    print(f"check_diag_codes: OK ({len(codes)} codes, "
          f"{len(pinned)} pinned by goldens, {len(EXEMPT)} exempt)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
