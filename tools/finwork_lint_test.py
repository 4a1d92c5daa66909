#!/usr/bin/env python3
"""Self-test for tools/finwork_lint.py.

Builds a throwaway tree with one known violation per rule plus the cases
that must NOT fire (src/obs/ stream access, `= delete` declarations,
prints under tools/, the pooled SpMV kernel in src/linalg/sparse.cpp), runs the linter in-process, and checks that exactly
the expected rule tags fire on the expected files.

Run directly or via ctest (registered as `lint_selftest`).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import finwork_lint  # noqa: E402


FIXTURES = {
    # R3: stream access in plain src/ code must fire ...
    "src/core/bad_print.cpp": (
        "#include <iostream>\n"
        "void report() { std::cerr << \"oops\\n\"; }\n"
        "void log2() { printf(\"%d\", 1); }\n"
    ),
    # ... but src/obs/ is whitelisted for R3 (and only R3).
    "src/obs/good_sink.cpp": (
        "#include <iostream>\n"
        "void drain() { std::cout << \"spans\\n\"; std::cerr << \"x\\n\"; }\n"
    ),
    # tools/ may always print.
    "tools/good_tool.cpp": (
        "#include <cstdio>\n"
        "int main() { printf(\"hello\\n\"); }\n"
    ),
    # R2: header without #pragma once.
    "src/core/bad_header.h": (
        "// missing the pragma\n"
        "struct S {};\n"
    ),
    # R2 negative: comment then pragma is fine.
    "src/core/good_header.h": (
        "// leading comment is allowed\n"
        "#pragma once\n"
        "struct T {};\n"
    ),
    # R1: Eigen include anywhere.
    "src/linalg/bad_eigen.cpp": (
        "#include <Eigen/Dense>\n"
    ),
    # R4: raw new/delete; `= delete` and comments must not fire.
    "src/core/bad_alloc.cpp": (
        "struct P { P(const P&) = delete; };\n"
        "// new Thing() in a comment is fine\n"
        "int* leak() { return new int(7); }\n"
        "void free2(int* p) { delete p; }\n"
    ),
    # R5: a pooled CSR action in src/ outside the sparse kernel files; the
    # comment mention must not fire.
    "src/core/bad_spmv.cpp": (
        "// apply_left_parallel in a comment is fine\n"
        "Vector f(const CsrMatrix& a, const Vector& x, ThreadPool& pool) {\n"
        "  return a.apply_left_parallel(x, pool);\n"
        "}\n"
        "Vector g(const CsrMatrix& a, const Vector& x, ThreadPool& pool) {\n"
        "  return a.apply_parallel(x, pool);\n"
        "}\n"
    ),
    # R5 negative: the sparse kernel itself defines it.
    "src/linalg/sparse.cpp": (
        "Vector CsrMatrix::apply_left_parallel(const Vector& x,\n"
        "                                      ThreadPool& pool) const;\n"
    ),
}

# (substring of the fixture path, rule tag) pairs that must each appear
# exactly once in the linter output.
EXPECTED = [
    ("src/core/bad_print.cpp:2", "[no-stdout]"),
    ("src/core/bad_print.cpp:3", "[no-stdout]"),
    ("src/core/bad_header.h:1", "[pragma-once]"),
    ("src/linalg/bad_eigen.cpp:1", "[eigen-include]"),
    ("src/core/bad_alloc.cpp:3", "[raw-new]"),
    ("src/core/bad_alloc.cpp:4", "[raw-delete]"),
    ("src/core/bad_spmv.cpp:3", "[pooled-spmv]"),
    ("src/core/bad_spmv.cpp:6", "[pooled-spmv]"),
]

# Files that must produce no findings at all.
CLEAN = [
    "src/obs/good_sink.cpp",
    "tools/good_tool.cpp",
    "src/core/good_header.h",
    "src/linalg/sparse.cpp",
]


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="finwork_lint_test_") as tmp:
        root = Path(tmp)
        for rel, text in FIXTURES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

        problems: list[str] = []
        for path in finwork_lint.collect_files([root / "src", root / "tools"]):
            problems.extend(finwork_lint.lint_file(path, root))

        for prefix, tag in EXPECTED:
            hits = [p for p in problems if prefix in p and tag in p]
            if len(hits) != 1:
                failures.append(
                    f"expected exactly one {tag} at {prefix}, got {hits}")
        for rel in CLEAN:
            hits = [p for p in problems if rel in p]
            if hits:
                failures.append(f"expected no findings for {rel}, got {hits}")
        expected_total = len(EXPECTED)
        if len(problems) != expected_total:
            failures.append(
                f"expected {expected_total} findings total, got "
                f"{len(problems)}: {problems}")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("finwork_lint_test: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
