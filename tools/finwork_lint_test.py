#!/usr/bin/env python3
"""Self-test for tools/finwork_lint.py.

Builds a throwaway tree with one known violation per rule plus the cases
that must NOT fire (src/obs/ stream access, `= delete` declarations,
prints under tools/, the pooled SpMV kernel and densification in
src/linalg/sparse.cpp, pool submits in src/parallel/, pool dispatch in
the src/cluster/ sweeps, densification in tests/, the Krylov stages in
src/linalg/iterative.cpp and in tests/, once-flags in the cell's header and
in tests/), runs the linter in-process, and checks that exactly the
expected rule tags fire on the expected files.  The repository-wide rule R9 runs on two more trees: one
whose fault sites agree and one with a dead, an unregistered and an
undocumented site.

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
    "src/cluster/bad_spmv.cpp": (
        "// apply_left_parallel in a comment is fine\n"
        "Vector f(const CsrMatrix& a, const Vector& x, ThreadPool& pool) {\n"
        "  return a.apply_left_parallel(x, pool);\n"
        "}\n"
        "Vector g(const CsrMatrix& a, const Vector& x, ThreadPool& pool) {\n"
        "  return a.apply_parallel(x, pool);\n"
        "}\n"
    ),
    # R5 negative: the sparse kernel itself defines it (and, R6 negative,
    # may still submit its row panels).
    "src/linalg/sparse.cpp": (
        "Vector CsrMatrix::apply_left_parallel(const Vector& x,\n"
        "                                      ThreadPool& pool) const {\n"
        "  auto f = pool.submit([] {});\n"
        "}\n"
        "Matrix densify(const CsrMatrix& a) { return a.to_dense(); }\n"
    ),
    # R8: a level operator densified in src/; the comment and string
    # mentions must not fire.
    "src/core/bad_densify.cpp": (
        "// lm.p.to_dense() in a comment is fine\n"
        "void f(const LevelMatrices& lm) {\n"
        "  la::Matrix a = lm.p.to_dense();\n"
        "  const char* s = \"p.to_dense()\";\n"
        "  la::Matrix b = space_.level(k).p\n"
        "                     .to_dense();\n"
        "}\n"
    ),
    # R8 negative: tests densify small operators for their oracles.
    "tests/good_densify_test.cpp": (
        "la::Matrix oracle(const CsrMatrix& p) { return p.to_dense(); }\n"
    ),
    # R6: a raw pool submit in src/ outside src/parallel/; the comment
    # mention must not fire.
    "src/network/bad_submit.cpp": (
        "// pool.submit(task) in a comment is fine\n"
        "void f(ThreadPool& pool) {\n"
        "  auto fut = pool.submit([] { return 1; });\n"
        "  auto g = ThreadPool::global()\n"
        "               .submit([] {});\n"
        "}\n"
    ),
    # R7: pool dispatch in src/core/ — the include and a parallel_for call;
    # the comment, block-comment and string mentions must not fire.
    "src/core/bad_pool.cpp": (
        "// parallel_for and ThreadPool in a comment are fine\n"
        "/*\n"
        "#include \"parallel/thread_pool.h\"\n"
        "*/\n"
        "#include \"parallel/thread_pool.h\"\n"
        "void f() {\n"
        "  par::parallel_for(par::ThreadPool::global(), 0, 8, [](int) {});\n"
        "}\n"
        "const char* name = \"ThreadPool\";\n"
    ),
    # R7: level assembly in src/network/ dispatches to the pool.
    "src/network/bad_fan_out.cpp": (
        "#include \"parallel/thread_pool.h\"\n"
        "void g() {\n"
        "  par::parallel_for(par::ThreadPool::global(), 0, 8, [](int) {});\n"
        "}\n"
    ),
    # R7 negative: the sweeps in src/cluster/ fan out.
    "src/cluster/good_fan_out.cpp": (
        "#include \"parallel/thread_pool.h\"\n"
        "void g() {\n"
        "  par::parallel_for(par::ThreadPool::global(), 0, 8, [](int) {});\n"
        "}\n"
    ),
    # R6 negative: the pool itself submits.
    "src/parallel/good_pool.cpp": (
        "void run(ThreadPool& pool) { (void)pool.submit([] {}); }\n"
    ),
    # R6 negative: outside src/ (tests, tools) submits freely.
    "tests/good_submit_test.cpp": (
        "void t(ThreadPool& pool) { (void)pool.submit([] {}); }\n"
    ),
    # R10: Krylov stages called directly in src/; the comment and string
    # mentions must not fire.
    "src/core/bad_krylov.cpp": (
        "// bicgstab_left(op, b) in a comment is fine\n"
        "Vector f(const RowOperator& op, const Vector& b) {\n"
        "  IterativeResult r = la::bicgstab_left(op, b, 1e-12);\n"
        "  const char* s = \"gmres_left(\";\n"
        "  return la::gmres_left (op, b).x;\n"
        "}\n"
    ),
    # R10 negative: the Krylov policy itself runs both stages, and tests
    # call them directly.
    "src/linalg/iterative.cpp": (
        "IterativeResult krylov_solve(const RowOperator& op,\n"
        "                             const Vector& b) {\n"
        "  IterativeResult res = bicgstab_left(op, b);\n"
        "  return res.converged ? res : gmres_left(op, b);\n"
        "}\n"
    ),
    "tests/good_krylov_test.cpp": (
        "auto r = la::gmres_left(op, b, 1e-12, 100, 30);\n"
    ),
    # R11: a once-flag in src/; the comment and string mentions must not
    # fire.
    "src/core/bad_once.cpp": (
        "// std::call_once in a comment is fine\n"
        "std::once_flag flag;\n"
        "const char* s = \"std::call_once\";\n"
        "void f() { std::call_once(flag, [] {}); }\n"
    ),
    # R11 negative: the cell's own header, and tests, may name them.
    "src/parallel/once_cell.h": (
        "#pragma once\n"
        "#include <mutex>\n"
        "static_assert(sizeof(std::once_flag) > 0);\n"
    ),
    "tests/good_once_test.cpp": (
        "std::once_flag flag;\n"
        "void t() { std::call_once(flag, [] {}); }\n"
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
    ("src/cluster/bad_spmv.cpp:3", "[pooled-spmv]"),
    ("src/cluster/bad_spmv.cpp:6", "[pooled-spmv]"),
    ("src/network/bad_submit.cpp:3", "[raw-submit]"),
    ("src/network/bad_submit.cpp:5", "[raw-submit]"),
    ("src/network/bad_submit.cpp:2", "[serial-pool]"),
    ("src/network/bad_submit.cpp:4", "[serial-pool]"),
    ("src/core/bad_pool.cpp:5", "[serial-pool]"),
    ("src/core/bad_pool.cpp:7", "[serial-pool]"),
    ("src/network/bad_fan_out.cpp:1", "[serial-pool]"),
    ("src/network/bad_fan_out.cpp:3", "[serial-pool]"),
    ("src/core/bad_densify.cpp:3", "[no-densify]"),
    ("src/core/bad_densify.cpp:6", "[no-densify]"),
    ("src/core/bad_krylov.cpp:3", "[krylov-policy]"),
    ("src/core/bad_krylov.cpp:5", "[krylov-policy]"),
    ("src/core/bad_once.cpp:2", "[once-cell]"),
    ("src/core/bad_once.cpp:4", "[once-cell]"),
]

# Files that must produce no findings at all.
CLEAN = [
    "src/obs/good_sink.cpp",
    "tools/good_tool.cpp",
    "src/core/good_header.h",
    "src/linalg/sparse.cpp",
    "src/parallel/good_pool.cpp",
    "tests/good_submit_test.cpp",
    "src/cluster/good_fan_out.cpp",
    "tests/good_densify_test.cpp",
    "src/linalg/iterative.cpp",
    "tests/good_krylov_test.cpp",
    "src/parallel/once_cell.h",
    "tests/good_once_test.cpp",
]


# R9: a tree whose probes, registry and docs table agree.  The quoted
# names in comments, outside §3 and in the header row must not count.
FAULT_SITE_TREE = {
    "src/check/fault_inject.cpp": (
        "constexpr std::array<std::string_view, 2> kFaultSites = {\n"
        "    \"lu/factorize\",   // \"ghost/site\" in a comment\n"
        "    \"ladder/rescue\",\n"
        "};\n"
        "const char* other = \"not/a/site\";\n"
    ),
    "src/linalg/lu.cpp": (
        "// fault_at(\"ghost/site\") in a comment is fine\n"
        "void f() { if (check::fault_at(\"lu/factorize\")) return; }\n"
    ),
    "src/core/ladder.cpp": (
        "void g() {\n"
        "  if (!check::fault_at( \"ladder/rescue\")) return;\n"
        "}\n"
    ),
    "docs/ROBUSTNESS.md": (
        "## 2. Ladder\n"
        "| `ghost/site` | a table outside section 3 |\n"
        "## 3. Fault injection\n"
        "| site | forces |\n"
        "|---|---|\n"
        "| `lu/factorize` | a singular factor |\n"
        "| `ladder/rescue` | a failed rescue |\n"
        "## 4. Tests\n"
        "| `other/row` | z |\n"
    ),
}

# R9 failures: the registry gains a site no probe fires, a probe names a
# site the registry lacks, and the docs drop a row.
FAULT_SITE_BREAKS = {
    "src/check/fault_inject.cpp": (
        "constexpr std::array<std::string_view, 3> kFaultSites = {\n"
        "    \"lu/factorize\",\n"
        "    \"ladder/rescue\",\n"
        "    \"dead/site\",\n"
        "};\n"
    ),
    "src/network/probe.cpp": (
        "void h() { if (check::fault_at(\"unregistered/site\")) return; }\n"
    ),
    "docs/ROBUSTNESS.md": (
        "## 3. Fault injection\n"
        "| site | forces |\n"
        "|---|---|\n"
        "| `lu/factorize` | a singular factor |\n"
        "| `dead/site` | nothing |\n"
    ),
}

# (site, the source it is missing from) for every R9 finding on the broken
# tree.
FAULT_SITE_EXPECTED = [
    ("'dead/site'", "fault_at probes"),
    ("'unregistered/site'", "kFaultSites"),
    ("'unregistered/site'", "site table"),
    ("'ladder/rescue'", "site table"),
]


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def check_fault_site_rule(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(prefix="finwork_lint_test_") as tmp:
        root = Path(tmp)
        write_tree(root, FAULT_SITE_TREE)
        problems = finwork_lint.check_fault_sites(root)
        if problems:
            failures.append(f"expected no R9 findings, got {problems}")

        write_tree(root, FAULT_SITE_BREAKS)
        problems = finwork_lint.check_fault_sites(root)
        for site, source in FAULT_SITE_EXPECTED:
            hits = [p for p in problems
                    if "[fault-sites]" in p and site in p and source in p]
            if len(hits) != 1:
                failures.append(f"expected exactly one R9 finding for {site} "
                                f"missing from {source}, got {hits}")
        if len(problems) != len(FAULT_SITE_EXPECTED):
            failures.append(
                f"expected {len(FAULT_SITE_EXPECTED)} R9 findings, got "
                f"{len(problems)}: {problems}")


def main() -> int:
    failures: list[str] = []
    check_fault_site_rule(failures)
    with tempfile.TemporaryDirectory(prefix="finwork_lint_test_") as tmp:
        root = Path(tmp)
        write_tree(root, FIXTURES)

        problems: list[str] = []
        for path in finwork_lint.collect_files(
                [root / "src", root / "tools", root / "tests"]):
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
