#!/usr/bin/env python3
"""Repo-local lint rules for finwork.

Rules (all scoped to keep the core library clean; tools/, examples/ and
bench/ are allowed to print):

  R1  no `#include <Eigen/...>` anywhere — the project has its own linalg
      layer and must not silently grow an Eigen dependency
  R2  every header under src/ starts with `#pragma once` (first
      non-comment, non-blank line)
  R3  no `std::cout` / `std::cerr` / `printf` in src/ — libraries report
      through return values and exceptions, not stdout.  The one exception
      is src/obs/: it is the designated reporting layer (trace export,
      perf records, text summaries), so it may talk to streams
  R4  no raw `new` / `delete` in src/ — containers and smart pointers only
  R5  no `apply_left_parallel` / `apply_parallel` in src/ outside
      src/linalg/sparse.{h,cpp} — every level action is the serial kernel
      (parallelism lives in the sweep fan-outs and the simulator); the
      pooled row-panel kernel survives only for the perfbench SpMV probe
  R6  no `.submit(` in src/ outside src/parallel/ — every pool dispatch
      goes through par::parallel_for, which waits for every chunk before it
      rethrows.  src/linalg/sparse.cpp is exempt while its pooled
      `apply_left_parallel` kernel (R5) survives
  R7  no pool dispatch in src/core/ or src/network/: no `parallel_for`,
      `ThreadPool` or `parallel/thread_pool.h` outside comments — every
      solver query and every level assembly runs on its calling thread, and
      the pool serves the sweeps and the simulator
  R8  no `.to_dense(` in src/ outside src/linalg/sparse.{h,cpp} — level
      operators stay sparse from assembly to factorization, so no model
      path holds a D x D buffer (tests and tools may densify)
  R9  the fault sites agree: the `fault_at("...")` probes in src/, the
      `kFaultSites` registry in src/check/fault_inject.cpp and the site rows
      of the table in docs/ROBUSTNESS.md §3 name the same sites, so no probe
      is unarmable, no registered site is dead and the docs list them all.
      A repository-wide rule: it runs when no paths are given
  R10 no `bicgstab_left(` / `gmres_left(` in src/ outside
      src/linalg/iterative.{h,cpp} — every Krylov solve goes through
      la::krylov_solve, so the library keeps one Krylov policy (tests,
      tools and the benchmark may call the stages directly)
  R11 no `std::call_once` / `std::once_flag` in src/ outside
      src/parallel/once_cell.h — every lazy build-once value is a
      par::OnceCell, which leaves the value unbuilt when its build throws so
      the next call builds again (std::call_once's retry after a throw
      hangs under ThreadSanitizer)

Usage:
  python3 tools/finwork_lint.py [paths...]

With no arguments, lints src/, tests/, tools/, bench/ and examples/ under
the repository root (the directory containing this script's parent) and
runs the repository-wide rule R9.
Exits 1 and prints `file:line: [rule] message` for each violation.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".cxx"}
HEADER_SUFFIXES = {".h", ".hpp"}

EIGEN_RE = re.compile(r'#\s*include\s*[<"]Eigen/')
STDOUT_RE = re.compile(r"\bstd::(cout|cerr)\b|\bprintf\s*\(")
# `new` as an allocation expression and `delete` as a deallocation
# statement; `delete` in `= delete` declarations is explicitly allowed.
RAW_NEW_RE = re.compile(r"\bnew\b\s+[A-Za-z_:<]")
RAW_DELETE_RE = re.compile(r"(?<![=\w])\s*\bdelete\b(\s*\[\s*\])?\s+[A-Za-z_]")
DELETED_FN_RE = re.compile(r"=\s*delete\b")
POOLED_SPMV_RE = re.compile(r"\bapply(_left)?_parallel\b")
SPARSE_FILES = {Path("src/linalg/sparse.h"), Path("src/linalg/sparse.cpp")}
SUBMIT_RE = re.compile(r"\.\s*submit\s*\(")
SUBMIT_EXEMPT = {Path("src/linalg/sparse.cpp")}
SERIAL_DIRS = {"core", "network"}
POOL_RE = re.compile(r"\bparallel_for\b|\bThreadPool\b")
POOL_INCLUDE_RE = re.compile(r'\s*#\s*include\s*"parallel/thread_pool\.h"')
DENSIFY_RE = re.compile(r"\.\s*to_dense\s*\(")
KRYLOV_STAGE_RE = re.compile(r"\b(bicgstab|gmres)_left\s*\(")
ITERATIVE_FILES = {Path("src/linalg/iterative.h"),
                   Path("src/linalg/iterative.cpp")}
CALL_ONCE_RE = re.compile(r"\bstd::(call_once|once_flag)\b")
ONCE_CELL_FILE = Path("src/parallel/once_cell.h")
# Matched against stripped code, where a string literal is its two quotes
# around blanks; the site name is read from the raw text at the same offsets.
BLANKED_LITERAL_RE = re.compile(r'" *"')
FAULT_PROBE_RE = re.compile(r'\bfault_at\s*\(\s*(" *")')
FAULT_REGISTRY = Path("src/check/fault_inject.cpp")
FAULT_REGISTRY_RE = re.compile(r"\bkFaultSites\s*=\s*\{")
ROBUSTNESS_DOC = Path("docs/ROBUSTNESS.md")
DOC_SITE_ROW_RE = re.compile(r"\|\s*`([^`]+)`\s*\|")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; bail to code
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def lint_file(path: Path, repo_root: Path) -> list[str]:
    rel = path.relative_to(repo_root)
    in_src = rel.parts[0] == "src"
    # src/obs/ is the observability sink — the only src/ code allowed to
    # address stdout/stderr directly (R3 exception; all other rules apply).
    in_obs = in_src and len(rel.parts) > 1 and rel.parts[1] == "obs"
    pooled_spmv_banned = in_src and rel not in SPARSE_FILES
    densify_banned = in_src and rel not in SPARSE_FILES
    krylov_banned = in_src and rel not in ITERATIVE_FILES
    call_once_banned = in_src and rel != ONCE_CELL_FILE
    in_parallel = in_src and len(rel.parts) > 1 and rel.parts[1] == "parallel"
    submit_banned = in_src and not in_parallel and rel not in SUBMIT_EXEMPT
    pool_banned = in_src and len(rel.parts) > 1 and \
        rel.parts[1] in SERIAL_DIRS
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{rel}:0: [io] unreadable: {exc}"]
    code = strip_comments_and_strings(raw)
    code_lines = code.split("\n")
    problems: list[str] = []

    raw_lines = raw.split("\n")  # line for line: stripping keeps newlines
    for lineno, line in enumerate(code_lines, start=1):
        if EIGEN_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [eigen-include] Eigen must not leak in; "
                "use the finwork linalg layer")
        if in_src and not in_obs and STDOUT_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [no-stdout] std::cout/std::cerr/printf "
                "is not allowed in src/ outside src/obs/ (tools/ and "
                "examples/ may print)")
        if in_src and RAW_NEW_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [raw-new] raw `new` in src/; use "
                "containers or std::make_unique/make_shared")
        if in_src and not DELETED_FN_RE.search(line) \
                and RAW_DELETE_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [raw-delete] raw `delete` in src/; use "
                "RAII owners instead")
        if pooled_spmv_banned and POOLED_SPMV_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [pooled-spmv] pooled CSR action in src/; "
                "level actions use the serial apply/apply_left kernels")
        if densify_banned and DENSIFY_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [no-densify] densified sparse matrix in "
                "src/; factor and apply level operators in sparse form")
        if krylov_banned and KRYLOV_STAGE_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [krylov-policy] direct Krylov stage call "
                "in src/; solve through la::krylov_solve")
        if call_once_banned and CALL_ONCE_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [once-cell] std::call_once/once_flag in "
                "src/; build lazy values through par::OnceCell")
        if submit_banned and SUBMIT_RE.search(line):
            problems.append(
                f"{rel}:{lineno}: [raw-submit] pool submit in src/ outside "
                "src/parallel/; dispatch through par::parallel_for")
        # The include's path is a string literal, blanked in `line`, so it
        # is matched on the raw line when the code line is a directive.
        if pool_banned and (POOL_RE.search(line) or (
                line.lstrip().startswith("#")
                and POOL_INCLUDE_RE.match(raw_lines[lineno - 1]))):
            problems.append(
                f"{rel}:{lineno}: [serial-pool] pool dispatch in "
                f"src/{rel.parts[1]}/; solver queries and level assembly "
                "run serially on the calling thread")

    if in_src and path.suffix in HEADER_SUFFIXES:
        first = next((ln.strip() for ln in code_lines if ln.strip()), "")
        if not first.startswith("#pragma once"):
            problems.append(
                f"{rel}:1: [pragma-once] headers in src/ must start with "
                "`#pragma once`")
    return problems


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_fault_sites(repo_root: Path) -> list[str]:
    """R9: probes in src/, the registry and the docs table name one set."""
    # site -> (file, line) of its first mention, per source.
    sources: dict[str, dict[str, tuple[Path, int]]] = {
        "fault_at probes in src/": {},
        f"kFaultSites in {FAULT_REGISTRY}": {},
        f"the site table of {ROBUSTNESS_DOC} §3": {},
    }
    probes, registry, docs = sources.values()
    problems: list[str] = []

    for path in collect_files([repo_root / "src"]):
        raw = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(raw)
        rel = path.relative_to(repo_root)
        for match in FAULT_PROBE_RE.finditer(code):
            site = raw[match.start(1) + 1:match.end(1) - 1]
            probes.setdefault(site, (rel, _line_of(raw, match.start())))

    registry_path = repo_root / FAULT_REGISTRY
    raw = registry_path.read_text(encoding="utf-8") \
        if registry_path.is_file() else ""
    code = strip_comments_and_strings(raw)
    start = FAULT_REGISTRY_RE.search(code)
    if start is None:
        problems.append(f"{FAULT_REGISTRY}:0: [fault-sites] no "
                        "`kFaultSites = {...}` registry found")
    else:
        end = code.find("}", start.end())
        for match in BLANKED_LITERAL_RE.finditer(code, start.end(), end):
            registry.setdefault(raw[match.start() + 1:match.end() - 1], (
                FAULT_REGISTRY, _line_of(raw, match.start())))

    doc_path = repo_root / ROBUSTNESS_DOC
    lines = doc_path.read_text(encoding="utf-8").split("\n") \
        if doc_path.is_file() else []
    in_section = False
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("## "):
            in_section = line.startswith("## 3.")
        elif in_section:
            row = DOC_SITE_ROW_RE.match(line)
            if row:
                docs.setdefault(row.group(1), (ROBUSTNESS_DOC, lineno))
    if not docs:
        problems.append(f"{ROBUSTNESS_DOC}:0: [fault-sites] no site table "
                        "found in §3")

    for site in sorted(set().union(*sources.values())):
        where = next(found[site] for found in sources.values()
                     if site in found)
        for name, found in sources.items():
            if site not in found:
                problems.append(
                    f"{where[0]}:{where[1]}: [fault-sites] fault site "
                    f"'{site}' is missing from {name}")
    return problems


def collect_files(roots: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            if root.suffix in CXX_SUFFIXES:
                files.append(root)
        elif root.is_dir():
            files.extend(
                p for p in sorted(root.rglob("*"))
                if p.suffix in CXX_SUFFIXES and p.is_file()
                and not any(part.startswith("build") for part in p.parts))
    return files


def main(argv: list[str]) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    if argv:
        roots = [Path(a).resolve() for a in argv]
        missing = [r for r in roots if not r.exists()]
        if missing:
            for r in missing:
                print(f"finwork_lint: no such path: {r}", file=sys.stderr)
            return 2
    else:
        roots = [repo_root / d
                 for d in ("src", "tests", "tools", "bench", "examples")]
    problems: list[str] = []
    checked = 0
    for path in collect_files(roots):
        checked += 1
        problems.extend(lint_file(path, repo_root))
    if not argv:
        problems.extend(check_fault_sites(repo_root))
    for p in problems:
        print(p)
    print(f"finwork_lint: {checked} files checked, "
          f"{len(problems)} problem(s)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
