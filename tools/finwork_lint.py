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
      (parallelism lives in the sweep, block and level-build fan-outs); the
      pooled row-panel kernel survives only for the perfbench SpMV probe

Usage:
  python3 tools/finwork_lint.py [paths...]

With no arguments, lints src/, tests/, tools/, bench/ and examples/ under
the repository root (the directory containing this script's parent).
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
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{rel}:0: [io] unreadable: {exc}"]
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    problems: list[str] = []

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

    if in_src and path.suffix in HEADER_SUFFIXES:
        first = next((ln.strip() for ln in code_lines if ln.strip()), "")
        if not first.startswith("#pragma once"):
            problems.append(
                f"{rel}:1: [pragma-once] headers in src/ must start with "
                "`#pragma once`")
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
    for p in problems:
        print(p)
    print(f"finwork_lint: {checked} files checked, "
          f"{len(problems)} problem(s)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
