#!/usr/bin/env python3
"""CI gate (ctest: switch_check): every bool switch in the parameter
structs is set by a program, not only by tests.

A `bool` member of the structs in include/vmmc/params.h selects between
two code paths. If nothing under bench/, examples/, perfbench/ or src/
(params.h itself aside) ever assigns it, only tests flip it and the path
it guards runs in no workload: delete the switch and the path instead.

A switch is named by its full member path from `Params`, e.g.
`vmmc.regcache.enabled`, and counts as set only where that whole path is
assigned, so setting `vmmc.regcache.enabled` does not count for another
struct's `enabled`. Comments are ignored on both sides.

Usage:
  check_switches.py [--root DIR] [--params FILE]

Exits 0 when every switch is set somewhere, 1 after listing the ones that
are not, 2 when it finds no switch under `Params` at all.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

SCAN_DIRS = ("bench", "examples", "perfbench", "src")
SOURCE_EXTS = (".cpp", ".cc", ".h", ".hpp")

STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\s*\{")
MEMBER_RE = re.compile(r"^\s*([\w:]+)\s+(\w+)\s*(?:=[^;]*|\{[^;]*\})?$", re.S)


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments, keeping every newline (so offsets
    still map to the original line numbers)."""
    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))
    return re.sub(r"//[^\n]*|/\*.*?\*/", blank, text, flags=re.S)


def parse_structs(text: str) -> dict[str, list[tuple[str, str, int]]]:
    """struct name -> [(type, member, line)] for its data members."""
    structs: dict[str, list[tuple[str, str, int]]] = {}
    for m in STRUCT_RE.finditer(text):
        depth, i = 1, m.end()
        members = []
        stmt_start = i
        while i < len(text) and depth > 0:
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
            elif c == ";" and depth == 1:
                stmt = text[stmt_start:i]
                mm = MEMBER_RE.match(stmt)
                if mm and "(" not in stmt:
                    line = text.count("\n", 0, stmt_start + mm.start(2)) + 1
                    members.append((mm.group(1), mm.group(2), line))
                stmt_start = i + 1
            i += 1
        structs[m.group(1)] = members
    return structs


def switch_paths(structs) -> list[tuple[str, int]]:
    """(full member path from Params, line) of every bool switch."""
    out: list[tuple[str, int]] = []

    def walk(name: str, prefix: str) -> None:
        for typ, member, line in structs.get(name, []):
            path = prefix + member
            if typ == "bool":
                out.append((path, line))
            elif typ in structs:
                walk(typ, path + ".")

    walk("Params", "")
    return out


def assignment_re(path: str) -> re.Pattern:
    parts = [re.escape(p) for p in path.split(".")]
    return re.compile(r"\b" + r"\s*\.\s*".join(parts) + r"\s*=(?!=)")


def scanned_sources(root: str, params: str) -> list[str]:
    files = []
    for sub in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, sub)):
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                if fn.endswith(SOURCE_EXTS) and not os.path.samefile(path, params):
                    files.append(path)
    return sorted(files)


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(here))
    ap.add_argument("--params", default=None,
                    help="parameter header (default: ROOT/include/vmmc/params.h)")
    args = ap.parse_args(argv)
    params = args.params or os.path.join(args.root, "include", "vmmc", "params.h")

    with open(params, encoding="utf-8") as f:
        switches = switch_paths(parse_structs(strip_comments(f.read())))
    if not switches:
        print(f"check_switches: no bool switch found under Params in {params}",
              file=sys.stderr)
        return 2

    sources = []
    for path in scanned_sources(args.root, params):
        with open(path, encoding="utf-8", errors="replace") as f:
            sources.append(strip_comments(f.read()))

    unset = sorted((line, path) for path, line in switches
                   if not any(assignment_re(path).search(s) for s in sources))
    rel = os.path.relpath(params, args.root)
    for line, path in unset:
        print(f"{rel}:{line}: switch '{path}' is set nowhere under "
              f"{', '.join(SCAN_DIRS)}: only tests can flip it")
    print(f"check_switches: {len(switches)} switches, {len(unset)} never set")
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
