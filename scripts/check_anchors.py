#!/usr/bin/env python3
"""CI gate (ctest: anchor_check): every source anchor in the docs still
points at the code it names.

An anchor is `path:N` (the file at `path`, line N; `path` may be repo-
relative or a bare file name that is unique in the tree) or a bare `:N`,
which means line N of the nearest path written before it in the same
document. Each anchor carries the
identifier it points at, written next to it on the same line: right
before it (`` `Enqueue`:108 ``, `StartSend :442`) or, when no name
stands there, right after it (``(src/vmmc/lcp.cpp:269 `VmmcLcp::Run`)``).
Only spaces and backticks may separate the two. The anchor holds while
the identifier appears as a whole word on line N; otherwise it went
stale when the code moved, or was never written with a name.

Usage:
  check_anchors.py [--root DIR] [DOC ...]

DOC defaults to ARCHITECTURE.md and ROADMAP.md under the root. Exits 0
when every anchor holds, 1 after listing each one that does not.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

DEFAULT_DOCS = ("ARCHITECTURE.md", "ROADMAP.md")
# Where bare file names are looked up.
SEARCH_DIRS = ("src", "include", "tests", "bench", "examples", "scripts",
               "perfbench", "tools")
EXTS = "h|hpp|cpp|cc|py|cmake|txt|json|md"

PATH = r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.(?:%s)" % EXTS
# A path mention, with an optional :N anchor.
PATH_RE = re.compile(r"(?<![\w./-])(%s)(?::(\d+))?(?![\w])" % PATH)
# A bare anchor: `:N` after a space, an opening parenthesis or a backtick.
BARE_RE = re.compile(r"(?:(?<=[\s(`])|^):(\d+)(?![\d:])")
IDENT = r"[A-Za-z_~][\w]*(?:::[A-Za-z_~]\w*)*"
BEFORE_RE = re.compile(r"(%s)[` ]*$" % IDENT)
AFTER_RE = re.compile(r"^[` ]*(%s)" % IDENT)


def index_files(root: str) -> dict[str, list[str]]:
    """Basename -> repo-relative paths of every file under SEARCH_DIRS."""
    by_name: dict[str, list[str]] = {}
    for top in SEARCH_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for f in files:
                rel = os.path.relpath(os.path.join(dirpath, f), root)
                by_name.setdefault(f, []).append(rel)
    return by_name


def resolve(root: str, by_name: dict[str, list[str]], path: str):
    """Repo-relative path a written path names, or an error string."""
    if os.path.isfile(os.path.join(root, path)):
        return path, None
    hits = [p for p in by_name.get(os.path.basename(path), [])
            if p == path or p.endswith("/" + path)]
    if len(hits) == 1:
        return hits[0], None
    if not hits:
        return None, "no such file"
    return None, "ambiguous file name (%s)" % ", ".join(sorted(hits))


def identifier(line: str, start: int, end: int) -> str | None:
    before = BEFORE_RE.search(line[:start])
    if before is not None:
        return before.group(1)
    after = AFTER_RE.match(line[end:])
    return after.group(1) if after is not None else None


def check_doc(root: str, doc: str, by_name, cache) -> list[str]:
    problems = []
    rel_doc = os.path.relpath(doc, root)
    with open(doc, encoding="utf-8") as f:
        lines = f.read().splitlines()
    current = None  # nearest preceding path, as written
    for lineno, line in enumerate(lines, 1):
        anchors = []  # (start, end, written path or None, line or None)
        taken = []
        for m in PATH_RE.finditer(line):
            taken.append((m.start(), m.end()))
            anchors.append((m.start(), m.end(), m.group(1),
                            int(m.group(2)) if m.group(2) else None))
        for m in BARE_RE.finditer(line):
            if not any(s <= m.start() < e for s, e in taken):
                anchors.append((m.start(), m.end(), None, int(m.group(1))))
        for start, end, written, target in sorted(anchors):
            if written is not None:
                current = written
            if target is None:
                continue  # a path mention only sets the context
            text = line[start:end]
            where = "%s:%d: %s" % (rel_doc, lineno, text)
            if current is None:
                problems.append(where + ": bare anchor before any path")
                continue
            path, err = resolve(root, by_name, current)
            if err is not None:
                problems.append("%s: %s: %s" % (where, current, err))
                continue
            name = identifier(line, start, end)
            if name is None:
                problems.append(where + ": no identifier written with it")
                continue
            if path not in cache:
                with open(os.path.join(root, path), encoding="utf-8",
                          errors="replace") as f:
                    cache[path] = f.read().splitlines()
            src = cache[path]
            word = re.compile(r"(?<![\w])%s(?![\w])" % re.escape(name))
            if not (0 < target <= len(src) and word.search(src[target - 1])):
                found = sorted((i for i, s in enumerate(src, 1)
                                if word.search(s)),
                               key=lambda i: abs(i - target))[:5]
                hint = (" (it is on line %s)" % ", ".join(map(str, found))
                        if found else " (not in the file)")
                problems.append("%s: `%s` is not on %s line %d%s"
                                % (where, name, path, target, hint))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("docs", nargs="*")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    docs = args.docs or [os.path.join(root, d) for d in DEFAULT_DOCS]
    by_name = index_files(root)
    cache: dict[str, list[str]] = {}
    problems = []
    for doc in docs:
        problems += check_doc(root, doc, by_name, cache)
    for p in problems:
        print("stale anchor " + p)
    if problems:
        print("check_anchors: %d stale anchor(s)" % len(problems))
        return 1
    print("check_anchors: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
