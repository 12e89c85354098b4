#!/usr/bin/env python3
"""vmmc-lint: project-specific determinism & coroutine-safety linter.

Every rule here is grounded in a bug this repo actually shipped (or a class
the determinism contract in DESIGN.md bans):

  R1  co-await-subexpr      `co_await` inside a ternary / comma / call-argument
                            subexpression. GCC 12 miscompiled coroutine frames
                            for awaits in ternary branches (the PR 9
                            frame-corruption bug in api.cpp / kv_server);
                            temporaries that live across the suspension are a
                            hazard in every compiler. Await into a named local
                            first.
  R2  unordered-iter        Iteration over std::unordered_map/unordered_set in
                            sim-visible code. Hash order is
                            implementation-defined; when iteration order feeds
                            event scheduling the headline guarantee (same
                            seed, bit-equal results on any host) silently
                            breaks.
  R3  nondet-source         std::random_device, rand()/srand(), wall-clock
                            reads (system_clock/steady_clock/
                            high_resolution_clock, time(), gettimeofday, ...)
                            in sim code. All randomness must come from the
                            seeded sim::Rng; all time from Simulator::Now().
  R4  raw-buffer            Raw new[]/malloc or std::vector<byte> payload
                            buffers (also through a using/typedef alias) and
                            std::deque queues in hot-path code, which must
                            use the pooled util::Buffer / EventNode tiers and
                            util::Ring (the zero-alloc contract enforced by
                            perf_guard_test).
  R5  ref-capture-coawait   Lambda capturing by reference whose body crosses a
                            co_await/co_yield suspension point. The frame
                            holds the reference; if the coroutine outlives the
                            enclosing scope the capture dangles.

Allowlist: a justified suppression on the offending line or the line above:

    // vmmc-lint: allow(unordered-iter): keys are sorted before visiting

The justification after the colon is mandatory; bare allow() comments are
themselves reported (rule ALLOW-NO-REASON).

Backends:
  * clang  — uses Python clang.cindex (libclang) for exact tokenization, and
             AST-level confirmation for R1/R5.
  * regex  — a built-in C++ comment/string stripper feeding the same rule
             engines. No dependencies; this is the authoritative gate on
             hosts without libclang (the CI container, for one).
  * auto   — clang if importable, else regex.

Output is `path:line:col: RULE[slug]: message`, sorted, stable. Exit status
is 1 iff at least one finding is reported.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "R0": "allow-no-reason",
    "R1": "co-await-subexpr",
    "R2": "unordered-iter",
    "R3": "nondet-source",
    "R4": "raw-buffer",
    "R5": "ref-capture-coawait",
}
SLUG_TO_RULE = {v: k for k, v in RULES.items()}

# Directory scopes, relative to the repo root. A rule only fires inside its
# scope (overridable with --scope for fixtures / self-tests).
#
#   all : everything handed to the linter                       (R1)
#   sim : src/ + include/ — code whose behaviour is sim-visible (R2, R3, R5)
#   hot : the packet/event hot path under the PR 4 pooled-
#         buffer contract                                       (R4)
SIM_PREFIXES = ("src/", "include/")
HOT_PREFIXES = (
    "src/sim/",
    "src/lanai/",
    "src/myrinet/",
    "src/vmmc/",
    "include/vmmc/sim/",
    "include/vmmc/lanai/",
    "include/vmmc/myrinet/",
    "include/vmmc/vmmc/",
)

ALLOW_RE = re.compile(
    r"//\s*vmmc-lint:\s*allow\(([a-z0-9_,\s-]+)\)\s*(?::\s*(\S.*))?")

CXX_EXTS = (".h", ".hpp", ".cpp", ".cc", ".cxx")


@dataclass(order=True)
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule}[{RULES[self.rule]}]: {self.message}")


# ---------------------------------------------------------------------------
# Tokenization: blank out comments and string/char literals while preserving
# byte offsets and newlines, so rule regexes see only code and reported
# positions match the original file.
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            # Raw strings: R"delim( ... )delim"
            if c == '"' and i >= 1 and text[i - 1] == "R":
                m = re.match(r'R"([^()\\ \n]*)\(', text[i - 1:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i + len(m.group(0)))
                    j = n - len(close) if j < 0 else j
                    end = j + len(close)
                    for k in range(i + 1, end - 1):
                        if out[k] != "\n":
                            out[k] = " "
                    i = end
                    continue
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            for k in range(i + 1, min(j, n)):
                out[k] = " "
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


def line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl  # col is 1-based


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------

class Allowlist:
    """Justified `// vmmc-lint: allow(slug): reason` suppressions."""

    def __init__(self, raw_lines: list[str]):
        self.by_line: dict[int, set[str]] = {}
        self.bare: list[int] = []  # allow() with no justification
        for idx, line in enumerate(raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            slugs = {s.strip() for s in m.group(1).split(",") if s.strip()}
            if not m.group(2):
                self.bare.append(idx)
                continue
            self.by_line.setdefault(idx, set()).update(slugs)
            # A standalone allow-comment covers the next code line, skipping
            # continuation comment lines (multi-line justifications).
            if line.lstrip().startswith("//"):
                for j in range(idx, len(raw_lines)):
                    nxt = raw_lines[j].strip()
                    if nxt and not nxt.startswith("//"):
                        self.by_line.setdefault(j + 1, set()).update(slugs)
                        break

    def allows(self, line: int, slug: str) -> bool:
        for probe in (line, line - 1):
            slugs = self.by_line.get(probe)
            if slugs and (slug in slugs or "all" in slugs):
                return True
        return False


# ---------------------------------------------------------------------------
# Rule engines (shared by both backends; operate on stripped text)
# ---------------------------------------------------------------------------

def _statement_start(clean: str, pos: int) -> int:
    """Best-effort start of the statement containing `pos`: scan back to the
    nearest ';', '{' or '}' (approximation is fine — rules only look at the
    prefix for expression-shape evidence)."""
    i = pos - 1
    while i >= 0 and clean[i] not in ";{}":
        i -= 1
    return i + 1


def rule_r1(clean: str) -> list[tuple[int, str]]:
    """co_await inside ternary / comma / call-argument subexpressions."""
    findings = []
    for m in re.finditer(r"\bco_await\b", clean):
        start = _statement_start(clean, m.start())
        prefix = clean[start:m.start()]
        # (a) ternary branch: an (unmatched-by-':') '?' earlier in the same
        # statement means this await sits in a conditional-expression branch.
        # '::' never uses a lone '?', so any '?' is a ternary.
        if "?" in prefix:
            findings.append((m.start(),
                             "co_await in a ternary subexpression (GCC-12 "
                             "coroutine-frame corruption class, PR 9); await "
                             "into a named local before selecting"))
            continue
        # (b) call argument: prefix ends with ',' or with 'ident(' where
        # ident is a real function (not a control keyword / grouping paren).
        trimmed = prefix.rstrip()
        if trimmed.endswith(","):
            # Only a hazard when inside an argument list, i.e. there is an
            # unclosed '(' in the statement prefix.
            depth = trimmed.count("(") - trimmed.count(")")
            if depth > 0:
                findings.append((m.start(),
                                 "co_await as a non-first function-call "
                                 "argument; evaluation order of siblings "
                                 "straddles the suspension — await into a "
                                 "named local first"))
            continue
        if trimmed.endswith("("):
            before = trimmed[:-1].rstrip()
            ident = re.search(r"([A-Za-z_]\w*)\s*$", before)
            if ident and ident.group(1) not in (
                    "if", "while", "for", "switch", "return", "co_return",
                    "co_await", "co_yield", "assert", "sizeof", "alignof",
                    "decltype", "static_cast", "catch"):
                findings.append((m.start(),
                                 f"co_await inside the argument list of "
                                 f"'{ident.group(1)}(...)'; the call's "
                                 "temporaries live across the suspension — "
                                 "await into a named local first"))
    return findings


_UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap"
                                r"|multiset)\s*<")
# Ordered/sequence containers: a name declared with one of these is NOT an
# unordered container in that file — used to resolve cross-file name
# collisions (e.g. `entries_` is an unordered_map in one class and a
# std::vector in another).
_ORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*(?:map|set|multimap|multiset"
                              r"|vector|deque|array|list)\s*<")


def _decl_names(clean: str, decl_re: re.Pattern) -> set[str]:
    names: set[str] = set()
    for m in decl_re.finditer(clean):
        # Match the template argument list with a bracket counter.
        i = m.end() - 1  # at '<'
        depth = 0
        n = len(clean)
        while i < n:
            if clean[i] == "<":
                depth += 1
            elif clean[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        tail = clean[i + 1:i + 160]
        # `...> name;` / `> name{...}` / `> name =` / `> name(` — member,
        # local, param, or function returning the container; also `>& name`.
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;{=(,)]", tail)
        if dm and dm.group(1) not in ("const", "constexpr", "static",
                                      "mutable", "inline", "operator"):
            names.add(dm.group(1))
    return names


def collect_unordered_names(clean: str) -> set[str]:
    """Names declared with an unordered container type in this text."""
    return _decl_names(clean, _UNORDERED_DECL_RE)


def collect_ordered_names(clean: str) -> set[str]:
    """Names declared with an ordered/sequence container type."""
    return _decl_names(clean, _ORDERED_DECL_RE)


def rule_r2(clean: str, unordered_names: set[str]) -> list[tuple[int, str]]:
    """Iteration over unordered containers (range-for or .begin())."""
    findings = []
    if not unordered_names:
        return findings
    # Range-for: `for (decl : expr)` where expr's terminal identifier is a
    # known unordered name (handles `m_`, `obj.m_`, `ptr->m_`, `m_fn()`).
    for m in re.finditer(r"\bfor\s*\(([^;()]*?(?:\([^()]*\))?[^;()]*?):"
                         r"([^;)]*)\)", clean):
        expr = m.group(2).strip()
        idm = re.search(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?\s*$", expr)
        if idm and idm.group(1) in unordered_names:
            findings.append((m.start(),
                             f"range-for over unordered container "
                             f"'{idm.group(1)}'; hash order is nondeterministic"
                             " and leaks into event scheduling — use std::map,"
                             " a sorted vector, or sort keys first"))
    # Explicit iterator loops: name.begin() / name.cbegin().
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(", clean):
        if m.group(1) in unordered_names:
            findings.append((m.start(),
                             f"iterator walk over unordered container "
                             f"'{m.group(1)}'; hash order is nondeterministic"
                             " — use std::map, a sorted vector, or sort keys"
                             " first"))
    return findings


_R3_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b|\brandom_device\b"),
     "std::random_device is host entropy; use the seeded sim::Rng"),
    (re.compile(r"\b(?:s?rand)\s*\("),
     "rand()/srand() is process-global nondeterminism; use the seeded "
     "sim::Rng"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock source in sim code; sim time comes from Simulator::Now()"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() reads the host clock; sim time comes from Simulator::Now()"),
    (re.compile(r"\bclock\s*\(\s*\)"),
     "clock() reads host CPU time; sim time comes from Simulator::Now()"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\b"),
     "host clock read in sim code; sim time comes from Simulator::Now()"),
    (re.compile(r"\bgetpid\s*\("),
     "getpid() varies per run; derive ids from node rank / sim state"),
]


def rule_r3(clean: str) -> list[tuple[int, str]]:
    findings = []
    for pat, msg in _R3_PATTERNS:
        for m in pat.finditer(clean):
            findings.append((m.start(), msg))
    return findings


_BYTE_VECTOR = (r"std\s*::\s*vector\s*<\s*(?:std\s*::\s*)?"
                r"(?:uint8_t|byte|unsigned\s+char)\s*>")
_R4_BYTE_VECTOR_MSG = ("byte-vector buffer declared in the hot path; payload "
                       "storage must be the pooled, copy-on-write util::Buffer"
                       " (zero-copy contract)")
_R4_PATTERNS = [
    (re.compile(r"\bnew\s+[A-Za-z_][\w:]*(?:\s*<[^;<>]*>)?\s*\["),
     "raw array new in the hot path; use the pooled util::Buffer / "
     "sim::EventNode tiers (PR 4 zero-alloc contract)"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("),
     "malloc-family allocation in the hot path; use the pooled util::Buffer"
     " / sim::EventNode tiers (PR 4 zero-alloc contract)"),
    (re.compile(r"\b" + _BYTE_VECTOR + r"\s+[A-Za-z_]\w*\s*[;{=(]"),
     _R4_BYTE_VECTOR_MSG),
    (re.compile(r"\bstd\s*::\s*deque\s*<"),
     "std::deque in the hot path: it frees and reallocates chunks as the "
     "queue slides along; use the capacity-keeping util::Ring"),
]
# `using Bytes = std::vector<std::uint8_t>;` / `typedef std::vector<...>
# Bytes;` — an alias hides the byte vector from the declaration pattern
# above (myrinet::Route did, until it became an inline array). The typedef
# form already matches that pattern; the using form is reported here.
_R4_USING_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*" + _BYTE_VECTOR +
                          r"\s*;")
_R4_TYPEDEF_RE = re.compile(r"\btypedef\s+" + _BYTE_VECTOR +
                            r"\s*([A-Za-z_]\w*)\s*;")


def rule_r4(clean: str) -> list[tuple[int, str]]:
    findings = []
    for pat, msg in _R4_PATTERNS:
        for m in pat.finditer(clean):
            findings.append((m.start(), msg))
    # Byte-vector aliases: the alias itself, and every declaration through
    # it in this file.
    aliases = {m.group(1) for m in _R4_TYPEDEF_RE.finditer(clean)}
    for m in _R4_USING_RE.finditer(clean):
        aliases.add(m.group(1))
        findings.append((m.start(), f"byte-vector alias '{m.group(1)}' in "
                         "the hot path; " + _R4_BYTE_VECTOR_MSG))
    for alias in sorted(aliases):
        decl = re.compile(r"(?<![\w:.>])" + re.escape(alias) +
                          r"\s+[A-Za-z_]\w*\s*[;{=(]")
        for m in decl.finditer(clean):
            findings.append((m.start(), f"'{alias}' is a byte vector: "
                             + _R4_BYTE_VECTOR_MSG))
    return findings


# `[&]`, `[&x]`, `[this, &x]`, `[=, &y]` — any by-reference capture. Plain
# subscripts like `arr[&x - base]` also match; the body-span scan rejects
# anything not followed by a lambda body.
_CAPTURE_REF_RE = re.compile(r"\[\s*&|\[[^\]\n]*?[,\s]&")


def _lambda_body_span(clean: str, cap_start: int) -> tuple[int, int] | None:
    """Given the position of a lambda's '[', return (open, close) of its body
    braces, skipping the parameter list / specifiers / trailing return."""
    close_br = clean.find("]", cap_start)
    if close_br < 0:
        return None
    i = close_br + 1
    n = len(clean)
    # Skip whitespace, parameter list, specifiers, trailing return type up to
    # the body '{'. Stop early on tokens that prove this wasn't a lambda.
    depth = 0
    while i < n:
        c = clean[i]
        if c == "(" or c == "<":
            depth += 1
        elif c == ")" or c == ">":
            depth -= 1
        elif c == "{" and depth <= 0:
            break
        elif depth <= 0 and c in ";=]":
            return None  # array subscript / attribute, not a lambda
        i += 1
    if i >= n:
        return None
    open_brace = i
    depth = 0
    while i < n:
        if clean[i] == "{":
            depth += 1
        elif clean[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace, i
        i += 1
    return None


def rule_r5(clean: str) -> list[tuple[int, str]]:
    """Lambda capturing by reference whose body suspends."""
    findings = []
    for m in _CAPTURE_REF_RE.finditer(clean):
        # The regex can also hit `a[&b]` indexing or `operator[](...)`; the
        # body-span scan rejects those (no brace body follows).
        span = _lambda_body_span(clean, m.start(m.lastindex or 0))
        if span is None:
            continue
        body = clean[span[0]:span[1]]
        if re.search(r"\bco_await\b|\bco_yield\b", body):
            findings.append((m.start(),
                             "by-reference lambda capture crossing a "
                             "co_await suspension; the coroutine frame holds "
                             "the reference and dangles if it outlives this "
                             "scope — capture by value (this + copies) or "
                             "pass explicit parameters"))
    return findings


# ---------------------------------------------------------------------------
# Optional libclang backend: exact tokenization + AST confirmation.
# ---------------------------------------------------------------------------

def _try_clang_index():
    try:
        from clang import cindex  # type: ignore
        cindex.Index.create()
        return cindex
    except Exception:
        return None


def clang_clean_text(cindex, path: str, text: str) -> str | None:
    """Rebuild the stripped view from libclang's token stream (exact comment
    and literal positions, no hand-rolled lexing). Falls back to None on any
    parse trouble; callers then use the built-in stripper."""
    try:
        tu = cindex.TranslationUnit.from_source(
            path, args=["-std=c++20", "-fsyntax-only"],
            unsaved_files=[(path, text)],
            options=0)
        out = [c if c == "\n" else " " for c in text]
        for tok in tu.get_tokens(extent=tu.cursor.extent):
            kind = tok.kind.name
            if kind in ("COMMENT", "LITERAL") and kind == "COMMENT":
                continue
            start = tok.extent.start.offset
            spelling = tok.spelling
            if kind == "LITERAL" and (spelling.startswith('"')
                                      or spelling.startswith("'")):
                continue
            for k, ch in enumerate(spelling):
                if 0 <= start + k < len(out):
                    out[start + k] = ch
        return "".join(out)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def scope_of(rel_path: str) -> set[str]:
    rp = rel_path.replace(os.sep, "/")
    scopes = {"all"}
    if rp.startswith(SIM_PREFIXES):
        scopes.add("sim")
    if rp.startswith(HOT_PREFIXES):
        scopes.add("hot")
    return scopes


RULE_SCOPE = {"R1": "all", "R2": "sim", "R3": "sim", "R4": "hot", "R5": "sim"}


def lint_file(path: str, rel_path: str, unordered_names: set[str],
              backend: str = "auto", scope_override: str | None = None,
              rules: set[str] | None = None) -> list[Finding]:
    try:
        text = open(path, encoding="utf-8", errors="replace").read()
    except OSError as e:
        return [Finding(rel_path, 1, 1, "R3", f"unreadable: {e}")]

    cindex = _try_clang_index() if backend in ("auto", "clang") else None
    clean = None
    if cindex is not None:
        clean = clang_clean_text(cindex, path, text)
    if clean is None:
        clean = strip_comments_and_strings(text)

    raw_lines = text.splitlines()
    allow = Allowlist(raw_lines)
    scopes = {scope_override} | {"all"} if scope_override else scope_of(rel_path)
    active = rules or set(RULES)

    hits: list[tuple[str, int, str]] = []  # (rule, pos, message)
    if "R1" in active and RULE_SCOPE["R1"] in scopes:
        hits += [("R1", pos, msg) for pos, msg in rule_r1(clean)]
    if "R2" in active and RULE_SCOPE["R2"] in scopes:
        local_un = collect_unordered_names(clean)
        local_ord = collect_ordered_names(clean)
        effective = (unordered_names | local_un) - (local_ord - local_un)
        hits += [("R2", pos, msg) for pos, msg in rule_r2(clean, effective)]
    if "R3" in active and RULE_SCOPE["R3"] in scopes:
        hits += [("R3", pos, msg) for pos, msg in rule_r3(clean)]
    if "R4" in active and RULE_SCOPE["R4"] in scopes:
        hits += [("R4", pos, msg) for pos, msg in rule_r4(clean)]
    if "R5" in active and RULE_SCOPE["R5"] in scopes:
        hits += [("R5", pos, msg) for pos, msg in rule_r5(clean)]

    findings: list[Finding] = []
    for rule, pos, msg in hits:
        line, col = line_col(text, pos)
        if allow.allows(line, RULES[rule]):
            continue
        findings.append(Finding(rel_path, line, col, rule, msg))
    for line in allow.bare:
        findings.append(Finding(
            rel_path, line, 1, "R0",
            "vmmc-lint allow() without a justification "
            "(write `// vmmc-lint: allow(slug): why it is safe`)"))
    return sorted(findings)


def resolve_unordered_names(files: list[str]) -> dict[str, set[str]]:
    """Per-file R2 symbol table. A name counts as unordered for a TU if

      (a) the TU itself or a same-basename file (its paired header) declares
          it with an unordered container type, or
      (b) some project file declares it unordered and NO project file
          declares the same name as an ordered/sequence container — i.e.
          the name is globally unambiguous.

    This lets `src/foo/bar.cpp` see members declared in
    `include/.../bar.h`, without a name like `entries_` that is an
    unordered_map in one class and a std::vector in another poisoning
    unrelated files."""
    per_un: dict[str, set[str]] = {}
    per_ord: dict[str, set[str]] = {}
    for f in files:
        try:
            text = open(f, encoding="utf-8", errors="replace").read()
        except OSError:
            per_un[f], per_ord[f] = set(), set()
            continue
        clean = strip_comments_and_strings(text)
        per_un[f] = collect_unordered_names(clean)
        per_ord[f] = collect_ordered_names(clean)
    global_un = set().union(*per_un.values()) if per_un else set()
    global_ord = set().union(*per_ord.values()) if per_ord else set()
    unambiguous = global_un - global_ord

    by_base: dict[str, list[str]] = {}
    for f in files:
        base = os.path.splitext(os.path.basename(f))[0]
        by_base.setdefault(base, []).append(f)

    resolved: dict[str, set[str]] = {}
    for f in files:
        base = os.path.splitext(os.path.basename(f))[0]
        paired_un: set[str] = set()
        paired_ord: set[str] = set()
        for g in by_base[base]:
            paired_un |= per_un[g]
            paired_ord |= per_ord[g]
        resolved[f] = unambiguous | (paired_un - (paired_ord - paired_un))
    return resolved


def default_files(root: str) -> list[str]:
    out = []
    for sub in ("src", "include", "tests", "bench", "examples"):
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            if "lint_fixtures" in dirpath:
                continue
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTS):
                    out.append(os.path.join(dirpath, fn))
    return sorted(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="files to lint (default: the whole project tree)")
    ap.add_argument("--root", default=None,
                    help="repo root for scope computation (default: walk up "
                    "from this script)")
    ap.add_argument("--backend", choices=("auto", "clang", "regex"),
                    default="auto")
    ap.add_argument("--scope", choices=("all", "sim", "hot"), default=None,
                    help="force a directory scope (fixtures / self-tests)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule subset, e.g. R1,R5")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, slug in RULES.items():
            print(f"{rid}  {slug}  (scope: {RULE_SCOPE[rid]})")
        return 0

    root = os.path.abspath(args.root) if args.root else os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", ".."))
    files = [os.path.abspath(f) for f in args.files] or default_files(root)

    rules = None
    if args.rules:
        rules = {r.strip().upper() for r in args.rules.split(",")}
        bad = rules - set(RULES)
        if bad:
            ap.error(f"unknown rules: {sorted(bad)}")

    backend = args.backend
    if backend == "clang" and _try_clang_index() is None:
        print("vmmc-lint: --backend=clang requested but clang.cindex is "
              "unavailable; install libclang or use --backend=regex",
              file=sys.stderr)
        return 2

    # Pass A: project-wide unordered-container symbol table (R2 needs decls
    # from headers when linting the .cpp that iterates them).
    resolved = resolve_unordered_names(files)

    findings: list[Finding] = []
    for f in files:
        rel = os.path.relpath(f, root)
        findings += lint_file(f, rel, resolved.get(f, set()), backend=backend,
                              scope_override=args.scope, rules=rules)

    for fin in sorted(findings):
        print(fin.render())
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
