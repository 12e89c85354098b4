#!/usr/bin/env python3
"""Keep EXPERIMENTS.md honest.

Three jobs, all cheap enough for ctest:

  1. Smoke-run the user-facing examples (quickstart, collectives_demo):
     they must exit 0, so the README's first-contact commands never rot.
  2. Re-run the fig2/fig3 benches and compare every fault-free table row
     in EXPERIMENTS.md against the fresh output. Any cell drifting more
     than DRIFT (2%) fails the test: either the code regressed or the
     tables were not refreshed after a deliberate timing change.
  3. Re-run every binary listed in the "Determinism fingerprints"
     section and require the md5 of the fresh stdout to equal the
     documented hash. The rows pin bit-stability of every bench and
     example (a change that claims to alter only wall-clock speed must
     leave them all equal). Every binary passed in must have a row.

Usage:
  check_docs.py <experiments.md> <fig2_bench> <fig3_bench> <example>...
                [--fingerprint <binary>...]

Exit status 0 on success; per-row diagnostics on stderr otherwise.
"""

import hashlib
import os
import re
import subprocess
import sys

DRIFT = 0.02  # 2% relative tolerance between doc tables and fresh runs


def fail(msg):
    print("check_docs: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=600)
    if proc.returncode != 0:
        fail("command %r exited with %d" % (cmd, proc.returncode))
    return proc.stdout.decode("utf-8", errors="replace")


def section(text, heading):
    """The body of a '## <heading>...' section, up to the next '## '."""
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.startswith("## ") and heading in line:
            start = i + 1
            break
    if start is None:
        fail("EXPERIMENTS.md has no section matching %r" % heading)
    body = []
    for line in lines[start:]:
        if line.startswith("## "):
            break
        body.append(line)
    return "\n".join(body)


def table_rows(body):
    """Markdown table rows as lists of cell strings (header/rule skipped)."""
    rows = []
    for line in body.splitlines():
        line = line.strip()
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not cells or set(cells[0]) <= {"-", " "}:
            continue  # the |---|---| rule
        rows.append(cells)
    return rows[1:] if rows else []  # drop the header row


def cell_value(cell):
    """Numeric value of a table cell: '**107.0** (paper 108.4)' -> 107.0."""
    cell = cell.replace("**", "")
    cell = re.sub(r"\(.*?\)", "", cell)
    m = re.search(r"[\d.]+", cell)
    if m is None:
        fail("no number in table cell %r" % cell)
    return float(m.group(0))


def cell_key(cell):
    """Row key: first token, units folded in ('4 KB' -> '4K', '1 MB' -> '1M')."""
    cell = cell.replace("**", "")
    cell = re.sub(r"\(.*?\)", "", cell).strip()
    cell = cell.replace(" KB", "K").replace(" MB", "M")
    return cell.split()[0] if cell.split() else cell


def parse_bench(output, columns):
    """Bench table 'key  v1 [v2]' -> {key: (v1, ...)}; headers skipped."""
    out = {}
    pat = re.compile(r"^(\S+)\s+" + r"\s+".join([r"([\d.]+)"] * columns) + r"\s*$")
    for line in output.splitlines():
        m = pat.match(line.strip())
        if m and m.group(1) != "bytes":
            out[m.group(1)] = tuple(float(g) for g in m.groups()[1:])
    if not out:
        fail("could not parse any data rows from bench output:\n" + output)
    return out


def check_row(figure, key, label, doc, fresh, failures):
    if fresh == 0:
        if doc != 0:
            failures.append("%s %s %s: doc %g, fresh 0" % (figure, key, label))
        return
    drift = abs(doc - fresh) / abs(fresh)
    if drift > DRIFT:
        failures.append("%s row %s, %s: doc says %g, fresh run says %g "
                        "(drift %.1f%% > %d%%)"
                        % (figure, key, label, doc, fresh, 100 * drift,
                           100 * DRIFT))


def main():
    args = sys.argv[1:]
    fingerprinted = []
    if "--fingerprint" in args:
        at = args.index("--fingerprint")
        args, fingerprinted = args[:at], args[at + 1:]
    if len(args) < 3:
        fail("usage: check_docs.py <experiments.md> <fig2> <fig3> <example>... "
             "[--fingerprint <binary>...]")
    experiments_md, fig2_bench, fig3_bench = args[:3]
    examples = args[3:]

    # 1. Examples must run clean.
    for example in examples:
        run([example])

    with open(experiments_md, "r", encoding="utf-8") as f:
        text = f.read()

    failures = []

    # 2a. Figure 2: | bytes | measured µs |
    fig2 = parse_bench(run([fig2_bench]), columns=1)
    rows = table_rows(section(text, "Figure 2"))
    if not rows:
        fail("Figure 2 section has no table rows")
    for cells in rows:
        key = cell_key(cells[0])
        if key not in fig2:
            fail("Figure 2 doc row %r not in bench output" % key)
        check_row("fig2", key, "latency us", cell_value(cells[1]),
                  fig2[key][0], failures)

    # 2b. Figure 3: | bytes | ping-pong MB/s | bidirectional MB/s |
    fig3 = parse_bench(run([fig3_bench]), columns=2)
    rows = table_rows(section(text, "Figure 3"))
    if not rows:
        fail("Figure 3 section has no table rows")
    for cells in rows:
        key = cell_key(cells[0])
        if key not in fig3:
            fail("Figure 3 doc row %r not in bench output" % key)
        check_row("fig3", key, "ping-pong MB/s", cell_value(cells[1]),
                  fig3[key][0], failures)
        check_row("fig3", key, "bidirectional MB/s", cell_value(cells[2]),
                  fig3[key][1], failures)

    # 2c. Determinism fingerprints: each row is "./build/<dir>/<binary>"
    # and the md5 of that run's stdout.
    binaries = {os.path.basename(b): b
                for b in [fig2_bench, fig3_bench] + examples + fingerprinted}
    n_hashes = 0
    covered = set()
    for cells in table_rows(section(text, "Determinism fingerprints")):
        m = re.search(r"\./build/\w+/(\w+)", cells[0])
        h = re.search(r"[0-9a-f]{32}", cells[1])
        if m is None or h is None:
            fail("unparsable fingerprint row %r" % cells)
        name, doc_hash = m.group(1), h.group(0)
        if name not in binaries:
            fail("fingerprint row names %r, which was not passed in" % name)
        out = run([binaries[name]])
        fresh = hashlib.md5(out.encode("utf-8")).hexdigest()
        if fresh != doc_hash:
            failures.append("%s fingerprint: doc %s, fresh %s"
                            % (name, doc_hash, fresh))
        n_hashes += 1
        covered.add(name)
    missing = sorted(name for name in binaries if name not in covered)
    if missing:
        fail("no fingerprint row for: " + ", ".join(missing))

    if failures:
        for f in failures:
            print("check_docs: " + f, file=sys.stderr)
        fail("%d doc check(s) failed — update EXPERIMENTS.md or fix the "
             "regression" % len(failures))

    print("check_docs: OK (%d examples, %d fig2 rows, %d fig3 rows, "
          "%d fingerprints)"
          % (len(examples), len(table_rows(section(text, "Figure 2"))),
             len(table_rows(section(text, "Figure 3"))), n_hashes))


if __name__ == "__main__":
    main()
