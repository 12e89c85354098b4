#!/usr/bin/env python3
"""Resolves wallprof sample dumps into per-object and per-symbol tables.

    LD_PRELOAD=build/scripts/libwallprof.so WALLPROF_OUT=prof.txt ./prog
    python3 scripts/wallprof/resolve.py prof.txt [more dumps...] [--top 30]
                                                 [--expect SUBSTRING]

Several dumps (runs of the same program) are added up.

Each sampled program counter is mapped through the /proc/self/maps copy
at the end of the dump to an object file and a file offset, then through
that object's LOAD segments (readelf -lW) to a link-time address, and
finally to the enclosing symbol from `nm -C -n` (the dynamic table,
`nm -D`, for stripped objects such as libc). Samples inside an object
without a covering symbol count as `[object]`.

--expect exits 1 unless some sampled symbol contains SUBSTRING (the ctest
uses it to prove the tool resolves the simulator's own frames).
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def parse_dump(path):
    """(sampled PCs, executable mappings) of one dump."""
    pcs, maps = [], []
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().split()
        if len(header) < 2 or header[0] != "wallprof":
            sys.exit("resolve: %s is not a wallprof dump" % path)
        in_maps = False
        for line in fh:
            line = line.rstrip("\n")
            if not in_maps:
                if line == "maps":
                    in_maps = True
                elif line:
                    pcs.append(int(line, 16))
                continue
            fields = line.split(None, 5)
            if len(fields) < 6 or "x" not in fields[1]:
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
    maps.sort()
    return pcs, maps


def load_segments(obj):
    """(file offset, vaddr, size) of each LOAD segment, or [] if unknown."""
    try:
        out = subprocess.run(["readelf", "-lW", obj], capture_output=True,
                             text=True, check=False).stdout
    except OSError:
        return []
    segs = []
    for line in out.splitlines():
        f = line.split()
        if len(f) >= 6 and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def load_symbols(obj):
    """Sorted (address, name) of the object's code symbols."""
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-C", "-n", "--defined-only"] + extra +
                                 [obj], capture_output=True, text=True,
                                 check=False).stdout
        except OSError:
            return []
        syms = []
        for line in out.splitlines():
            f = line.split(None, 2)
            if len(f) == 3 and f[1] in "tTwWiI":
                syms.append((int(f[0], 16), f[2]))
        if syms:
            syms.sort()
            return syms
    return []


_OBJECTS = {}  # path -> (segments, symbols, symbol addresses)


def load_object(obj):
    if obj not in _OBJECTS:
        ok = os.path.exists(obj)
        syms = load_symbols(obj) if ok else []
        _OBJECTS[obj] = (load_segments(obj) if ok else [], syms,
                         [s[0] for s in syms])
    return _OBJECTS[obj]


class Resolver:
    """Maps the PCs of one dump (one process's mappings) to symbols."""

    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]

    def resolve(self, pc):
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return "[unmapped]", "[unmapped]"
        lo, _, off, obj = self.maps[i]
        name = os.path.basename(obj)
        if obj.startswith("["):
            return name, name
        segs, syms, addrs = load_object(obj)
        file_off = pc - lo + off
        vaddr = file_off
        for seg_off, seg_vaddr, seg_size in segs:
            if seg_off <= file_off < seg_off + seg_size:
                vaddr = file_off - seg_off + seg_vaddr
                break
        j = bisect.bisect_right(addrs, vaddr) - 1
        if j < 0:
            return name, "[%s]" % name
        return name, syms[j][1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--expect", default=None)
    args = ap.parse_args()

    by_obj = collections.Counter()
    by_sym = collections.Counter()
    total = 0
    for dump in args.dumps:
        pcs, maps = parse_dump(dump)
        res = Resolver(maps)
        for pc in pcs:
            obj, sym = res.resolve(pc)
            by_obj[obj] += 1
            by_sym[(sym, obj)] += 1
        total += len(pcs)
    if total == 0:
        sys.exit("resolve: no samples in %s" % " ".join(args.dumps))

    print("# %d samples from %d dump(s)" % (total, len(args.dumps)))
    print("\n%8s %7s  object" % ("samples", "share"))
    for obj, n in by_obj.most_common():
        print("%8d %6.2f%%  %s" % (n, 100.0 * n / total, obj))
    print("\n%8s %7s  symbol [object]" % ("samples", "share"))
    for (sym, obj), n in by_sym.most_common(args.top):
        print("%8d %6.2f%%  %s [%s]" % (n, 100.0 * n / total, sym, obj))

    if args.expect is not None:
        if not any(args.expect in sym for sym, _ in by_sym):
            print("resolve: no sampled symbol contains %r" % args.expect,
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
