#!/usr/bin/env python3
"""Turn a heapprof.c dump into two tables: allocation calls by site, and the
bytes each site held live at the process's peak.  A site is the innermost
source line of this repository on the call stack (inlined frames included,
the global-allocator shims and the benchmark's counting allocator skipped), so `Vec::push` and the
allocator's frames fold into the line that grew the vector.  The window is
the whole process.  Usage: symbolise.py <heapprof.out> [top-n]"""
import collections
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))) + "/"
ALLOCATOR = ROOT + "benchmark/src/alloc.rs"
SHIM = re.compile(r"__rust_(alloc|alloc_zeroed|realloc)$")


def main():
    maps, _, tail = open(sys.argv[1]).read().partition("SITES ")
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    header, *rows = tail.splitlines()
    totals = dict(kv.split("=") for kv in header.split())
    base, spans = {}, []
    for line in maps.splitlines():
        m = re.match(r"([0-9a-f]+)-([0-9a-f]+) (\S+) \S+ \S+ \S+\s*(.*)", line)
        start, end, perms, path = int(m[1], 16), int(m[2], 16), m[3], m[4]
        base[path] = min(base.get(path, start), start)
        if "x" in perms:
            spans.append((start, end, path))

    def locate(pc):
        path = next((p for s, e, p in spans if s <= pc < e), "?")
        # A return address: the call sits one byte before it.
        return path, pc - 1 - base.get(path, 0)

    sites = []  # (calls, bytes, at_peak, [(path, vaddr)])
    wanted = collections.defaultdict(set)
    for row in rows:
        calls, nbytes, at_peak, *pcs = row.split()
        stack = [locate(int(pc, 16)) for pc in pcs]
        for path, addr in stack:
            wanted[path].add(addr)
        sites.append((int(calls), int(nbytes), int(at_peak), stack))

    frames = {}  # (path, vaddr) -> [(function, file:line)], innermost first
    for path, addrs in wanted.items():
        if not path.startswith("/"):
            continue
        out = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", path],
                             input="\n".join(hex(a) for a in sorted(addrs)),
                             capture_output=True, text=True).stdout.splitlines()
        cur = fn = None
        for line in out:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                cur = frames.setdefault((path, int(line, 16)), [])
                fn = None
            elif fn is None:
                fn = re.sub(r"::h[0-9a-f]{16}$", "", line)
            else:
                cur.append((fn, line.split(" (discriminator")[0]))
                fn = None

    def site_name(stack):
        for fn, src in (f for loc in stack for f in frames.get(loc, [])):
            if src.startswith(ROOT) and not src.startswith(ALLOCATOR) and not SHIM.search(fn):
                return f"{src[len(ROOT):]}  {short(fn)}"
        return "(no frame of this repository)"

    by_calls, by_peak = collections.Counter(), collections.Counter()
    for calls, _, at_peak, stack in sites:
        name = site_name(stack)
        by_calls[name] += calls
        by_peak[name] += at_peak
    calls, peak = int(totals["calls"]), int(totals["peak"])
    print("window: the whole process, from its first allocation to its exit, the "
          "benchmark's warm-up and canary runs included (its own counters cover its "
          "timed panel: compare shares, not totals)")
    if int(totals["untracked"]):
        print(f"warning: {totals['untracked']} blocks were counted but not tracked live")
    print(f"== top {top} allocation sites by calls ({calls} calls)")
    for key, n in by_calls.most_common(top):
        print(f"{100 * n / max(calls, 1):6.2f}%  {n:9d}  {key}")
    print(f"== top {top} sites by bytes live at the process's peak ({peak / 2**20:.3f} MiB)")
    for key, n in by_peak.most_common(top):
        print(f"{100 * n / max(peak, 1):6.2f}%  {n:9d}  {key}")


def short(fn):
    """Drops generic arguments so one function reads as one name."""
    while True:
        shorter = re.sub(r"<[^<>]*>", "", fn)
        if shorter == fn:
            return fn
        fn = shorter


main()
