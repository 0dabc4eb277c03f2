#!/usr/bin/env python3
"""Turn a sigprof.c dump into three tables: samples by outermost symbol (the
function whose code the sample sits in), by every frame inlined there
(inclusive; a sample counts once per distinct name), and by the innermost
source line under crates/.  Usage: symbolise.py <sigprof.out> [top-n]"""
import collections
import re
import subprocess
import sys


def main():
    maps, _, tail = open(sys.argv[1]).read().partition("SAMPLES\n")
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 15
    # (start, end, path) of executable mappings; base = lowest mapping of the
    # same file, which is where a PIE's virtual address 0 landed.
    base, spans = {}, []
    for line in maps.splitlines():
        m = re.match(r"([0-9a-f]+)-([0-9a-f]+) (\S+) \S+ \S+ \S+\s*(.*)", line)
        start, end, perms, path = int(m[1], 16), int(m[2], 16), m[3], m[4]
        base[path] = min(base.get(path, start), start)
        if "x" in perms:
            spans.append((start, end, path))
    by_file = collections.defaultdict(collections.Counter)  # path -> vaddr -> n
    for pc in (int(x, 16) for x in tail.split()):
        path = next((p for s, e, p in spans if s <= pc < e), "?")
        by_file[path][pc - base.get(path, 0)] += 1
    total = sum(sum(c.values()) for c in by_file.values())
    outer, inclusive, lines = (collections.Counter() for _ in range(3))
    for path, counts in by_file.items():
        frames = {}  # vaddr -> [(function, file:line)], innermost first
        if path.startswith("/"):
            out = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", path],
                                 input="\n".join(hex(a) for a in counts),
                                 capture_output=True, text=True).stdout.splitlines()
            cur = fn = None
            for line in out:
                if re.fullmatch(r"0x[0-9a-f]+", line):
                    cur = frames.setdefault(int(line, 16), [])
                    fn = None
                elif fn is None:
                    fn = line
                else:
                    cur.append((fn, line.split(" (discriminator")[0]))
                    fn = None
        where = path.rsplit("/", 1)[-1]

        def name(f):
            return f"?? [{where}]" if f == "??" else re.sub(r"::h[0-9a-f]{16}$", "", f)

        for addr, n in counts.items():
            stack = frames.get(addr) or [("??", "??:0")]
            outer[name(stack[-1][0])] += n
            for f in {name(f) for f, _ in stack}:
                inclusive[f] += n
            src = next((l for _, l in stack if "/crates/" in l), None)
            if src:
                lines["crates/" + src.split("/crates/", 1)[1]] += n
    for title, table in (("outermost symbol", outer), ("inclusive of inlining", inclusive),
                         ("hottest crates/ lines", lines)):
        print(f"== top {top} by {title} ({total} samples)")
        for key, n in table.most_common(top):
            print(f"{100 * n / total:6.2f}%  {n:6d}  {key}")


main()
