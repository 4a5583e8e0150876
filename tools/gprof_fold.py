#!/usr/bin/env python3
"""Flat profile from gmon.out by symbol address, local clones included.

`gprof -p` leaves out local compiler clones such as
`Cache::access(...) [clone .part.0]` and charges their samples to the
function placed before them. This tool reads the program-counter
histogram in gmon.out itself and charges each bin to the text symbol
that `nm -n` places at or below its address, so every clone keeps its
own row:

    python3 tools/gprof_fold.py BINARY [GMON] [--top N]

GMON defaults to ./gmon.out. Prints the share of in-binary samples per
symbol, largest first. Reads the GNU gmon.out format of a -pg link on
a 64-bit little-endian host.
"""

import argparse
import bisect
import struct
import subprocess
from collections import Counter

TAG_HIST, TAG_ARC = 0, 1


def histogram(path):
    """(address, samples) per nonzero bin of every histogram record."""
    data = open(path, "rb").read()
    if data[:4] != b"gmon":
        raise SystemExit("%s: not a gmon.out file" % path)
    pos, bins = 20, []
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == TAG_HIST:
            low, high, size, _rate = struct.unpack_from("<QQII", data, pos)
            pos += 40
            counts = struct.unpack_from("<%dH" % size, data, pos)
            pos += 2 * size
            step = (high - low) / size
            bins += [(low + int(i * step), n)
                     for i, n in enumerate(counts) if n]
        elif tag == TAG_ARC:
            pos += 20
        else:
            raise SystemExit("%s: unsupported record tag %d" % (path, tag))
    return bins


def text_symbols(binary):
    """Sorted ([address], [demangled name]) of the binary's functions."""
    out = subprocess.run(["nm", "-n", "-C", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("gmon", nargs="?", default="gmon.out")
    ap.add_argument("--top", type=int, default=20)
    args = ap.parse_args()
    addrs, names = text_symbols(args.binary)
    samples = Counter()
    for addr, n in histogram(args.gmon):
        i = bisect.bisect_right(addrs, addr) - 1
        samples[names[i] if i >= 0 else "?"] += n
    total = sum(samples.values())
    if not total:
        print("no samples")
        return
    print("%d samples" % total)
    for name, n in samples.most_common(args.top):
        print("%6.1f%%  %s" % (100.0 * n / total, name))


if __name__ == "__main__":
    main()
