#!/usr/bin/env python3
"""Where one tbbench set-up spends a server's CPU, by function.

    python3 scripts/profile_setup.py --workload tiered-read [--seed 1]
        [--tiny] [--exe tbb_server] [--top 25] [--require tierbase::]

Builds the benchmark as tbbench/run.py does, compiles
scripts/sigprof_sampler.c and runs one set-up of the workload (launch,
preload, warm-up, quiesce) through tbbench/run.py's own setup_once, with
the sampler preloaded into every process it starts. Only the program named
by --exe samples itself. When set-up is done the servers shut down, the
sampler writes its stacks, and this script symbolizes them with nm and
c++filt and prints two tables: the functions with the largest inclusive
share (samples with the function anywhere on the stack) and those with the
largest self share (samples with the function innermost). --require exits
non-zero when no sampled frame's function name contains the given text.
"""

import argparse
import bisect
import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # Leave no cache files in tbbench/.
sys.path.insert(0, os.path.join(ROOT, "tbbench"))
import run as tb  # noqa: E402  tbbench/run.py, used read-only.

SAMPLER_SRC = os.path.join(ROOT, "scripts", "sigprof_sampler.c")


def build_sampler(workdir):
    so = os.path.join(workdir, "sigprof_sampler.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", so, SAMPLER_SRC],
                   check=True)
    return so


def profiled_setup(wl, workdir, so, exe, seed):
    """One set-up of `wl` under the sampler; returns the set-up's CPU
    seconds over all its processes."""
    logical = tb.run_driver(["--mode", "describe"] +
                            tb.driver_args(wl, seed))["logical_bytes"]
    budget = logical // wl["cache_ratio_x"] if wl["cache_ratio_x"] else 0
    procs = tb.Procs(workdir, tb.server_cpus(wl))
    saved = dict(os.environ)
    os.environ.update(LD_PRELOAD=so, SIGPROF_EXE=exe, SIGPROF_OUT=workdir)
    try:
        topo, cpu, _ = tb.setup_once(wl, procs, workdir, budget, False, seed,
                                     "prof")
        topo.stop()
    finally:
        procs.stop_all()
        os.environ.clear()
        os.environ.update(saved)
    return cpu


# ---------------------------------------------------------------------------
# Symbolization.
# ---------------------------------------------------------------------------

Mapping = collections.namedtuple("Mapping", "start end path")


def parse_dump(path):
    """Returns (executable mappings sorted by start, load base per file,
    stacks)."""
    maps, bases, stacks = [], {}, []
    with open(path) as f:
        lines = iter(f)
        for line in lines:
            if line.startswith("samples "):
                break
            parts = line.split()
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            offset = int(parts[2], 16)
            name = parts[5] if len(parts) > 5 else ""
            if offset == 0 and name and name not in bases:
                bases[name] = lo
            if "x" in parts[1]:
                maps.append(Mapping(lo, hi, name))
        for line in lines:
            stacks.append([int(x, 16) for x in line.split()])
    maps.sort(key=lambda m: m.start)
    return maps, bases, stacks


def is_shared_object(path):
    """True for a position-independent ELF file (ET_DYN), whose symbol
    addresses are relative to where it is loaded."""
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and header[16] == 3


class SymbolTable:
    """The text symbols of one ELF file, from nm (dynamic ones if the file
    is stripped)."""

    LINE = re.compile(r"^([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWiI]) (\S+)$")

    def __init__(self, path):
        self.addrs, self.ends, self.names = [], [], []
        syms = []
        for flags in (["--defined-only"], ["-D", "--defined-only"]):
            out = subprocess.run(["nm", "-S"] + flags + [path],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
            for line in out.splitlines():
                m = self.LINE.match(line)
                if m:
                    size = int(m.group(2), 16) if m.group(2) else 0
                    name = m.group(4).split("@")[0]  # No symbol version.
                    syms.append((int(m.group(1), 16), size, name))
            if syms:
                break
        syms.sort()
        for addr, size, name in syms:
            self.addrs.append(addr)
            self.ends.append(addr + size if size else None)
            self.names.append(name)

    def lookup(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        if i < 0 or (self.ends[i] is not None and addr >= self.ends[i]):
            return None
        return self.names[i]


def demangle(names):
    """Demangled names without their parameter lists."""
    names = sorted(names)
    out = subprocess.run(["c++filt", "-p"], input="\n".join(names) + "\n",
                         stdout=subprocess.PIPE, text=True).stdout
    return dict(zip(names, out.splitlines()))


def symbolize(maps, bases, stacks):
    """Each stack as a list of function names, innermost first."""
    starts = [m.start for m in maps]
    tables, pie = {}, {}
    raw = []
    for stack in stacks:
        frames = []
        for depth, addr in enumerate(stack):
            # Return addresses point after the call; look up the call.
            pc = addr if depth == 0 else addr - 1
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i].end:
                frames.append("[unknown]")
                continue
            m = maps[i]
            if not m.path.startswith("/"):
                frames.append(m.path or "[anonymous]")
                continue
            if m.path not in tables:
                tables[m.path] = SymbolTable(m.path)
                pie[m.path] = is_shared_object(m.path)
            vaddr = pc - bases.get(m.path, m.start) if pie[m.path] else pc
            name = tables[m.path].lookup(vaddr)
            frames.append(name or f"[{os.path.basename(m.path)}]")
        raw.append(frames)
    names = demangle({f for frames in raw for f in frames
                      if not f.startswith("[")})
    return [[names.get(f, f) for f in frames] for frames in raw]


def shares(stacks):
    self_counts = collections.Counter()
    incl_counts = collections.Counter()
    for frames in stacks:
        if frames:
            self_counts[frames[0]] += 1
        incl_counts.update(set(frames))
    return self_counts, incl_counts


def print_table(title, order, self_counts, incl_counts, total, top):
    print(f"\n{title}")
    print(f"  {'self%':>6} {'incl%':>6}  function")
    for name, _ in order.most_common(top):
        print(f"  {100.0 * self_counts[name] / total:6.1f} "
              f"{100.0 * incl_counts[name] / total:6.1f}  {name[:110]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="tiered-read")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tiny", action="store_true",
                    help="the keyspace tbbench/run.py --tiny uses")
    ap.add_argument("--exe", default="tbb_server",
                    help="base name of the program to sample")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--require", default="",
                    help="fail unless some sampled function contains this")
    args = ap.parse_args()

    wl = tb.load_workload(args.workload, args.tiny)
    tb.build()
    os.makedirs(tb.RUN_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="profile-", dir=tb.RUN_ROOT)
    try:
        so = build_sampler(workdir)
        cpu = profiled_setup(wl, workdir, so, args.exe, args.seed)
        dumps = [os.path.join(workdir, f) for f in os.listdir(workdir)
                 if f.startswith("sigprof.")]
        if not dumps:
            print(f"no {args.exe} process wrote samples", file=sys.stderr)
            return 1
        stacks = []
        for dump in dumps:
            stacks += symbolize(*parse_dump(dump))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    total = len(stacks)
    print(f"set-up of {args.workload} (seed {args.seed}"
          f"{', tiny' if args.tiny else ''}): {cpu:.3f} CPU s over all its "
          f"processes; {total} samples of {args.exe} in {len(dumps)} "
          f"process(es)")
    if total == 0:
        return 1
    self_counts, incl_counts = shares(stacks)
    for title, order in (("By inclusive share:", incl_counts),
                         ("By self share:", self_counts)):
        print_table(title, order, self_counts, incl_counts, total, args.top)
    if args.require and not any(args.require in name for name in incl_counts):
        print(f"no sampled frame names {args.require!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
