#!/usr/bin/env python3
"""Set-up cost of two checkouts, measured in alternating pairs.

    python3 scripts/ab_setup.py --base DIR --change DIR --workload proxy-hot
        [--pairs 10] [--seed 1] [--tiny]

Imports each checkout's tbbench/run.py (read-only; nothing under tbbench/
changes), builds both benchmarks as run.py does, then runs --pairs pairs of
set-ups (launch, preload, warm-up, quiesce) through each run.py's own
setup_once, one set-up per side per pair. The side that runs first swaps
every pair, and both sides of a pair use the same seed (--seed plus the
pair's index). Each set-up records what tbbench/run.py reports for it: the
CPU seconds of every process it started, and the servers' resident bytes
per logical user byte once quiesced. When set-up is done, each server
process's CPU seconds, voluntary context switches (summed over its live
threads) and resident size are read from /proc as well.

It prints, per side, the median and quartiles of set-up CPU seconds and of
resident bytes per user byte, how many pairs the change won on each (lower
is better; ties count for neither), and the median CPU seconds, voluntary
context switches and resident size of each server process.
"""

import argparse
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile

sys.dont_write_bytecode = True  # Leave no cache files in tbbench/.


def load_run_py(checkout, tag):
    """The checkout's tbbench/run.py as a module of its own."""
    path = os.path.join(os.path.abspath(checkout), "tbbench", "run.py")
    if not os.path.exists(path):
        sys.exit(f"no tbbench/run.py in {checkout}")
    spec = importlib.util.spec_from_file_location(f"tbbench_run_{tag}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def proc_stats(pid):
    """(name, CPU s, voluntary context switches over live threads, resident
    MB)."""
    with open(f"/proc/{pid}/stat") as f:
        text = f.read()
    name = text[text.index("(") + 1:text.rindex(")")]
    fields = text.rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{pid}/status") as f:
        rss = next(int(line.split()[1]) / 1024.0 for line in f
                   if line.startswith("VmRSS:"))
    switches = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                for line in f:
                    if line.startswith("voluntary_ctxt_switches:"):
                        switches += int(line.split()[1])
        except OSError:
            pass  # The thread ended.
    return name, cpu, switches, rss


def one_setup(tb, wl, seed, logical):
    """One set-up of `wl` with checkout `tb`: (CPU s, rss per user byte,
    {process label: (CPU s, voluntary switches, resident MB)})."""
    budget = logical // wl["cache_ratio_x"] if wl["cache_ratio_x"] else 0
    os.makedirs(tb.RUN_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ab-", dir=tb.RUN_ROOT)
    procs = tb.Procs(workdir, tb.server_cpus(wl))
    try:
        topo, cpu, rss = tb.setup_once(wl, procs, workdir, budget, False,
                                       seed, "ab")
        per_proc = {}
        for i, pid in enumerate(topo.server_pids):
            name, *stats = proc_stats(pid)
            per_proc[f"{i}:{name}"] = stats
        topo.stop()
    finally:
        procs.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    return cpu, rss / logical, per_proc


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="the parent checkout")
    ap.add_argument("--change", required=True, help="the changed checkout")
    ap.add_argument("--workload", default="proxy-hot")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tiny", action="store_true",
                    help="the keyspace tbbench/run.py --tiny uses")
    args = ap.parse_args()

    sides = {"base": load_run_py(args.base, "base"),
             "change": load_run_py(args.change, "change")}
    wls = {}
    for side, tb in sides.items():
        tb.build()
        wls[side] = tb.load_workload(args.workload, args.tiny)

    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
        for side in order:
            tb, wl = sides[side], wls[side]
            logical = tb.run_driver(["--mode", "describe"] +
                                    tb.driver_args(wl, seed))["logical_bytes"]
            cpu, rss, per_proc = one_setup(tb, wl, seed, logical)
            runs[side].append((cpu, rss, per_proc))
            print(f"pair {pair + 1}/{args.pairs} seed {seed} {side:6}: "
                  f"set-up {cpu:.3f} CPU s, rss/user byte {rss:.4f}",
                  flush=True)

    print(f"\n{args.workload}{' (tiny)' if args.tiny else ''}, "
          f"{args.pairs} pairs; median [quartiles]")
    for index, metric in ((0, "set-up CPU s"), (1, "rss per user byte")):
        for side in sides:
            q1, q2, q3 = quartiles([r[index] for r in runs[side]])
            print(f"  {metric:18} {side:6}: {q2:.4f} [{q1:.4f}-{q3:.4f}]")
        wins = sum(c[index] < b[index]
                   for b, c in zip(runs["base"], runs["change"]))
        print(f"  {metric:18} change lower in {wins}/{args.pairs} pairs")
    print("\nper server process at the end of set-up, medians:")
    for side in sides:
        for label in runs[side][0][2]:
            cpu, switches, rss = (
                statistics.median(r[2][label][k] for r in runs[side])
                for k in range(3))
            print(f"  {side:6} {label:24} {cpu:7.3f} CPU s "
                  f"{switches:8.0f} voluntary switches {rss:8.1f} MB rss")
    return 0


if __name__ == "__main__":
    sys.exit(main())
