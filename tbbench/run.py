#!/usr/bin/env python3
"""TierBase benchmark: one workload, one run, one JSON line.

    python3 tbbench/run.py --workload cache-hot --seed 1 --seconds 10 --trace 0

Builds the benchmark (tbbench/CMakeLists.txt, which pulls in the library
from the checkout) into .bench_build, starts the workload's server
processes, sets them up several times (launch, preload, warm-up) and keeps
the last set-up for the measured run. The driver process then runs the
closed loop, the open loop at the workload's fixed rate and the rate
ladder, reading INFO, LATENCY, PERF and the server's own stats only
between phases. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 a separate traced run carries the per-layer ones.

Every GET is checked against the versions the driver wrote, the servers'
counters are reconciled with the driver's counts, and tiered-write is read
back after a graceful restart. Any mismatch sets "correct" to false.

--tiny runs every workload end to end at a tiny scale (a smoke test).
"""

import argparse
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_ROOT = os.path.join(ROOT, ".bench_run")


def log(msg):
    print(f"[tbbench] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", "include", "examples"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no TierBase sources in {ROOT} (missing {need})")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "tbbench_all",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    tests = subprocess.run([os.path.join(BUILD, "tbb_tests")],
                           stdout=sys.stderr, stderr=sys.stderr)
    if tests.returncode != 0:
        raise BenchError("the benchmark's own tests failed")


def binary(name):
    return os.path.join(BUILD, name)


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

# The driver runs on the first CPU and the server side on the next
# `server_cpus` (a workload setting), so the load generator never takes a
# CPU from the servers and every run places the processes the same way.
# With one CPU everything shares it.
CPUS = sorted(os.sched_getaffinity(0))
DRIVER_CPUS = set(CPUS[:1])


def server_cpus(wl):
    return set(CPUS[1:1 + wl["server_cpus"]]) or DRIVER_CPUS


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


class Procs:
    """Every process this run starts, pinned to `cpus`; all are stopped and
    reaped."""

    def __init__(self, workdir, cpus):
        self.workdir = workdir
        self.cpus = cpus
        self.live = []

    def start(self, name, argv):
        out = open(os.path.join(self.workdir, name + ".log"), "ab")
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                             preexec_fn=pinned(self.cpus))
        out.close()
        self.live.append(p)
        return p

    def stop_all(self):
        for p in self.live:
            if p.poll() is None:
                p.terminate()
        deadline = time.time() + 10
        for p in self.live:
            try:
                p.wait(timeout=max(0.1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.live = []


def wait_port(path, proc, timeout=30):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if os.path.exists(path):
            text = open(path).read().strip()
            if text:
                return int(text)
        if proc.poll() is not None:
            raise BenchError(f"{proc.args[0]} exited during start-up")
        time.sleep(0.005)
    raise BenchError(f"{proc.args[0]} never wrote {path}")


def resp(port, *args, timeout=30):
    """One admin command outside the measured phases (set-up and teardown)."""
    payload = f"*{len(args)}\r\n".encode()
    for a in args:
        a = str(a).encode()
        payload += b"$%d\r\n%s\r\n" % (len(a), a)
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(payload)
        data = b""
        while b"\r\n" not in data:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    line = data.split(b"\r\n", 1)[0].decode(errors="replace")
    if line.startswith("-"):
        raise BenchError(f"{args[0]} on port {port}: {line}")
    return line


def shutdown(port, proc, timeout=60):
    try:
        resp(port, "SHUTDOWN", timeout=timeout)
    except (OSError, BenchError):
        pass
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{proc.args[0]} did not shut down")
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[0]} exited with {proc.returncode}")


class Topology:
    """The server side of one workload: one tbb_server, or a coordinator,
    cache-only cluster nodes and a tierbase_proxy."""

    def __init__(self, wl, procs, workdir, budget, trace, tag):
        self.wl, self.procs, self.workdir = wl, procs, workdir
        self.budget, self.trace, self.tag = budget, trace, tag
        self.data_dir = os.path.join(workdir, "data")
        self.stats_file = os.path.join(workdir, f"stats-{tag}.json")
        self.spans_file = os.path.join(workdir, f"server-spans-{tag}.csv")
        self.port = None
        self.node_ports = []
        self.server_pids = []   # CPU and RSS are summed over these.
        self.stats_pids = []    # These answer SIGUSR1 with a stats file.
        self.stoppable = []     # (port, proc), shut down in this order.

    def start(self):
        wl = self.wl
        for name in os.listdir(self.workdir):
            if name.endswith(f"-{self.tag}") or name == f"port-{self.tag}":
                os.remove(os.path.join(self.workdir, name))  # Stale port files.
        if wl["topology"] == "single":
            os.makedirs(self.data_dir, exist_ok=True)
            pf = os.path.join(self.workdir, f"port-{self.tag}")
            argv = [binary("tbb_server"), "--port-file", pf,
                    "--policy", wl["policy"], "--dir", self.data_dir,
                    "--memory-budget", str(self.budget),
                    "--stats-file", self.stats_file]
            for k in ("memtable_bytes", "block_cache_bytes"):
                if k in wl:
                    argv += ["--" + k.replace("_", "-"), str(wl[k])]
            if self.trace:
                argv += ["--spans-file", self.spans_file]
            p = self.procs.start(f"server-{self.tag}", argv + wl["server_flags"])
            self.port = wait_port(pf, p)
            self.server_pids = [p.pid]
            self.stats_pids = [p.pid]
            self.stoppable = [(self.port, p)]
            return
        cpf = os.path.join(self.workdir, f"coord-{self.tag}")
        coord = self.procs.start(f"coord-{self.tag}",
                                 [binary("tierbase_coordinator"), "--port", "0",
                                  "--port-file", cpf])
        nodes = []
        for i in range(wl["nodes"]):
            pf = os.path.join(self.workdir, f"node{i}-{self.tag}")
            nodes.append((pf, self.procs.start(
                f"node{i}-{self.tag}",
                [binary("tierbase_server"), "--port", "0", "--port-file", pf,
                 "--cluster-id", f"n{i}"] + wl["server_flags"])))
        cport = wait_port(cpf, coord)
        for i, (pf, p) in enumerate(nodes):
            port = wait_port(pf, p)
            self.node_ports.append(port)
            resp(cport, "CLUSTER", "ADDNODE", f"n{i}", "127.0.0.1", port)
        ppf = os.path.join(self.workdir, f"proxy-{self.tag}")
        proxy = self.procs.start(
            f"proxy-{self.tag}",
            [binary("tierbase_proxy"), "--coordinator", f"127.0.0.1:{cport}",
             "--port", "0", "--port-file", ppf] + wl["server_flags"][2:])
        self.port = wait_port(ppf, proxy)
        self.server_pids = [proxy.pid] + [p.pid for _, p in nodes]
        self.stoppable = ([(self.port, proxy)] +
                          [(port, p) for port, (_, p) in
                           zip(self.node_ports, nodes)] + [(cport, coord)])

    def quiesce(self):
        """Flush write-back and let the LSM finish pending flushes and
        compactions, so the measured phases start from the same storage
        state (and the same resident memory) on every run."""
        before = open(self.stats_file).read() if \
            os.path.exists(self.stats_file) else ""
        for pid in self.stats_pids:
            os.kill(pid, signal.SIGHUP)
        deadline = time.time() + 120
        while self.stats_pids and time.time() < deadline:
            if os.path.exists(self.stats_file) and \
                    open(self.stats_file).read() not in ("", before):
                return
            time.sleep(0.005)
        if self.stats_pids:
            raise BenchError("server never finished quiescing")

    def stop(self):
        for port, p in self.stoppable:
            shutdown(port, p)
        self.stoppable = []


def driver_args(wl, seed):
    return ["--seed", str(seed), "--keys", str(wl["keys"]),
            "--value-min", str(wl["value_min"]),
            "--value-max", str(wl["value_max"]),
            "--theta", str(wl["theta"]),
            "--set-fraction", str(wl["set_fraction"]),
            "--conns", str(wl["conns"]), "--window", str(wl["window"])]


def run_driver(argv, timeout=170):
    p = subprocess.run([binary("tbb_driver")] + argv, stdout=subprocess.PIPE,
                       stderr=sys.stderr, timeout=timeout,
                       preexec_fn=pinned(DRIVER_CPUS))
    if p.returncode != 0:
        raise BenchError(f"tbb_driver {argv[1]} failed ({p.returncode})")
    return json.loads(p.stdout.decode().strip().splitlines()[-1])


def cpu_seconds(pid):
    """User plus system CPU of a live process, threads that ended included."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def rss_bytes(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise BenchError(f"no resident size for pid {pid}")


def children_cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------

def load_workload(name, tiny):
    cfg = json.load(open(os.path.join(BENCH_DIR, "workloads.json")))
    if name not in cfg["workloads"]:
        raise BenchError(f"unknown workload {name}")
    wl = dict(cfg["defaults"])
    wl.update(cfg["workloads"][name])
    wl["name"] = name
    if tiny:
        # Same code paths, a keyspace small enough to run in seconds.
        scale = 50
        wl["keys"] = max(2000, wl["keys"] // scale)
        wl["warmup_ops"] = max(1000, wl["warmup_ops"] // scale)
        wl["setup_repeats"] = 1
        wl["rounds"] = 2
        if "memtable_bytes" in wl:
            wl["memtable_bytes"] = 1 << 20
    return wl


def phase_plan(wl, seconds, ladder):
    """Splits --seconds between the phases. The untraced run, whose bounded
    metrics come from the closed loop, skips the ladder and gives its time
    to the closed and open loops."""
    if not ladder:
        return seconds * 0.8, seconds * 0.2, 0.0
    return (seconds * wl["closed_share"], seconds * wl["open_share"],
            seconds * wl["ladder_share"] / max(1, len(wl["ladder"])))


def setup_once(wl, procs, workdir, budget, trace, seed, tag):
    """Launch -> servers up -> keyspace preloaded -> warm-up done -> storage
    quiesced. Returns the topology, the set-up's CPU seconds and the
    servers' resident bytes once quiesced. The CPU seconds are user plus
    system CPU of every process set-up started (servers and the driver): CPU
    time counts the work set-up does and not the time its processes wait,
    for each other or for a CPU, which wall time on a shared host swings
    with."""
    data = os.path.join(workdir, "data")
    shutil.rmtree(data, ignore_errors=True)
    t0 = time.perf_counter()
    first = len(procs.live)
    driver0 = children_cpu_seconds()
    topo = Topology(wl, procs, workdir, budget, trace, tag)
    topo.start()
    run_driver(["--mode", "setup", "--port", str(topo.port),
                "--warmup-ops", str(wl["warmup_ops"])] + driver_args(wl, seed))
    driver_cpu = children_cpu_seconds() - driver0
    topo.quiesce()
    cpu = driver_cpu + sum(cpu_seconds(p.pid) for p in procs.live[first:])
    rss = sum(rss_bytes(pid) for pid in topo.server_pids)
    log(f"set-up {tag}: {cpu:.3f} CPU s, {time.perf_counter() - t0:.3f} s "
        f"wall, {rss} resident bytes")
    return topo, cpu, rss


def measured_run(wl, topo, seed, seconds, trace, workdir, tag, ladder):
    closed_s, open_s, step_s = phase_plan(wl, seconds, ladder)
    argv = ["--mode", "run", "--port", str(topo.port),
            "--rounds", str(wl["rounds"]),
            "--closed-s", str(closed_s), "--open-s", str(open_s),
            "--open-rate", str(wl["open_rate"]),
            "--step-s", str(step_s),
            "--ladder", ",".join(str(r) for r in wl["ladder"]) if ladder else "",
            "--trace", "1" if trace else "0",
            "--cpu-pids", ",".join(str(p) for p in topo.server_pids),
            "--versions-file", os.path.join(workdir, f"versions-{tag}.bin"),
            "--spans-file", os.path.join(workdir, f"driver-spans-{tag}.csv"),
            ] + driver_args(wl, seed)
    if "closed_rate" in wl:
        argv += ["--closed-ops", str(int(closed_s * wl["closed_rate"]))]
    if topo.stats_pids:
        argv += ["--stats-pids", ",".join(str(p) for p in topo.stats_pids),
                 "--stats-files", topo.stats_file]
    if topo.node_ports:
        argv += ["--node-ports", ",".join(str(p) for p in topo.node_ports),
                 "--proxy", "1"]
    return run_driver(argv)


def delta(a, b, key):
    return b.get(key, 0) - a.get(key, 0)


def reconcile(wl, out, problems):
    """The server-side counters must add up to what the driver did."""
    phases = run_ops(out)
    gets = sum(p["gets"] for p in phases)
    sets = sum(p["sets"] for p in phases)
    A, C = out["A"], out["C"]
    if wl["topology"] == "single":
        info_a, info_c = A["info"], C["info"]
        if delta(info_a, info_c, "gets") != gets:
            problems.append(f"INFO gets delta {delta(info_a, info_c, 'gets')} "
                            f"!= driver GETs {gets}")
        if delta(info_a, info_c, "sets") != sets:
            problems.append(f"INFO sets delta {delta(info_a, info_c, 'sets')} "
                            f"!= driver SETs {sets}")
        admin = C["admin_before"] - A["admin_before"]
        cmds = delta(info_a, info_c, "total_commands_processed")
        if cmds != gets + sets + admin:
            problems.append(f"total_commands_processed delta {cmds} != "
                            f"{gets + sets} ops + {admin} admin")
    else:
        ng = sum(delta(a, c, "gets") for a, c in zip(A["nodes"], C["nodes"]))
        ns = sum(delta(a, c, "sets") for a, c in zip(A["nodes"], C["nodes"]))
        if ng != gets or ns != sets:
            problems.append(f"node INFO gets/sets {ng}/{ns} != driver "
                            f"{gets}/{sets}")
    for sa, sc in zip(A["stats"], C["stats"]):
        for kind in ("reads", "writes", "batch_calls"):
            rk, ck = f"remote.{kind}", f"storage.counted_{kind}"
            if delta(sa, sc, rk) != delta(sa, sc, ck):
                problems.append(f"decorator {ck} delta {delta(sa, sc, ck)} != "
                                f"StorageAdapter::counters() {delta(sa, sc, rk)}")
    if wl["policy"] == "cache-only":
        info = [(A["info"], C["info"])] if wl["topology"] == "single" else \
            list(zip(A["nodes"], C["nodes"]))
        hits = sum(delta(a, c, "keyspace_hits") for a, c in info)
        misses = sum(delta(a, c, "keyspace_misses") for a, c in info)
        calls = sum(delta(sa, sc, k) for sa, sc in zip(A["stats"], C["stats"])
                    for k in ("remote.reads", "remote.writes"))
        if misses != 0 or hits != gets:
            problems.append(f"cache-only hit ratio is not 1.0 "
                            f"({hits} hits, {misses} misses, {gets} GETs)")
        if calls != 0:
            problems.append(f"cache-only workload made {calls} storage calls")
    return gets, sets


def sustained(wl, ladder):
    """The highest ladder step (offered kops) whose p99 over all its ops is
    within the workload's limit, whose achieved rate is at least 98% of the
    offered one, and where no op failed; 0 if no step passes."""
    best = 0
    for rate, step in zip(wl["ladder"], ladder):
        achieved = (step["gets"] + step["sets"]) / step["secs"]
        if (step["all"]["p99"] <= wl["p99_limit_us"] and
                achieved >= 0.98 * rate and
                step["failed"] + step["wrong"] == 0):
            best = max(best, rate)
    return best / 1000.0


def run_ops(out):
    """Every op the driver sent during the measured run."""
    phases = [out["closed"], out["open"]] + out["ladder"]
    if "closed_untraced" in out:
        phases.append(out["closed_untraced"])
    return phases


def end_to_end(out, setups, rss):
    """The bounded metrics: the ones this benchmark can hold steady on a
    shared 4-vCPU machine whose speed swings wall-clock rates, and CPU time
    with them, by 2-5x between runs. Memory per byte is the cost model's
    space side; set-up CPU time keeps work from moving into set-up."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        # Taken after each set-up: the loaded keyspace, before the measured
        # phases move the memtable through its fill cycle. The median over
        # set-ups, because heap fragmentation varies with how the server's
        # threads interleave.
        "server_rss_bytes_per_user_byte": (
            statistics.median(rss) / out["logical_bytes"], "ratio"),
    }


def wall_clock(wl, out):
    """Throughput, latency and CPU per op, reported unbounded with the
    per-layer metrics (see end_to_end). Throughput and CPU come from the
    closed windows that ran with tracing off."""
    opn = out["open"]
    plain = out["closed_untraced"]
    return {
        "e2e.throughput_kops": plain["kops_median"],
        # The performance side of the cost model: server CPU over the
        # closed windows, their background work included (see tbb_driver's
        # Run), per op.
        "e2e.server_cpu_us_per_op": sum(out["closed_cpu_s"]) * 1e6 /
        max(1, plain["gets"] + plain["sets"]),
        "e2e.get_p50_us": opn["get"]["p50"],
        "e2e.get_p99_us": opn["get"]["p99"],
        "e2e.set_p50_us": opn["set"]["p50"],
        "e2e.set_p99_us": opn["set"]["p99"],
        "e2e.sustained_kops": sustained(wl, out["ladder"]),
    }


PER_LAYER_UNITS = {
    "e2e.throughput_kops": "kops",
    "e2e.get_p50_us": "us",
    "e2e.get_p99_us": "us",
    "e2e.set_p50_us": "us",
    "e2e.set_p99_us": "us",
    "e2e.sustained_kops": "kops",
    "e2e.server_cpu_us_per_op": "us/op",
    "server.parse_us_per_cmd": "us/cmd",
    "server.queue_wait_us_per_cmd": "us/cmd",
    "server.cmds_per_batch": "cmds/batch",
    "server.coalesced_ratio": "ratio",
    "server.get_p99_us_srv": "us",
    "server.wire_gap_p50_us": "us",
    "threading.active_threads": "count",
    "threading.scale_ups": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions_per_op": "1/op",
    "cache.bytes_per_key": "bytes/key",
    "cache.get_ns": "ns",
    "cache.set_ns": "ns",
    "core.get_ns": "ns",
    "core.set_ns": "ns",
    "core.storage_calls_per_op": "1/op",
    "core.fetch_keys_per_call": "keys/call",
    "core.storage_read_us_per_miss": "us/miss",
    "core.storage_write_us_per_set": "us/set",
    "core.wb_ops_per_flush": "ops/flush",
    "core.wb_absorbed_ratio": "ratio",
    "core.wb_backpressure_waits": "count",
    "lsm.read_us_p50": "us",
    "lsm.read_us_p99": "us",
    "lsm.write_batch_us_p99": "us",
    "lsm.write_stalls": "count",
    "lsm.write_amp": "ratio",
    "lsm.flushes": "count",
    "lsm.compactions": "count",
    "lsm.disk_bytes_per_user_byte": "ratio",
    "cluster_net.hop_get_p50_us": "us",
    "cluster_net.node_cmds_per_batch": "cmds/batch",
    "cluster_net.proxy_cpu_us_per_op": "us/op",
    "driver.gen_lag_p99_us": "us",
    "driver.error_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.storage_self_us_per_call": "us/call",
    "trace.driver_idle_ratio": "ratio",
}


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(wl, out, rungs, disk_bytes, direct_get_p50, spans):
    A, C = out["A"], out["C"]
    ops = sum(p["gets"] + p["sets"] for p in run_ops(out))
    perf = out.get("perf", {})
    single = wl["topology"] == "single"
    info_pairs = [(A["info"], C["info"])] if single else \
        list(zip(A["nodes"], C["nodes"]))

    def info_delta(key):
        return sum(delta(a, c, key) for a, c in info_pairs)

    def info_now(key):
        return sum(c.get(key, 0) for _, c in info_pairs)

    sa = A["stats"][0] if A["stats"] else {}
    sc = C["stats"][0] if C["stats"] else {}

    def sdelta(key):
        return delta(sa, sc, key)

    cmds = info_delta("total_commands_processed")
    storage_calls = sum(sdelta(f"storage.{k}.calls") for k in
                        ("read", "multi_read", "write", "write_batch"))
    read_kind = "multi_read" if sdelta("lsm.multi_read.calls") >= \
        sdelta("lsm.read.calls") else "read"
    write_kind = "write_batch" if sdelta("lsm.write_batch.calls") >= \
        sdelta("lsm.write.calls") else "write"
    user_written = sdelta("lsm.write.bytes") + sdelta("lsm.write_batch.bytes")
    lsm_written = sdelta("lsm.bytes_flushed") + sdelta("lsm.bytes_compacted")
    opn = out["open"]
    srv_get_p50 = C["info"].get("cmd_get_latency_us.p50", 0) if single else \
        statistics.median([c.get("cmd_get_latency_us.p50", 0)
                           for c in C["nodes"]])
    proxy_cpu = 0.0
    if not single:
        proxy_cpu = (C["cpu_s"][0] - A["cpu_s"][0]) * 1e6 / max(1, ops)
    untraced = out["closed_untraced"]["kops_median"]
    traced = out["closed"]["kops_median"]
    m = wall_clock(wl, out)
    m.update({
        "server.parse_us_per_cmd": ratio(perf.get("parse_micros", 0),
                                         perf.get("commands", 0)),
        "server.queue_wait_us_per_cmd": ratio(perf.get("queue_wait_micros", 0),
                                              perf.get("commands", 0)),
        "server.cmds_per_batch": ratio(cmds, info_delta("dispatched_batches")),
        "server.coalesced_ratio": ratio(info_delta("coalesced_commands"), cmds),
        "server.get_p99_us_srv": C["info"].get("cmd_get_latency_us.p99", 0)
        if single else max(c.get("cmd_get_latency_us.p99", 0)
                           for c in C["nodes"]),
        "server.wire_gap_p50_us": opn["get"]["p50"] - srv_get_p50,
        "threading.active_threads": info_now("active_threads"),
        "threading.scale_ups": info_delta("executor_scale_ups"),
        "cache.hit_ratio": ratio(info_delta("keyspace_hits"),
                                 info_delta("gets")),
        "cache.evictions_per_op": ratio(info_delta("evicted_keys"), ops),
        "cache.bytes_per_key": ratio(info_now("bytes_cached"),
                                     info_now("keys_cached")),
        "cache.get_ns": rungs.get("cache.get_ns", 0),
        "cache.set_ns": rungs.get("cache.set_ns", 0),
        "core.get_ns": rungs.get("core.get_ns", 0),
        "core.set_ns": rungs.get("core.set_ns", 0),
        "core.storage_calls_per_op": ratio(storage_calls, ops),
        "core.fetch_keys_per_call": ratio(sdelta("df.fetches"),
                                          sdelta("df.batch_calls")),
        "core.storage_read_us_per_miss": ratio(
            sdelta("storage.read.us") + sdelta("storage.multi_read.us"),
            sdelta("core.cache_misses")),
        "core.storage_write_us_per_set": ratio(
            sdelta("storage.write.us") + sdelta("storage.write_batch.us"),
            sdelta("core.sets")),
        "core.wb_ops_per_flush": ratio(sdelta("wb.flushed_ops"),
                                       sdelta("wb.flush_batches")),
        "core.wb_absorbed_ratio": 1 - ratio(sdelta("wb.flushed_ops"),
                                            sdelta("core.sets"))
        if wl["policy"] == "write-back" else 0.0,
        "core.wb_backpressure_waits": sdelta("wb.backpressure_waits"),
        "lsm.read_us_p50": sc.get(f"lsm.{read_kind}.win_p50_us", 0),
        "lsm.read_us_p99": sc.get(f"lsm.{read_kind}.win_p99_us", 0),
        "lsm.write_batch_us_p99": sc.get(f"lsm.{write_kind}.win_p99_us", 0),
        "lsm.write_stalls": sdelta("lsm.write_stalls"),
        "lsm.write_amp": ratio(lsm_written, user_written),
        "lsm.flushes": sdelta("lsm.flushes"),
        "lsm.compactions": sdelta("lsm.compactions"),
        "lsm.disk_bytes_per_user_byte": ratio(disk_bytes, out["logical_bytes"]),
        "cluster_net.hop_get_p50_us": opn["get"]["p50"] - direct_get_p50
        if direct_get_p50 is not None else 0.0,
        "cluster_net.node_cmds_per_batch": 0.0 if single else
        ratio(info_delta("total_commands_processed"),
              info_delta("dispatched_batches")),
        "cluster_net.proxy_cpu_us_per_op": proxy_cpu,
        "driver.gen_lag_p99_us": opn["lag"]["p99"],
        "driver.error_ratio": 0.0,
        "trace.overhead": ratio(untraced, traced) - 1 if traced else 0.0,
        "trace.storage_self_us_per_call": spans.get("storage_self_us", 0.0),
        "trace.driver_idle_ratio": spans.get("driver_idle_ratio", 0.0),
    })
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in m.items()}


def span_summary(server_spans, driver_out):
    """Self times, which tbb_server and tbb_driver compute from their spans:
    storage spans minus their LSM child spans (the modeled round trip plus
    decorator overhead), and the share of each measured phase with no
    request in flight."""
    out = {}
    if os.path.exists(server_spans + ".self.json"):
        with open(server_spans + ".self.json") as f:
            storage = [v for k, v in json.load(f).items()
                       if k.startswith("storage.")]
        calls = sum(v["count"] for v in storage)
        out["storage_self_us"] = ratio(sum(v["self_us"] for v in storage),
                                       calls)
    s = driver_out.get("spans", {})
    phase = [v for k, v in s.items() if k.startswith("driver.phase.")]
    tot = sum(v["total_us"] for v in phase)
    out["driver_idle_ratio"] = sum(v["self_us"] for v in phase) / tot if tot else 0.0
    return out


def run(args):
    wl = load_workload(args.workload, args.tiny)
    build()
    os.makedirs(RUN_ROOT, exist_ok=True)
    workdir = os.path.join(RUN_ROOT, f"{wl['name']}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    procs = Procs(workdir, server_cpus(wl))
    problems = []
    try:
        logical = run_driver(["--mode", "describe"] +
                             driver_args(wl, args.seed))["logical_bytes"]
        budget = logical // wl["cache_ratio_x"] if wl["cache_ratio_x"] else 0

        setups, rss = [], []
        topo = None
        for i in range(wl["setup_repeats"]):
            topo, secs, resident = setup_once(wl, procs, workdir, budget,
                                              args.trace, args.seed, f"s{i}")
            setups.append(secs)
            rss.append(resident)
            if i + 1 < wl["setup_repeats"]:
                topo.stop()
                procs.stop_all()
        log(f"set-up CPU {['%.3f' % s for s in setups]} s")

        out = measured_run(wl, topo, args.seed, args.seconds, args.trace,
                           workdir, topo.tag, ladder=bool(args.trace))
        topo.stop()
        procs.stop_all()
        disk = dir_bytes(os.path.join(workdir, "data"))

        phases = [(name, out[name]) for name in
                  ("closed", "closed_untraced", "open") if name in out]
        phases += [(f"ladder[{i}]", ph) for i, ph in enumerate(out["ladder"])]
        for name, ph in phases:
            if ph["wrong"]:
                problems.append(f"{name}: {ph['wrong']} wrong or stale values "
                                f"{ph['verdicts']}")
            if ph["failed"]:
                problems.append(f"{name}: {ph['failed']} failed ops")
        lag = out["open"]["lag"]["p99"]
        if lag > wl["gen_lag_limit_us"]:
            problems.append(f"generator lag p99 {lag:.0f} us exceeds "
                            f"{wl['gen_lag_limit_us']} us")
        gets, sets = reconcile(wl, out, problems)

        if wl.get("verify_restart_sample"):
            topo2 = Topology(wl, procs, workdir, budget, False, "restart")
            topo2.start()
            v = run_driver(["--mode", "verify", "--port", str(topo2.port),
                            "--verify-sample", str(wl["verify_restart_sample"]),
                            "--versions-file",
                            os.path.join(workdir, f"versions-{topo.tag}.bin")] +
                           driver_args(wl, args.seed))
            topo2.stop()
            procs.stop_all()
            log(f"restart read-back: {v}")
            if v["failed"] or v["wrong"] or v["rewritten"] == 0:
                problems.append(f"restart read-back failed: {v}")

        attempted = gets + sets
        failed = sum(p["failed"] + p["wrong"] for p in run_ops(out))
        if not args.trace:
            metrics = end_to_end(out, setups, rss)
        else:
            rungs = run_rungs(wl, args, workdir, budget)
            direct = None
            if wl["topology"] == "proxy":
                direct = direct_get_p50(wl, procs, workdir, args)
            spans = span_summary(topo.spans_file, out)
            metrics = per_layer(wl, out, rungs, disk, direct, spans)
            metrics["driver.error_ratio"] = (failed / max(1, attempted), "ratio")
            if rungs.get("wrong"):
                problems.append(f"direct-call rungs read {rungs['wrong']} "
                                f"wrong values")
        for p in problems:
            log("CHECK FAILED: " + p)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                        metrics.items()},
        }
    finally:
        procs.stop_all()
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)
    return result


def run_rungs(wl, args, workdir, budget):
    argv = [binary("tbb_rungs"), "--seed", str(args.seed),
            "--keys", str(wl["keys"]), "--value-min", str(wl["value_min"]),
            "--value-max", str(wl["value_max"]), "--theta", str(wl["theta"]),
            "--set-fraction", str(wl["set_fraction"]),
            "--seconds", str(max(0.5, args.seconds / 10)),
            "--policy", wl["policy"], "--dir", os.path.join(workdir, "rungs"),
            "--memory-budget", str(budget)]
    for k in ("memtable_bytes", "block_cache_bytes"):
        if k in wl:
            argv += ["--" + k.replace("_", "-"), str(wl[k])]
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                       timeout=170)
    if p.returncode != 0:
        raise BenchError("tbb_rungs failed")
    return json.loads(p.stdout.decode().strip().splitlines()[-1])


def direct_get_p50(wl, procs, workdir, args):
    """The cache-hot shape against one direct node at proxy-hot's rate, for
    the proxy hop's share of GET p50."""
    direct = dict(wl)
    direct.update(topology="single", ladder=[])
    topo, _, _ = setup_once(direct, procs, workdir, 0, False, args.seed, "direct")
    out = measured_run(direct, topo, args.seed, args.seconds / 2, False,
                       workdir, "direct", ladder=False)
    topo.stop()
    procs.stop_all()
    return out["open"]["get"]["p50"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--tiny", action="store_true",
                    help="run every workload end to end at a tiny scale")
    ap.add_argument("--keep", action="store_true",
                    help="keep the run directory under .bench_run")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.tiny:
            names = [args.workload] if args.workload else \
                list(json.load(open(os.path.join(BENCH_DIR, "workloads.json")))
                     ["workloads"])
            ok = True
            args.seconds = min(args.seconds, 2)
            for name in names:
                for trace in (0, 1):
                    args.workload, args.trace = name, trace
                    r = run(args)
                    log(f"tiny {name} trace={trace}: correct={r['correct']}")
                    print(json.dumps(r))
                    ok = ok and r["correct"]
            return 0 if ok else 1
        if not args.workload:
            ap.error("--workload is required")
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
