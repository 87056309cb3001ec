#!/usr/bin/env python3
"""The repository benchmark: open-loop socket serving of `gpmv_cli serve`.

    python3 perfbench/run.py --workload views_read --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the library, `gpmv_cli` and the
benchmark's own `perfbench` binary (perfbench/src) into `.bench_build/`, generates the
workload's inputs from the seed into `.bench_work/`, starts the server as a
separate process several times (the median start-up is `setup_s`), drives
the last one over its socket (`perfbench load`: closed-loop, open-loop and,
for read-only workloads, write-probe phases, interleaved in rounds, then the
oracle check) and stops it. `--trace 1` additionally replays the same request sequence
in-process with spans (`perfbench replay`) and reports per-layer figures
instead of the end-to-end ones.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything else (build output, progress) goes to stderr. `--root DIR`
builds and serves the sources of another checkout with this benchmark code
(perfbench/compare.py uses it for parent/change pairs).
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("views_read", "stream_mixed")
SETUP_RUNS = 25
# A run is invalid when the generator's p99 lateness behind its schedule,
# over every open-loop send, exceeds this share (the loosest bound in
# BENCHMARK.json) of the query p99 over the same phase. Every latency is
# timed from the scheduled send, so lateness is part of it; past this share
# the generator, not the server, would shape the tail.
LATE_SHARE_LIMIT = 0.25
# Share of --seconds given to each phase: (open, closed, probe).
PHASES_READ_ONLY = (0.45, 0.15, 0.4)
PHASES_MIXED = (0.8, 0.2, 0.0)

# Stands in for a latency percentile that landed on a failed request.
MISSED_MS = 1e9

END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "update_ack_p50_ms": "ms",
    "fresh_p50_ms": "ms",
    "peak_rps": "1/s",
    "setup_s": "s",
    "server_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def nproc():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def cpu_split():
    """(server CPUs, load generator CPU): the open-loop generator spins on
    the last CPU of this process's set, and the server runs on the others,
    so a send never wakes a server thread onto the generator's core. With
    one CPU both share it (generator CPU -1: not pinned)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, -1
    return cpus[:-1], cpus[-1]


def cache_value(build_dir, key):
    """A CMakeCache.txt entry of `build_dir`, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                name, _, value = line.rstrip("\n").partition("=")
                if name.split(":")[0] == key:
                    return value
    except FileNotFoundError:
        pass
    return None


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "tools", "gpmv_cli.cpp"))):
        fail("no gpmv checkout (CMakeLists.txt, tools/) at %s" % root)
    home = cache_value(build_dir, "CMAKE_HOME_DIRECTORY")
    if home is None:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", "-DGPMV_ROOT=" + root],
                       stdout=sys.stderr, check=True)
    elif (os.path.realpath(home) != os.path.realpath(HERE)
          or os.path.realpath(cache_value(build_dir, "GPMV_ROOT") or "")
          != os.path.realpath(root)):
        # Another copy of the benchmark (or another checkout) configured
        # this directory; building it would measure different code.
        fail("%s was configured from %s, not from this benchmark (%s); "
             "remove it" % (build_dir, home, HERE))
    subprocess.run(["cmake", "--build", build_dir, "-j", str(nproc())],
                   stdout=sys.stderr, check=True)


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One `gpmv_cli serve --port` process; `ready_s` is its start-up time."""

    def __init__(self, cli, graph, args, threads, cpus):
        self.port = free_port()
        cmd = [cli, "serve", graph, "--port", str(self.port),
               "--threads", str(threads)] + args
        start = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.ready_s = None
        for line in self.proc.stdout:
            if line.startswith("listening on port"):
                self.ready_s = time.monotonic() - start
                break
        if self.ready_s is None:
            self.stop()
            fail("server exited before listening: %s" % " ".join(cmd))
        # Drain the rest so the exit summary never blocks on a full pipe.
        self.drain = threading.Thread(target=self.proc.stdout.read,
                                      daemon=True)
        self.drain.start()

    def stop(self):
        """Stops the server; returns its peak RSS in MB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.01)


def run_json(cmd, timeout):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=timeout)
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("no output from %s (exit %d)" % (cmd[1], out.returncode))
    return out.returncode, json.loads(lines[-1])


def hist_avg(stats, name):
    h = (stats or {}).get("histograms", {}).get(name)
    return h["avg"] if h else 0.0


def open_hist_avg(load, name):
    """The mean of a server histogram over the open-loop slices only: the
    load generator snapshots kStats before and after each of them."""
    total = count = 0
    for before, after in load.get("stats_open") or []:
        hb = (before or {}).get("histograms", {}).get(name)
        ha = (after or {}).get("histograms", {}).get(name)
        if hb and ha:
            total += ha["sum"] - hb["sum"]
            count += ha["count"] - hb["count"]
    return total / count if count else 0.0


def counter(stats, name):
    """A counter, or a gauge of that name (the registry keeps some totals,
    such as the cache hit counts, as gauges)."""
    stats = stats or {}
    return stats.get("counters", {}).get(
        name, stats.get("gauges", {}).get(name, 0))


def gauge(stats, name):
    return (stats or {}).get("gauges", {}).get(name, 0.0)


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(load, replay):
    """The per-layer figures: server counters from the socket run's kStats
    snapshots, client-side timings, and the replay's span self-times."""
    fin = load.get("stats_final")
    request_us = open_hist_avg(load, "net.request_us")
    rc_hits = counter(fin, "result_cache.hits")
    rc_miss = counter(fin, "result_cache.misses")
    vc_hits = counter(fin, "cache.hits")
    vc_miss = counter(fin, "cache.misses")
    delta = (counter(fin, "delta.refreshes")
             + counter(fin, "delta.bounded_refreshes"))
    batches = counter(fin, "stream.batches_applied")
    initial = counter(fin, "join.initial_pairs")
    m = {
        # net
        "net.codec_us": (replay["net.codec_us"], "us"),
        "net.request_us": (request_us, "us"),
        "net.flush_wait_us": (load["open.query_mean_rtt_ms"] * 1000.0
                              - request_us, "us"),
        "net.response_bytes": (ratio(counter(fin, "net.bytes_written"),
                                     counter(fin, "net.frames_sent")),
                               "bytes"),
        "net.frames_per_flush": (ratio(counter(fin, "net.frames_sent"),
                                       counter(fin, "net.flushes")), "count"),
        # pattern
        "pattern.parse_us": (replay["pattern.parse_us"], "us"),
        # engine
        "engine.submit_us": (replay["engine.submit_us"], "us"),
        "engine.execute_us": (replay["engine.execute_us"], "us"),
        "engine.plan_us": (replay["engine.plan_us"], "us"),
        "engine.plan_match_join_share": (
            ratio(counter(fin, "engine.plans.match_join"),
                  counter(fin, "engine.queries")), "ratio"),
        "engine.result_cache_us": (replay["engine.result_cache_us"], "us"),
        "engine.result_cache.hit_rate": (ratio(rc_hits, rc_hits + rc_miss),
                                         "ratio"),
        "engine.result_cache.stale_drops": (
            counter(fin, "result_cache.stale_drops"), "count"),
        "engine.view_cache_pin_us": (replay["engine.view_cache_pin_us"], "us"),
        "engine.view_cache.hit_rate": (ratio(vc_hits, vc_hits + vc_miss),
                                       "ratio"),
        "engine.view_cache.bytes": (gauge(fin, "cache.bytes_cached"), "bytes"),
        "engine.fixpoint_us": (replay["engine.fixpoint_us"], "us"),
        "engine.queue_wait_us": (open_hist_avg(load, "query.queue_wait_us"),
                                 "us"),
        "engine.shed": (counter(fin, "engine.shed_queries"), "count"),
        # core
        "core.minimize_us": (replay["core.minimize_us"], "us"),
        "core.containment_us": (replay["core.containment_us"], "us"),
        "core.match_join_us": (replay["core.match_join_us"], "us"),
        "core.bmatch_join_us": (replay["core.bmatch_join_us"], "us"),
        "core.match_join.survive_ratio": (
            1.0 - ratio(counter(fin, "join.removed_pairs"), initial)
            if initial else 0.0, "ratio"),
        "core.match_join_over_direct": (replay["core.match_join_over_direct"],
                                        "ratio"),
        # simulation
        "simulation.direct_us": (replay["simulation.direct_us"], "us"),
        # shard
        "shard.direct_us": (replay["shard.direct_us"], "us"),
        "shard.merge_rounds_per_query": (
            replay["shard.merge_rounds_per_query"], "count"),
        "shard.messages_per_query": (replay["shard.messages_per_query"],
                                     "count"),
        # stream
        "stream.push_us": (replay["stream.push_us"], "us"),
        "stream.pushbacks": (load["pushbacks"], "count"),
        "stream.batch_size": (hist_avg(fin, "stream.batch_size"), "count"),
        "stream.publish_lag_mean_ms": (
            ratio(gauge(fin, "stream.publish_lag_ms_total"), batches), "ms"),
        "stream.publish_lag_max_ms": (gauge(fin, "stream.publish_lag_ms_max"),
                                      "ms"),
        # update / maintenance
        "update.apply_us": (hist_avg(fin, "update.apply_us"), "us"),
        "update.delete_phase_us": (hist_avg(fin, "update.delete_phase_us"),
                                   "us"),
        "update.insert_phase_us": (hist_avg(fin, "update.insert_phase_us"),
                                   "us"),
        "maintenance.delta_share": (
            ratio(delta, delta + counter(fin, "delta.fallbacks")), "ratio"),
        # graph / mvcc
        "graph.refreeze_us": (replay["graph.refreeze_us"], "us"),
        "mvcc.ryw_wait_us": (replay["mvcc.ryw_wait_us"], "us"),
        # setup
        "setup.load_s": (replay["setup.load_s"], "s"),
        "setup.freeze_s": (replay["setup.freeze_s"], "s"),
        "setup.engine_s": (replay["setup.engine_s"], "s"),
        "setup.warm_views_s": (replay["setup.warm_views_s"], "s"),
        # validity of the decomposition and of the load
        "residual_share": (replay["residual_share"], "ratio"),
        "trace.overhead_share": (replay["trace.overhead_share"], "ratio"),
        "loadgen.late_p99_ms": (load["late_p99_ms"], "ms"),
        # the tails that are recorded but not gated (see README.md)
        "loadgen.query_p90_ms": (load["open.query_p90_ms"] or MISSED_MS, "ms"),
        "loadgen.query_p99_ms": (load["open.query_p99_ms"] or MISSED_MS, "ms"),
        "loadgen.update_ack_p90_ms": (load["write.ack_p90_ms"] or MISSED_MS,
                                      "ms"),
        "loadgen.update_ack_p99_ms": (load["write.ack_p99_ms"] or MISSED_MS,
                                      "ms"),
        "loadgen.fresh_p90_ms": (load["write.fresh_p90_ms"] or MISSED_MS,
                                 "ms"),
        "loadgen.fresh_p99_ms": (load["write.fresh_p99_ms"] or MISSED_MS,
                                 "ms"),
        "loadgen.error_rate": (ratio(load["errors"], load["attempted"]),
                               "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose sources are built and served")
    a = ap.parse_args()

    root = os.path.abspath(a.root)
    # Another checkout's own `.bench_build` belongs to its own copy of the
    # benchmark, so serving it from here builds into a directory of its own.
    own = os.path.realpath(root) == os.path.realpath(os.path.dirname(HERE))
    build_dir = os.path.join(
        root, ".bench_build" if own else ".bench_build_compare")
    work = os.path.join(root, ".bench_work", a.workload)
    build(root, build_dir)
    os.makedirs(work, exist_ok=True)
    cli = os.path.join(build_dir, "gpmv", "gpmv_cli")
    tool = os.path.join(build_dir, "perfbench")

    _, gen = run_json([tool, "gen", "--workload", a.workload,
                       "--dir", work], 120)
    log("inputs: %s" % json.dumps(gen))
    threads = nproc()
    server_cpus, gen_cpu = cpu_split()
    graph = os.path.join(work, "graph.txt")

    setups = []
    server = None
    for i in range(SETUP_RUNS):
        server = Server(cli, graph, gen["server_args"], threads, server_cpus)
        setups.append(server.ready_s)
        if i + 1 < SETUP_RUNS:
            server.stop()

    split = PHASES_READ_ONLY if gen["write_probe"] else PHASES_MIXED
    open_s, closed_s, probe_s = (a.seconds * f for f in split)
    try:
        rc, load = run_json(
            [tool, "load", "--workload", a.workload, "--seed", str(a.seed),
             "--dir", work, "--port", str(server.port),
             "--conns", str(threads), "--open-s", str(open_s),
             "--closed-s", str(closed_s), "--probe-s", str(probe_s),
             "--pin-cpu", str(gen_cpu)],
            a.seconds + 60)
    finally:
        rss_mb = server.stop()
    if rc != 0:
        fail("load generator failed (exit %d)" % rc)
    with open(os.path.join(work, "load.json"), "w") as f:
        json.dump(load, f)
    log("load: %s" % json.dumps({k: v for k, v in load.items()
                                 if not k.startswith("stats")}))

    late_ok = load["late_p99_ms"] <= LATE_SHARE_LIMIT * (
        load["open.query_p99_ms"] or MISSED_MS)
    if not late_ok:
        log("INVALID: generator p99 lateness %.3f ms exceeds %.0f%% of the "
            "query p99 %.3f ms" % (load["late_p99_ms"], 100 * LATE_SHARE_LIMIT,
                                   load["open.query_p99_ms"]))
    if not load["oracle_ok"]:
        log("ORACLE: %s" % load["oracle_error"])
    correct = bool(load["oracle_ok"]) and late_ok

    if a.trace:
        rc, replay = run_json(
            [tool, "replay", "--workload", a.workload, "--seed", str(a.seed),
             "--dir", work, "--threads", str(threads),
             "--open-s", str(open_s), "--probe-s", str(probe_s)], 60)
        log("replay: %s" % json.dumps(replay))
        correct = correct and rc == 0
        metrics = per_layer(load, replay)
    else:
        values = {
            "query_p50_ms": load["open.query_p50_ms"],
            "update_ack_p50_ms": load["write.ack_p50_ms"],
            "fresh_p50_ms": load["write.fresh_p50_ms"],
            "peak_rps": load["peak_rps"],
            "setup_s": statistics.median(setups),
            "server_rss_mb": rss_mb,
        }
        # A percentile that landed on a failed request is infinite (null in
        # the load generator's JSON); it is reported as MISSED_MS.
        metrics = {name: {"value": MISSED_MS if v is None else float(v),
                          "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
        log("samples: open queries=%d, write acks=%d, fresh probes=%d; "
            "setup runs=%s" % (load["open.query_n"], load["write.ack_n"],
                               load["write.fresh_n"],
                               ["%.3f" % s for s in setups]))
    print(json.dumps({"correct": correct,
                      "attempted": int(load["attempted"]),
                      "failed": int(load["errors"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
