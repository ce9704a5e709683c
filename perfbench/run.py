#!/usr/bin/env python3
"""Wall-clock benchmark of the vsd serving stack and Verilog analysis.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed_shared --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the `vsd_perfbench` runner, linked against the
repository's own layer libraries) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload once and prints, as the last line
of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a second, traced
pass of the same inputs.  The runner (bench.cpp) fixes every workload's
parameters; perfbench/README.md defines the metrics and maps each layer
metric to the end-to-end metric it should move.  A line before the result
reports operation counts, the latency sample count and host noise (steal
share, process CPU time).
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s of starting, its build aside.
RUNNER_TIMEOUT_S = 170.0


# --- the benchmark's own arithmetic ------------------------------------------

def p90_supported(values, beyond=10):
    """Nearest-rank p90, or None unless at least `beyond` samples exceed it.

    This is the tail-percentile rule: report the highest percentile with at
    least ten samples beyond it, which for p90 needs 100 operations.
    """
    n = len(values)
    if n == 0:
        return None
    rank = math.ceil(0.9 * n)
    if n - rank < beyond:
        return None
    return sorted(values)[rank - 1]


def fold_spans(events):
    """Folds Chrome-trace complete ('X') events into self times, per lane.

    A span's self time is its duration minus the part of it that its direct
    children on the same lane (tid) cover.  Returns (self_us, total_us,
    child_self_us): per-name sums of self time and of duration, and per
    parent name the summed self time of its direct children.
    """
    lanes = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            lanes[e.get("tid", 0)].append(
                (float(e["ts"]), float(e["ts"]) + float(e["dur"]), e["name"]))
    self_us = defaultdict(float)
    total_us = defaultdict(float)
    child_self_us = defaultdict(float)

    def close(node):
        start, end, name, covered, parent = node
        own = max(0.0, (end - start) - covered)
        self_us[name] += own
        total_us[name] += end - start
        if parent is not None:
            child_self_us[parent[2]] += own

    for spans in lanes.values():
        # Parents first when spans start together: longer span first.
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for start, end, name in spans:
            while stack and start >= stack[-1][1]:
                close(stack.pop())
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[3] += max(0.0, min(end, parent[1]) - start)
            stack.append([start, end, name, 0.0, parent])
        while stack:
            close(stack.pop())
    return self_us, total_us, child_self_us


def closure(child_self_us, total_us):
    """Share of total tick time that the self times of the tick's child
    spans account for."""
    total = total_us.get("tick", 0.0)
    return child_self_us.get("tick", 0.0) / total if total > 0 else 0.0


def self_check():
    """Checks the arithmetic above on hand-built inputs; returns failures."""
    failures = []
    if p90_supported(list(range(1, 101))) != 90:
        failures.append("p90 of 1..100 must be 90 with 10 samples beyond")
    if p90_supported(list(range(1, 100))) is not None:
        failures.append("p90 of 99 samples has only 9 beyond and must be refused")
    if p90_supported(list(range(200, 0, -1))) != 180:
        failures.append("p90 of 1..200 must be 180")
    # Lane 1: tick [0,100) with propose [0,30), score [30,60), accept
    # [60,95) and, inside accept, a nested [70,80); admit [100,110);
    # tick [110,200) with propose [110,150).  Lane 2: a check span
    # [0,500) that must not nest into lane 1.
    events = [
        {"ph": "X", "tid": 1, "name": "tick", "ts": 0, "dur": 100},
        {"ph": "X", "tid": 1, "name": "propose", "ts": 0, "dur": 30},
        {"ph": "X", "tid": 1, "name": "score", "ts": 30, "dur": 30},
        {"ph": "X", "tid": 1, "name": "accept", "ts": 60, "dur": 35},
        {"ph": "X", "tid": 1, "name": "inner", "ts": 70, "dur": 10},
        {"ph": "X", "tid": 1, "name": "admit", "ts": 100, "dur": 10},
        {"ph": "X", "tid": 1, "name": "tick", "ts": 110, "dur": 90},
        {"ph": "X", "tid": 1, "name": "propose", "ts": 110, "dur": 40},
        {"ph": "X", "tid": 2, "name": "check", "ts": 0, "dur": 500},
        {"ph": "C", "tid": 1, "name": "queue.depth", "ts": 5},
    ]
    self_us, total_us, child = fold_spans(events)
    want_self = {"tick": 5 + 50, "propose": 70, "score": 30, "accept": 25,
                 "inner": 10, "admit": 10, "check": 500}
    for name, want in want_self.items():
        if abs(self_us[name] - want) > 1e-9:
            failures.append(f"self time of {name}: {self_us[name]} != {want}")
    if abs(total_us["tick"] - 190) > 1e-9:
        failures.append("total tick time must be 190")
    # Children of tick: propose 70 + score 30 + accept 25 = 125 of 190.
    if abs(closure(child, total_us) - 125 / 190) > 1e-12:
        failures.append(f"closure {closure(child, total_us)} != 125/190")
    return failures


# --- build and run ----------------------------------------------------------

def build(build_dir):
    """Configures (once) and builds the runner; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "vsd_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "vsd_perfbench")


# --- metrics ----------------------------------------------------------------

def operations(p, slo_s):
    """(attempted, failed, latencies of good ops, ops within the limit)."""
    lat = p["latency_s"]
    ok = p["ok"]
    good = [l for l, g in zip(lat, ok) if g and l >= 0]
    attempted = len(lat)  # refused requests stay in the list, never completed
    within = sum(1 for l in good if l <= slo_s)
    return attempted, attempted - len(good), good, within


def end_to_end(raw):
    p = raw["pass"]
    attempted, _, good, within = operations(p, raw["slo_s"])
    ok = [g for g in p["ok"] if g]
    tokens = sum(t for t, g in zip(p["op_tokens"], p["ok"]) if g)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_p50_s": statistics.median(good) if good else None,
        "latency_p90_s": p90_supported(good),
        # Correct work over the timed wall.
        "throughput_tok_s": tokens / p["wall_s"],
        "files_per_s": len(ok) / p["wall_s"],
        "slo_met_frac": within / attempted,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, trace_events):
    plain = raw["pass"]
    t = raw["traced"]
    # Set-up parts: dataset, tokenizer corpus, BPE and training on the serve
    # workload; on analyze_corpus the corpus generation is data.build_s.
    m = dict(raw.get("setup_parts", {}))
    if raw["kind"] == "analyze":
        m["data.build_s"] = statistics.median(raw["setup_s"])
        files = len(t["latency_s"])
        per_file = sum(t["latency_s"])
        layer_s = sum(t[k] for k in ("lex_s", "parse_s", "lint_s", "dataflow_s", "diff_s"))
        diffs = t["diff_checks"]
        m.update({
            "vlog.lex_s": t["lex_s"],
            "vlog.parse_s": t["parse_s"],
            "vlog.lint_s": t["lint_s"],
            "vlog.dataflow_s": t["dataflow_s"],
            "vlog.tokens": t["tokens"],
            "vlog.diagnostics": t["diagnostics"],
            "vlog.lint_clean_frac": t["lint_clean"] / files,
            "vlog.elab_clean_frac": t["elab_clean"] / files,
            "sim.diff_s": t["diff_s"],
            "sim.diff_checks": diffs,
            "sim.equiv_frac": t["equivalent"] / diffs if diffs else 0.0,
            "trace.closure_frac": layer_s / per_file if per_file > 0 else 0.0,
            "trace.overhead_frac": ((t["wall_s"] - t["lex_s"]) / files)
                                   / (plain["wall_s"] / len(plain["latency_s"])) - 1.0,
        })
    else:
        self_us, total_us, child = fold_spans(trace_events)
        span_s = lambda name: self_us.get(name, 0.0) / 1e6
        steps = t["steps"]
        fed = t["positions"] - t["prefill_positions"]
        lookups = t["cache_hits"] + t["cache_misses"]
        prompt_positions = t["cached_positions"] + t["prefill_positions"]
        checks = t["checks_pass"] + t["checks_fail"]
        rows, passes = t["fused_rows"], t["fused_passes"]
        dv = t["d_model"] * t["vocab"]
        overhead = ((t["tick_sum_s"] / t["tokens"])
                    / (plain["tick_sum_s"] / plain["tokens"]) - 1.0)
        m.update({
            "text.encode_s": raw["encode_s"],
            "text.decode_s": t["decode_text_s"],
            "serve.queue.wait_p50_s": t["queue_wait_p50_s"],
            "serve.queue.depth_end": t["depth_end"],
            "serve.ticks": t["ticks"],
            "serve.tick_p50_s": t["tick_p50_s"],
            "serve.occupancy_mean": t["occupancy_mean"],
            "serve.ttft_p50_s": t["ttft_p50_s"],
            "serve.admit_s": span_s("admit"),
            "serve.gather_s": span_s("gather"),
            "serve.scatter_s": span_s("scatter"),
            "serve.idle_s": t["run_wall_s"] - (total_us.get("tick", 0.0)
                                                + total_us.get("admit", 0.0)) / 1e6,
            "spec.steps": steps,
            "spec.tokens": t["tokens"],
            "spec.accept_len_mean": t["tokens"] / steps if steps else 0.0,
            "spec.useful_feed_frac": t["tokens"] / fed if fed else 0.0,
            "spec.propose_s": span_s("propose"),
            "spec.accept_s": span_s("accept"),
            "nn.fused_passes": passes,
            "nn.rows_per_pass": rows / passes if passes else 0.0,
            "nn.prefill_positions": t["prefill_positions"],
            "nn.score_gflop": 2.0 * rows * dv / 1e9,
            "nn.score_weight_gb": passes * dv * 4 / 1e9,
            "nn.score_s": span_s("score"),
            "serve.cache.hit_frac": t["cache_hits"] / lookups if lookups else 0.0,
            "serve.cache.prefill_saved_frac": (t["cached_positions"] / prompt_positions
                                               if prompt_positions else 0.0),
            "serve.cache.insertions": t["cache_insertions"],
            "serve.cache.evictions": t["cache_evictions"],
            "serve.cache.lookup_p50_s": t["cache_lookup_p50_s"],
            "serve.cache.bytes": t["cache_bytes"],
            "nn.kv.cow_clones": t["kv_cow_clones"],
            "nn.kv.pages_shared": t["kv_pages_shared"],
            "serve.capture_s": span_s("capture"),
            "serve.check.lint_p50_s": t.get("check_lint_p50_s", 0.0),
            "serve.check.elab_p50_s": t.get("check_elab_p50_s", 0.0),
            "serve.check.pass_frac": t["checks_pass"] / checks if checks else 0.0,
            "trace.closure_frac": closure(child, total_us),
            "trace.overhead_frac": overhead,
        })
    m["host.steal_frac"] = raw["host_steal_frac"]
    m["proc.cpu_s"] = raw["proc_cpu_s"]
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources are missing; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    failures = self_check()
    if failures:
        sys.exit("perfbench: self-check failed: " + "; ".join(failures))

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")),
        "perfbench")
    try:
        runner = build(build_dir)
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")

    trace_file = os.path.join(build_dir, f"trace-{os.getpid()}.json")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the runner overran its time limit")
    if proc.returncode != 0:
        sys.exit(f"perfbench: the runner exited with {proc.returncode}")
    raw = json.loads(proc.stdout)

    attempted, failed, good, _ = operations(raw["pass"], raw["slo_s"])
    # Every run must support its p90 with ten samples beyond it.
    supported = p90_supported(good) is not None
    if args.trace:
        trace_events = []
        if raw["kind"] != "analyze":
            with open(trace_file) as f:
                trace_events = json.load(f)["traceEvents"]
            os.remove(trace_file)
        t_attempted, t_failed, _, _ = operations(raw["traced"], raw["slo_s"])
        attempted += t_attempted
        failed += t_failed
        metrics = per_layer(raw, trace_events)
        wanted = bench["per_layer"]
    else:
        metrics = end_to_end(raw)
        wanted = bench["end_to_end"]
    correct = failed == 0 and supported and int(raw.get("trace_dropped", 0)) == 0
    print(f"# {args.workload} seed={args.seed}: sent={attempted} succeeded={attempted - failed}"
          f" failed={failed} latency samples={len(good)}"
          f" host.steal_frac={raw['host_steal_frac']:.4f} proc.cpu_s={raw['proc_cpu_s']:.2f}"
          + (f" digest={raw['digest']}" if "digest" in raw else
             f" serve.queue.depth_end={raw['pass']['depth_end']:.0f}"))
    # A layer this workload does not exercise reports 0.
    result = {m["name"]: {"value": metrics.get(m["name"]) or 0.0, "unit": m["unit"]}
              for m in wanted}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
