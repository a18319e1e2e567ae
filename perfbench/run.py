#!/usr/bin/env python3
"""Benchmark of the BClean pipeline: one command, three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wide-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

For one workload it builds the `bclean` binary and the `perfbench` measuring
binary from source (into $CARGO_TARGET_DIR, default `.bench_build`), writes
the workload's inputs for the seed twice and checks the bytes agree, runs
the measurement in a fresh process, checks the outputs, and prints a
human-readable summary followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics. `--workload all` runs every workload
untraced and then traced, prints every metric with its unit and the tracing
overhead, and exits non-zero if any correctness check failed. Everything the
benchmark writes stays under `.bench_work/` and the build directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ["wide-batch", "hospital-stream", "hospital-serve"]
WORKER_TIMEOUT_S = 170
# Per-layer counts that must repeat exactly across traced runs of one seed.
DETERMINISTIC_LAYERS = [
    "data.encoded.distinct_values", "bayesnet.structure.edges", "core.cleaner.cells_examined",
    "core.cleaner.cells_skipped", "core.cleaner.candidates_evaluated", "core.cleaner.repairs",
    "core.stream.chunks", "core.stream.peak_bytes", "store.persist.artifact_bytes",
]


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Build `bclean` and `perfbench`; return their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise BenchError("the product sources (Cargo.toml, crates/) are not in this checkout")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    for args in (["-p", "bclean-cli"], ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        command = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}")
    return os.path.join(target, "release", "bclean"), os.path.join(target, "release", "perfbench")


def kill_tree(pid):
    """SIGKILL a process and its descendants (the daemon a worker started)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                parent = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if parent == pid:
            kill_tree(int(entry))
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def file_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def source_digest():
    """Digest of the sources the benchmark builds (the checkout has no git)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if not d.startswith(".") and d != "target")
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "source_digest": source_digest(),
    }


def run_workload(binaries, workload, seed, seconds, trace, host):
    """Generate, measure and check one workload; return its record."""
    bclean, perfbench = binaries
    base = os.path.join(WORK, workload, f"seed-{seed}")
    gen_a, gen_b, out = (os.path.join(base, d) for d in ("gen-a", "gen-b", f"out-trace{trace}"))
    for d in (gen_a, gen_b, out):
        shutil.rmtree(d, ignore_errors=True)
    checks = []
    for d in (gen_a, gen_b):
        done = subprocess.run([perfbench, "gen", "--workload", workload, "--seed", str(seed), "--out", d])
        if done.returncode != 0:
            raise BenchError(f"input generation failed for {workload}")
    same = file_digests(gen_a) == file_digests(gen_b)
    checks.append({"name": "inputs_repeat_for_seed", "ok": same, "detail": "two generations, byte-compared"})
    shutil.rmtree(gen_b)

    command = [perfbench, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--data", gen_a, "--out", out, "--bclean", bclean]
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_tree(worker.pid)
        worker.wait()
        raise BenchError(f"{workload} measurement ran past {WORKER_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise BenchError(f"{workload} measurement failed (exit {worker.returncode})")
    record = json.loads(lines[-1])
    # Keep only the record and the spans: inputs and outputs are megabytes a
    # run, and the seed regenerates them.
    shutil.rmtree(gen_a)
    for name in os.listdir(out):
        if name != "spans.jsonl":
            os.remove(os.path.join(out, name))

    # The same seed must give the same repairs, artifact and counts on
    # every run of the same sources.
    if trace:
        record["digests"].update({name: record["layers"][name] for name in DETERMINISTIC_LAYERS})
    digest_path = os.path.join(WORK, "digests", f"{workload}-seed{seed}-trace{trace}-{host['source_digest']}.json")
    if os.path.exists(digest_path):
        with open(digest_path) as f:
            previous = json.load(f)
        ok = previous == record["digests"]
        checks.append({"name": "results_repeat_across_runs", "ok": ok,
                       "detail": f"previous {previous}, now {record['digests']}"})
    else:
        os.makedirs(os.path.dirname(digest_path), exist_ok=True)
        with open(digest_path, "w") as f:
            json.dump(record["digests"], f)
    record["checks"].extend(checks)
    record["attempted"] += len(checks)
    record["failed"] += sum(1 for c in checks if not c["ok"])
    for c in checks:
        if not c["ok"]:
            log(f"check {c['name']} FAILED: {c['detail']}")
    detail = record["detail"]
    record["host"] = dict(host, seed=seed, rows=detail.get("rows") or detail.get("model_rows"),
                          threads=detail["threads"], workers=detail.get("workers", 0),
                          connections=detail.get("connections", 0))

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    if trace:
        untraced_path = os.path.join(results, f"{workload}-seed{seed}-trace0.json")
        if os.path.exists(untraced_path):
            with open(untraced_path) as f:
                untraced = json.load(f)
            if untraced["host"]["source_digest"] == host["source_digest"]:
                record["tracing_overhead"] = {
                    name: record["metrics"][name] - untraced["metrics"][name] for name in record["metrics"]
                }
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def summary(record):
    named = ", ".join(f"{m['name']} {'n/a' if m['value'] is None else format(m['value'], '.6g')} {m['unit']}"
                      for m in record["named_metrics"])
    lines = [f"{record['workload']} seed {record['seed']}: {named}"]
    host = record["host"]
    lines.append(f"  host: nproc {host['nproc']}, cpu {host['cpu_model']}, source {host['source_digest']}, "
                 f"commit {host['commit']}, rows {host['rows']}, threads {host['threads']}, "
                 f"workers {host['workers']}, connections {host['connections']}")
    if "layers" in record:
        busiest = sorted(record["self_time_s"].items(), key=lambda kv: -kv[1])[:6]
        lines.append("  self time: " + ", ".join(f"{k} {v:.3f} s" for k, v in busiest))
        lines.append(f"  trace coverage {record['layers']['trace.coverage']:.3f}")
        if record["detail"].get("read_encode_share") is not None:
            lines.append(f"  chunk read + encode share of clean_stream: {record['detail']['read_encode_share']:.4f}")
    if "tracing_overhead" in record:
        lines.append("  tracing overhead: " + ", ".join(f"{k} {v:+.4g}" for k, v in record["tracing_overhead"].items()))
    return "\n".join(lines)


def result_line(bench, record, trace):
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    source = record["layers"] if trace else record["metrics"]
    metrics = {}
    for spec in specs:
        value = source.get(spec["name"])
        if not isinstance(value, (int, float)):
            raise BenchError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        binaries = build()
        host = host_facts()
        if args.workload != "all":
            record = run_workload(binaries, args.workload, args.seed, args.seconds, args.trace, host)
            line = result_line(bench, record, args.trace)
            print(summary(record))
            print(json.dumps(line), flush=True)
            return 0 if line["correct"] else 1
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                record = run_workload(binaries, workload, args.seed, args.seconds, trace, host)
                line = result_line(bench, record, trace)
                print(summary(record), flush=True)
                correct &= line["correct"]
                attempted += line["attempted"]
                failed += line["failed"]
                if trace == 0:
                    for m in record["named_metrics"]:
                        metrics[f"{workload}/{m['name']}"] = {"value": m["value"], "unit": m["unit"]}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
