#!/usr/bin/env python3
"""Job-time benchmark of the Deca reproduction.

Usage (from the repository root):

    python3 jobbench/run.py --workload lr-cache --seed 1 --seconds 30 --trace 0

Builds `jobbench/` (a package of its own) with cargo, then measures the
workload in Spark mode and in Deca mode, each in its own process so that
its peak RSS is that mode's alone; the two processes take turns in chunks.
Every job's checksum is checked against a one-executor Deca run of the same
job and, for the seeds in `references.json`, against the recorded value.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced jobs
and prints the per-layer ledger. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

`--record 0-49` recomputes `references.json` for the given seeds.
See jobbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("lr-cache", "wc-shuffle", "svc-mix")
MODES = ("spark", "deca")
# Share of the measuring time each mode gets: Spark jobs are the slow ones.
SPARK_SHARE = {"lr-cache": 0.5, "wc-shuffle": 0.6, "svc-mix": 0.5}
# Measuring chunks per mode; the modes alternate chunk by chunk.
CHUNKS = 8
# Untimed warm-up jobs before a standalone mode's measured jobs.
WARMUP = {"lr-cache": {"spark": 1, "deca": 3}, "wc-shuffle": {"spark": 1, "deca": 1}}
# Knobs the benchmark pins; cleared from the children's environment.
PINNED_ENV = ("DECA_GC_PLAN", "DECA_GC_THREADS", "DECA_SCHEDULER", "DECA_SHUFFLE_COPY",
              "DECA_BENCH_SCALE")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the measuring binary; return its path (None on failure)."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(ROOT, target, "release", "deca-jobbench")
    return binary if os.path.isfile(binary) else None


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["RUST_BACKTRACE"] = "0"
    return env


def run_child(binary, args):
    """Run one process to completion; return its last JSON line."""
    return Child(binary, args, stdin=False).finish()


class Child:
    """One measuring process, driven line by line."""

    def __init__(self, binary, args, stdin=True):
        self.what = " ".join(args[:5])
        self.proc = subprocess.Popen([binary] + args, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                                     stdout=subprocess.PIPE)

    def line(self):
        text = self.proc.stdout.readline()
        if not text:
            self.finish()
            raise RuntimeError(f"{self.what}: no output")
        return json.loads(text)

    def chunk(self, ms):
        self.proc.stdin.write(f"run {ms}\n")
        self.proc.stdin.flush()
        return self.line()

    def finish(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        lines = self.proc.stdout.read().strip().splitlines()
        self.proc.stdout.close()
        if self.proc.wait() != 0 or not lines:
            raise RuntimeError(f"{self.what} exited with {self.proc.returncode}")
        return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100])."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Checker:
    """Counts jobs and failures; a failure is an error, a panic, or a
    checksum that differs from the reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors = []

    def jobs(self, jobs, where):
        for j in jobs:
            self.attempted += 1
            if j["error"] is not None:
                self.failed += 1
                self.errors.append(f"{where}: {j['error']}")
            elif j["checksum"] != self.reference[j["variant"]]:
                self.failed += 1
                self.mismatches += 1
                self.errors.append(f"{where}: variant {j['variant']} checksum "
                                   f"{j['checksum']} != reference {self.reference[j['variant']]}")


def references(binary, workload, seed):
    """Per-variant reference checksums for `seed`, plus whether they
    agree with the recorded ones (None when the seed is not recorded)."""
    doc = run_child(binary, ["reference", "--workload", workload, "--seed", str(seed),
                                "--out", OUT])
    computed = [j["checksum"] for j in doc["jobs"]]
    errors = [j["error"] for j in doc["jobs"] if j["error"] is not None]
    if errors:
        raise RuntimeError(f"reference run failed: {errors[0]}")
    recorded = None
    if os.path.isfile(REFERENCES):
        with open(REFERENCES) as f:
            recorded = json.load(f).get(workload, {}).get(str(seed))
    return computed, (None if recorded is None else recorded == computed)


def measure(binary, workload, seed, seconds, checker):
    """Start one process per mode (set-up and warm-up run one at a time),
    then alternate their measuring chunks so that both modes sample the
    whole run rather than one half of it each."""
    children = {}
    for mode in MODES:
        children[mode] = Child(binary, [
            "measure", "--workload", workload, "--mode", mode, "--seed", str(seed),
            "--out", OUT, "--warmup", str(WARMUP.get(workload, {}).get(mode, 0))])
        children[mode].line()  # {"ready": true}
    walls = {mode: [] for mode in MODES}
    window = {mode: 0.0 for mode in MODES}
    spent = {mode: 0.0 for mode in MODES}
    peaks = {mode: [] for mode in MODES}
    for i in range(CHUNKS):
        for mode in (MODES if i % 2 == 0 else MODES[::-1]):
            share = SPARK_SHARE[workload] if mode == "spark" else 1 - SPARK_SHARE[workload]
            # Size each chunk to what is left of the mode's share, so a
            # chunk that overran (a job never stops half-way) is paid back.
            left = seconds * share - spent[mode]
            start = time.monotonic()
            doc = children[mode].chunk(max(0, int(left * 1000 / (CHUNKS - i))))
            spent[mode] += time.monotonic() - start
            checker.jobs(doc["jobs"], mode)
            walls[mode] += [j["wall_s"] for j in doc["jobs"] if j["error"] is None]
            window[mode] += doc["window_s"]
            peaks[mode].append(doc["peak_rss_mb"])
    metrics = {}
    setups = []
    for mode in MODES:
        doc = children[mode].finish()
        checker.jobs(doc["warmup"], f"{mode} warm-up")
        setups += doc["setup_s"]
        log(f"[{workload}/{mode}] env {json.dumps(doc['env'], sort_keys=True)}")
        log(f"[{workload}/{mode}] {len(walls[mode])} jobs measured in {CHUNKS} chunks, "
            f"{len(doc['warmup'])} warm-up, {len(doc['setup_s'])} set-ups")
        if not walls[mode]:
            continue
        metrics[f"{mode}_job_s"] = (statistics.median(walls[mode]), "s")
        metrics[f"{mode}_job_p95_s"] = (percentile(walls[mode], 95), "s")
        metrics[f"{mode}_jobs_per_s"] = (len(walls[mode]) / window[mode], "1/s")
        metrics[f"{mode}_peak_rss_mb"] = (statistics.median(peaks[mode]), "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    return metrics


def trace(binary, workload, seed, seconds, checker):
    metrics = {}
    reconciled = True
    for mode in MODES:
        args = ["trace", "--workload", workload, "--mode", mode, "--seed", str(seed),
                "--budget-ms", str(int(seconds * 1000 / 2)), "--out", OUT]
        doc = run_child(binary, args)
        checker.jobs(doc["jobs"], f"{mode} traced")
        r = doc["reconcile"]
        log(f"[{workload}/{mode}] env {json.dumps(doc['env'], sort_keys=True)}")
        log(f"[{workload}/{mode}] ledger over {r['jobs']} job(s): wall {r['wall_s']:.6f} s = "
            f"datagen {r['datagen_s']:.6f} + stage wall {r['stage_wall_s']:.6f} + "
            f"unattributed {r['unattributed_s']:.6f} + residual {r['residual_s']:.6f} "
            f"(tolerance {r['tolerance_s']:.6f}: {'holds' if r['holds'] else 'FAILS'})")
        log(f"[{workload}/{mode}] chrome trace: {os.path.relpath(doc['chrome_trace'], ROOT)}")
        reconciled = reconciled and r["holds"]
        for name, value, unit in doc["ledger"]:
            metrics[name] = (value, unit)
    return metrics, reconciled


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(binary, seeds):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in seeds:
            computed, _ = references(binary, workload, seed)
            table[workload][str(seed)] = computed
            log(f"recorded {workload} seed {seed}")
    with open(REFERENCES, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS", help="recompute references.json, e.g. 0-49")
    args = ap.parse_args()
    if args.record is None and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("jobbench: build failed")
        return 1
    os.makedirs(OUT, exist_ok=True)
    if args.record is not None:
        record(binary, parse_seeds(args.record))
        return 0

    reference, recorded_ok = references(binary, args.workload, args.seed)
    checker = Checker(reference)
    if args.trace:
        metrics, reconciled = trace(binary, args.workload, args.seed, args.seconds, checker)
    else:
        metrics = measure(binary, args.workload, args.seed, args.seconds, checker)
        reconciled = True
    fail_ratio = checker.failed / max(checker.attempted, 1)
    if args.trace:
        metrics["fail_ratio"] = (fail_ratio, "ratio")

    log(f"[{args.workload}] seed {args.seed}: reference "
        + {None: "not recorded for this seed (one-executor run only)",
           True: "matches the recorded one", False: "DIFFERS from the recorded one"}[recorded_ok])
    for e in checker.errors[:10]:
        log(f"[{args.workload}] failed: {e}")
    for name, (value, unit) in metrics.items():
        if name != "fail_ratio":
            print(f"{name:42s} {value:16.6f} {unit}")
    print(f"{'fail_ratio':42s} {fail_ratio:16.6f} ratio "
          f"({checker.failed} of {checker.attempted} jobs)")

    correct = checker.mismatches == 0 and recorded_ok is not False and reconciled
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
