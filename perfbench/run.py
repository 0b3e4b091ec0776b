#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench` from source, runs one
workload in one process under a deadline and prints its result.

Run from the root of the repository:

    python3 perfbench/run.py --workload torus40 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py ... --out results.jsonl    # also append the full record
    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it,
prefixed `machine `, records the machine the numbers come from. See
perfbench/README.md for the workloads, metrics and layers.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# The whole command must end within 180 s once built; leave room to
# kill the child and report.
RUN_LIMIT_S = 170.0
# Sources whose digest identifies the measured code when there is no git.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def command_output(cmd, env=None):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root):
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
                files.extend(os.path.join(d, n) for n in sorted(names))
        for name in files:
            h.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine(capacity):
    root = os.getcwd()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        # Only a repository rooted here counts; git must not search above it.
        "git_rev": command_output(["git", "-C", root, "rev-parse", "HEAD"],
                                  env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))),
        "source_digest": source_digest(root),
        "cpu_model": cpu_model(),
        "parallel_capacity": capacity,
    }


def run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    if not os.path.isfile("Cargo.toml"):
        fail("run from the root of the repository")
    started = time.monotonic()
    binary = build()
    tmp = os.path.join(".bench_tmp", f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    limit = max(60.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"perfbench: {args.workload} still running after {limit:.0f} s: "
                  "counted as a hang", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            sys.exit(1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass

    lines = out.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        if lines:
            print(lines[-1])
        fail(f"{args.workload} exited with code {child.returncode}")
    detail = json.loads(lines[-2][len("detail "):])
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(names)}")
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} has unit {result['metrics'][m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")

    record = machine(detail["parallel_capacity"])
    for problem in detail["problems"]:
        print(f"perfbench: failed check: {problem}", file=sys.stderr)
    print("machine " + json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "machine": record, "samples": detail["samples"],
                                "problems": detail["problems"], "result": result}) + "\n")
    print(json.dumps(result))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """The choosing-metrics rules: a gain needs 9 of 10 pairs and a
    median shift beyond the parent's quartile spread; a regression is a
    median worse by more than the bound; a spread wider than the bound
    leaves the metric unresolved unless every change run beats every
    parent run."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles([v for _, v in base])
    c_med = statistics.median([v for _, v in change])
    by_seed = dict(base)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    if len(pairs) < len(change):
        pairs = list(zip([v for _, v in base], [v for _, v in change]))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    gain = sign * (b_med - c_med)
    spread = b_q3 - b_q1
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved"
    all_better = all(sign * (b - c) > 0 for _, b in base for _, c in change)
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -gain > spread:
            return "regressed"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    if b_med != 0 and spread / abs(b_med) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(b_med):
        return "regressed"
    return "unchanged"


def compare(args):
    spec = load_spec()

    def load(path):
        runs = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
        return runs

    base, change = load(args.base), load(args.change)
    print(f"{'workload':<16} {'metric':<28} {'parent median [q1, q3]':<44} "
          f"{'change median [q1, q3]':<44} verdict")
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in (w["name"] for w in spec["workloads"]):
            b_runs, c_runs = base.get((w, trace), []), change.get((w, trace), [])
            if not b_runs or not c_runs:
                continue
            for m in metrics:
                b = [(r["seed"], r["result"]["metrics"][m["name"]]["value"]) for r in b_runs]
                c = [(r["seed"], r["result"]["metrics"][m["name"]]["value"]) for r in c_runs]
                v = verdict(b, c, m["better"], m.get("bound"))
                cols = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] {m['unit']}"
                        for q in (quartiles([x for _, x in b]), quartiles([x for _, x in c]))]
                print(f"{w:<16} {m['name']:<28} {cols[0]:<44} {cols[1]:<44} {v} "
                      f"(n={len(b)}/{len(c)})")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="result file of the parent (from --out)")
        p.add_argument("change", help="result file of the change (from --out)")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record (machine, samples, checks) here")
    args = p.parse_args()
    if args.seed < 1 or args.seconds < 1:
        fail("--seed and --seconds must be at least 1")
    run(args)


if __name__ == "__main__":
    main()
