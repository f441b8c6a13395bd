#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload <hit-path|miss-path|reconfig> \
        --seed <n> --seconds <s> --trace <0|1>

builds the `perfbench` package (its own Cargo package, path-depending on the
simulator crates) into $CARGO_TARGET_DIR (default `.bench_build`), runs one
measurement, and passes the binary's output through: the last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}. With
`--trace 1` the spans are written to
`<target dir>/perfbench-spans/<workload>-<seed>.json`.

    python3 perfbench/run.py --workload <w> --seed <n> --seconds <s> --repeat <k>

runs k back-to-back measurements on seeds n, n+1, ... (all on seed n with
`--same-seed`, which separates machine drift from differences between the
seeds' traces), and prints each metric's median, quartiles, min and max,
and its interquartile spread as a share of the median next to the bound
BENCHMARK.json fixes for it.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
# A run must finish well inside the 180 s a measurement is allowed.
RUN_TIMEOUT_S = 170


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PACKAGE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def child_env():
    # Start from a clean simulator configuration: no inherited knobs, and
    # the process-wide graph cache off so every set-up repetition pays for
    # generating its power-law graph, as a fresh process would.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NDPX_")}
    env["NDPX_GRAPH_CACHE"] = "0"
    return env


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout text)."""
    cmd = [str(target_dir() / "release" / "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = target_dir() / "perfbench-spans" / f"{workload}-{seed}.json"
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    except OSError as e:
        print(f"perfbench: cannot run the benchmark binary: {e}", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    """The result object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def repeat(args):
    runs = []
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, args.trace)
        result = result_of(out)
        if code != 0 or result is None:
            print(f"perfbench: run with seed {seed} failed", file=sys.stderr)
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        runs.append((result, values))
    bound = bounds()
    print(f"\n{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} "
          f"{'max':>14} {'iqr/med':>8} {'bound':>6}")
    for name in runs[0][1]:
        vals = [v[name] for _, v in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        b = bound.get(name)
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {min(vals):>14.6g} "
              f"{max(vals):>14.6g} {spread:>8.4f} {b if b is not None else '-':>6}")
    failed = sum(r["failed"] for r, _ in runs)
    print(f"\n{len(runs)} runs, {failed} failed checks")
    return 0 if failed == 0 else 1


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and waits for
    # the running child before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0xBEEF)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds back to back and summarise the spread")
    parser.add_argument("--same-seed", action="store_true",
                        help="with --repeat, run every repetition on --seed")
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.repeat > 0:
        return repeat(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result_of(out) is None:
        print(f"perfbench: the benchmark failed (exit code {code})", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
