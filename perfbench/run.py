#!/usr/bin/env python3
"""Build the af-serve daemon and the perfbench driver from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload flood-mix --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-check

Builds go to $CARGO_TARGET_DIR (default: .bench_build at the repository
root). Every other argument is passed to the perfbench binary (see
perfbench/src/main.rs); its standard output, whose last line is the JSON
result, passes through unchanged. Build output goes to standard error.

--self-check is the benchmark's own smoke test: it checks that the metric
and workload names the binary emits are exactly those of BENCHMARK.json,
runs the benchmark's unit tests, and runs every workload at smoke size,
traced and untraced, checking the shape and correctness of each result.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(
        ["cargo", *args, "--release", "--offline", "--quiet"],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"run.py: cargo {' '.join(args)} failed")


def build():
    cargo("build", "-p", "af-serve", "--bin", "af-serve")
    cargo("build", "--manifest-path", MANIFEST)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "af-serve")


def bench(perfbench, daemon, args, capture=False):
    return subprocess.run(
        [perfbench, "--daemon", daemon, *args], cwd=ROOT,
        stdout=subprocess.PIPE if capture else None, text=True,
    )


def self_check(perfbench, daemon):
    described = json.loads(subprocess.run(
        [perfbench, "--describe"], check=True, stdout=subprocess.PIPE, text=True,
    ).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def same(what, ours, theirs):
        if ours != theirs:
            problems.append(f"{what}: perfbench emits {ours}, BENCHMARK.json lists {theirs}")

    same("workloads", described["workloads"], [w["name"] for w in spec["workloads"]])
    for kind in ("end_to_end", "per_layer"):
        same(kind, [(m["name"], m["unit"], m["better"]) for m in described[kind]],
             [(m["name"], m["unit"], m["better"]) for m in spec[kind]])

    cargo("test", "--manifest-path", MANIFEST)

    for workload in described["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            before = len(problems)
            done = bench(perfbench, daemon, args, capture=True)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}\n{done.stdout}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in described[kind]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{label}: not correct\n{done.stdout}")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append(f"{label}: attempted {result.get('attempted')}")
            if got != want:
                problems.append(f"{label}: metrics {got} instead of {want}")
            for name, m in result.get("metrics", {}).items():
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} = {value!r}")
                elif trace == 0 and value == 0:
                    problems.append(f"{label}: end-to-end metric {name} is 0")
            status = "ok" if len(problems) == before else "FAILED"
            print(f"self-check {label}: {status}", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    perfbench, daemon = build()
    if sys.argv[1:] == ["--self-check"]:
        return self_check(perfbench, daemon)
    return bench(perfbench, daemon, sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
