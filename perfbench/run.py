#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The driver and the repository's libraries are
built (Release) under .bench_build/ on first use; later runs reuse that
build. The driver's stdout is passed through, so the last line is the JSON
result. Build output goes to stderr. A traced run also writes its op spans to
.bench_build/traces/<workload>-seed<n>.spans.csv.

--self-test builds, checks that the history check rejects forged histories,
and runs a short smoke of every workload (those in BENCHMARK.json and the
ungated tcp-rf5-mixed) with tracing off and on, checking that each prints
exactly the declared metrics and units.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Runnable with the same command but not in BENCHMARK.json (see README.md).
UNGATED_WORKLOADS = ["tcp-rf5-mixed"]


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def revision():
    """The git revision when there is one, plus a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git = "none"
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"git:{git} sources:{digest.hexdigest()[:16]}"


def run_driver(binary, args):
    """Runs the driver in the foreground; a SIGTERM to us is passed on."""
    child = subprocess.Popen([str(binary)] + args)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = signal.signal(signal.SIGTERM, forward)
    try:
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        child.wait()
        return 130
    finally:
        signal.signal(signal.SIGTERM, old)


def parse_args(argv):
    opts = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key == "--self-test":
            opts["self_test"] = True
            i += 1
            continue
        if key not in ("--workload", "--seed", "--seconds", "--trace") or i + 1 >= len(argv):
            raise ValueError(f"unexpected argument {key!r}")
        opts[key[2:]] = argv[i + 1]
        i += 2
    return opts


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if subprocess.run([str(binary), "--self-check"]).returncode != 0:
        return False
    ok = True
    for name in [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = subprocess.run([str(binary), "--workload", name, "--seed", "1",
                                   "--seconds", "1", "--trace", trace, "--smoke"],
                                  capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
                problems.append("last line is not a JSON result")
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                    problems.append("attempted < 1")
                got = result.get("metrics", {})
                want = {m["name"]: m["unit"] for m in declared}
                if set(got) != set(want):
                    problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}")
                for metric, unit in want.items():
                    if metric in got and got[metric].get("unit") != unit:
                        problems.append(f"{metric}: unit {got[metric].get('unit')!r} != {unit!r}")
                    if metric in got and not isinstance(got[metric].get("value"), (int, float)):
                        problems.append(f"{metric}: value is not a number")
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"self-test {name} trace={trace}: {status}", flush=True)
            if problems:
                ok = False
                sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
    return ok


def main():
    try:
        opts = parse_args(sys.argv[1:])
    except ValueError as e:
        log(str(e))
        return 2
    binary = build()
    if binary is None:
        return 1
    if opts.get("self_test"):
        return 0 if self_test(binary) else 1
    missing = [k for k in ("workload", "seed", "seconds", "trace") if k not in opts]
    if missing:
        log("missing " + ", ".join("--" + k for k in missing))
        return 2
    args = ["--workload", opts["workload"], "--seed", opts["seed"], "--seconds", opts["seconds"],
            "--trace", opts["trace"], "--rev", revision()]
    if opts["trace"] == "1":
        traces = build_dir().parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{opts['workload']}-seed{opts['seed']}.spans.csv")]
    return run_driver(binary, args)


if __name__ == "__main__":
    sys.exit(main())
