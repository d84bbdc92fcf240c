#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin --seed N

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into .bench_build/ on first use; a traced run writes
its spans to .bench_build/spans/. The last stdout line of a benchmark
run is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "eecc_perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources at {ROOT / 'src'}; nothing to benchmark")
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        obj = BUILD / "perfbench"
        steps = []
        if not (obj / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(obj), *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(obj), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return BINARY.is_file()


def git_provenance():
    """(commit, dirty) of the checkout, or 'unknown' outside git."""
    def git(*args):
        r = subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                           capture_output=True)
        return r.stdout.strip() if r.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel") if shutil.which("git") else None
    commit = git("rev-parse", "HEAD") if top else None
    if commit is None or Path(top).resolve() != ROOT:
        return "unknown (not a git checkout)", "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    return commit, ("unknown" if status is None else str(int(bool(status))))


def run_binary(args):
    env = {k: v for k, v in os.environ.items() if k != "EECC_QUICK"}
    return subprocess.run([str(BINARY), *args], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=900)


def selftest():
    """Runs the binary's tiny-window self-test, then checks its emitted
    metrics against BENCHMARK.json's declared names and units."""
    r = run_binary(["--selftest"])
    sys.stdout.write(r.stdout)
    ok = r.returncode == 0
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in decl["end_to_end"]},
            1: {m["name"]: m["unit"] for m in decl["per_layer"]}}
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    seen = 0
    for line in r.stdout.splitlines():
        if not line.startswith("selftest-result "):
            continue
        _, workload, trace, blob = line.split(" ", 3)
        got = json.loads(blob)["metrics"]
        declared = want[int(trace)]
        bad = [n for n in got if not name_re.fullmatch(n)]
        missing = [n for n in declared if n not in got]
        extra = [n for n in got if n not in declared]
        units = [n for n in declared
                 if n in got and got[n]["unit"] != declared[n]]
        good = not (bad or missing or extra or units)
        print(f"selftest {'ok' if good else 'FAILED'}: {workload} trace "
              f"{trace} emits exactly the BENCHMARK.json metrics"
              + ("" if good else f" (bad names {bad}, missing {missing}, "
                 f"undeclared {extra}, unit mismatches {units})"))
        ok = ok and good
        seen += 1
    if seen == 0:
        ok = False
    print(f"selftest {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--pin", action="store_true")
    a = p.parse_args()
    if not build():
        return 1
    if a.selftest:
        return selftest()
    if a.pin:
        r = run_binary(["--pin", "--seed", str(a.seed)])
        sys.stdout.write(r.stdout)
        return r.returncode
    if a.workload is None:
        p.error("--workload is required")
    commit, dirty = git_provenance()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--pins", str(HERE / "pins.txt"),
            "--git-commit", commit, "--git-dirty", dirty]
    if a.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        args += ["--spans",
                 str(spans / f"{a.workload}-seed{a.seed}.trace.json")]
    r = run_binary(args)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
