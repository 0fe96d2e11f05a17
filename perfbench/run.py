#!/usr/bin/env python3
"""Repository benchmark: builds the engine from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the library from src/ plus the benchmark
programs) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Scratch files (WAL directories, span files) go to .bench_out/.

--trace 0 prints every end-to-end metric, --trace 1 every per-layer metric
(see BENCHMARK.json and perfbench/spec.json); other metrics the run measured
are printed by name above the result.  The last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only for
a correct run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_TAG = "PERFBENCH_RESULT "
# Each run must end within 180 s; the build happens before this budget.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "runtime" / "stream_engine.cpp").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out


def load_json(path):
    with open(path) as f:
        return json.load(f)


def applies(spec_metric, workload):
    w = spec_metric["workloads"]
    return w == "all" or workload in w


def provenance(build_info, seconds):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and p.suffix in (".cpp", ".hpp"):
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build": build_info,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "run_seconds": seconds,
    }


def assemble(raw, bench, spec, workload, trace):
    """Selects the metric set the mode reports and checks it against the
    spec.  Returns (metrics, extra, problems): `extra` holds the measured
    metrics outside the set, `problems` lists schema violations."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        sm = spec["metrics"].get(name)
        if sm is None:
            problems.append(f"{name}: not described in perfbench/spec.json")
            continue
        if name in raw:
            if raw[name]["unit"] != unit:
                problems.append(f"{name}: unit {raw[name]['unit']} != {unit}")
            metrics[name] = {"value": raw[name]["value"], "unit": unit}
        elif applies(sm, workload):
            problems.append(f"{name}: missing from the run's output")
        else:
            # Defined on other workloads only: reported as 0.
            metrics[name] = {"value": 0, "unit": unit}
    extra = {k: v for k, v in raw.items() if k not in metrics}
    return metrics, extra, problems


def run_workload(args):
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(BENCH_DIR / "spec.json")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    out = build()
    work = Path.cwd() / ".bench_out"
    work.mkdir(exist_ok=True)
    for stale in work.glob("wal-*"):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    rate = spec["workloads"][args.workload]["open_loop_rate_eps"]
    if rate:
        cmd += ["--rate", str(rate)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        stdout, code = proc.stdout, proc.returncode
        sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired as e:
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        stdout += f"\nrun passed the {RUN_TIMEOUT_S} s process deadline\n"
        code = -1
    finally:
        for stale in list(work.glob("wal-*")) + list(work.glob("walpass-*")):
            shutil.rmtree(stale, ignore_errors=True)

    result, build_info = None, "unknown"
    for line in stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
            if line.startswith("build: "):
                build_info = line[len("build: "):]
    print("provenance: " + json.dumps(provenance(build_info, args.seconds)))

    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(f"FAILED: no result from the workload (exit code {code})")
    metrics, extra, problems = assemble(result["metrics"], bench, spec,
                                        args.workload, args.trace)
    for p in problems:
        print(f"FAILED: {p}")
    for name, m in sorted(extra.items()):
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    failed = int(result["failed"]) + (1 if problems else 0)
    correct = bool(result["correct"]) and code == 0 and not problems
    if not correct and failed == 0:
        failed = 1
    attempted = max(int(result["attempted"]), failed, 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def selftest():
    out = build()
    rc = subprocess.call([str(out / "perfbench_selftest")])
    rc |= subprocess.call([sys.executable, "-m", "unittest", "discover",
                           "-s", str(BENCH_DIR / "tests"), "-p", "test_*.py"])
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
