"""Benchmark entry point for the aderfv solver.

    python3 perfbench/run.py --workload euler-o5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every measurement runs in a fresh
interpreter (``perfbench/worker.py``) that imports ``aderfv`` from the
checkout's ``src`` with single-threaded BLAS, one process at a time.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the last line of standard output is the
result as one JSON object.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The keys of workloads.WORKLOADS: this script imports neither numpy nor aderfv.
WORKLOADS = ("euler-o5", "stiff-o3", "shock-o3")
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ADERFV_THREADS", None)
    # The installed OpenBLAS would otherwise start up to 64 threads of its own.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_worker(mode: str, args, deadline: float) -> dict:
    """Run one worker to completion; its last stdout line is its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--max-seconds", str(max(1.0, deadline - time.monotonic() - 30.0))]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 of the solver sources, which identifies a checkout that is not
    a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        return run_worker("traced", args, deadline)
    out = run_worker("timed", args, deadline)
    setups = [run_worker("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    out["metrics"]["setup_s"] = (statistics.median(setups), "s")
    out["setup_samples"] = setups
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "aderfv" / "__init__.py").is_file():
        print(f"error: no aderfv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"git {git_sha()}  src sha256 {src_digest()}  nproc {os.cpu_count()}  "
          f"load {' '.join(f'{v:.2f}' for v in os.getloadavg())}")
    try:
        out = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = out["provenance"]
    print(f"python {prov['python']}  numpy {prov['numpy']}  blas {prov['blas']}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"solves {out['solves']}  failed {out['failed']}  "
          f"fail_ratio {out['failed'] / out['attempted']:.3f}")
    if "step_samples" in out:
        print(f"step samples {out['step_samples']} ({out['steps_per_solve']} "
              "steps per solve, first excluded)")
        print("fastest solve: " + "  ".join(
            f"{k} {v:.6g}" for k, v in out["fastest_solve"].items()))
    if "setup_samples" in out:
        print("setup_s samples "
              + " ".join(f"{v:.4f}" for v in out["setup_samples"]))
    for problem in out["problems"]:
        print(f"FAILED: {problem}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"load after {' '.join(f'{v:.2f}' for v in os.getloadavg())}")
    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
