"""One measurement in a fresh interpreter; prints one JSON line.

Modes:

* ``setup``  -- time from ``import aderfv`` through the case and config
  build and the initial projection to the end of the first step;
* ``timed``  -- repeated solves of the workload for ``--seconds``, each
  gated for correctness, with one timer around ``aderfv.scheme.step``;
* ``traced`` -- rounds of one untraced and one traced solve (plus, on a
  workload with ``traced_threads`` > 1, a traced solve at that thread
  count), giving the per-layer metrics.

``run.py`` starts this script with the checkout's ``src`` on PYTHONPATH and
single-threaded BLAS.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import time
from contextlib import nullcontext
from pathlib import Path

T_IMPORT = time.perf_counter()   # setup_s starts before aderfv is imported

import numpy as np  # noqa: E402

import aderfv  # noqa: E402
import aderfv.scheme  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, gate, prepare  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
STEP_SAMPLES = 100   # step times in a run: >= 10 beyond p90
SOLVE_ERRORS = (aderfv.SchemeError, aderfv.PredictorError,
                aderfv.InadmissibleStateError)


class FirstStepDone(Exception):
    """Raised by the setup probe to leave ``aderfv.run`` after one step."""


class StepTimer:
    """The single timer wrapped around ``aderfv.scheme.step``."""

    def __init__(self, step):
        self.ends = []
        self.durations = []
        self._step = step

    def __call__(self, *args, **kwargs):
        start = time.perf_counter_ns()
        out = self._step(*args, **kwargs)
        end = time.perf_counter_ns()
        self.durations.append(end - start)
        self.ends.append(end)
        return out


def solve(prep, tracer=None) -> dict:
    """One attempt: ``aderfv.run`` from the RunConfig, then the gates.

    With a tracer, its spans cover the run only, not the gates.
    """
    traced = tracer.install(prep.config) if tracer else nullcontext(prep.config)
    with traced as config:
        timer = StepTimer(aderfv.scheme.step)
        aderfv.scheme.step = timer
        try:
            start = time.perf_counter()
            result = aderfv.run(config)
            solve_s = time.perf_counter() - start
        except SOLVE_ERRORS as exc:
            return {"ok": False, "completed": False,
                    "problems": [f"{type(exc).__name__}: {exc}"]}
        finally:
            aderfv.scheme.step = timer._step
    start = time.perf_counter()
    _, l1, _ = aderfv.error_norms(result.field, prep.exact, config.M,
                                  result.t_final,
                                  component=prep.error_component,
                                  weno_config=config.weno)
    error_norms_s = time.perf_counter() - start
    problems = gate(prep, result, l1)
    steps = len(timer.ends)
    return {
        "ok": not problems, "completed": True, "problems": problems,
        "solve_s": solve_s, "l1_err": l1, "error_norms_s": error_norms_s,
        "n_steps": steps,
        # the first step of a solve is excluded: it holds the cold start
        "step_ms": [d / 1e6 for d in timer.durations[1:]],
        "us_per_cell_step": (timer.ends[-1] - timer.ends[0]) / 1e3
        / (config.n_cells * max(steps - 1, 1)),
        "digest": hashlib.sha256(result.field.averages.tobytes()).hexdigest(),
    }


def median(values):
    return float(np.median(values))


def failure_summary(records) -> dict:
    failed = [r for r in records if not r["ok"]]
    problems = sorted({p for r in failed for p in r["problems"]})
    digests = {r["digest"] for r in records if r["completed"]}
    if len(digests) > 1:
        problems.append("final averages differ between repeated solves")
    return {"attempted": len(records), "failed": len(failed),
            "problems": problems}


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "aderfv": str(Path(aderfv.__file__).resolve().parent)}


def run_setup(args) -> dict:
    prep = prepare(WORKLOADS[args.workload], args.seed)
    step = aderfv.scheme.step

    def first_step(*a, **k):
        step(*a, **k)
        raise FirstStepDone

    aderfv.scheme.step = first_step
    try:
        aderfv.run(prep.config)
    except FirstStepDone:
        pass
    finally:
        aderfv.scheme.step = step
    return {"setup_s": time.perf_counter() - T_IMPORT}


def run_timed(args) -> dict:
    prep = prepare(WORKLOADS[args.workload], args.seed)
    records = []
    start = time.perf_counter()
    while True:
        solve_start = time.perf_counter()
        records.append(solve(prep))
        samples = sum(len(r["step_ms"]) for r in records if r["completed"])
        now = time.perf_counter()
        # stop before a solve that would end past --seconds
        if (now - start + (now - solve_start) > args.seconds
                and samples >= STEP_SAMPLES):
            break
        if now - start >= args.max_seconds:
            break
    done = [r for r in records if r["completed"]]
    if not done:
        raise RuntimeError("no solve completed: "
                           + "; ".join(records[0]["problems"]))
    steps_ms = np.concatenate([r["step_ms"] for r in done])
    attempted = len(records)
    summary = failure_summary(records)
    return {
        **summary,
        "solves": attempted, "steps_per_solve": done[0]["n_steps"],
        "step_samples": int(steps_ms.size),
        "fastest_solve": {
            "us_per_cell_step": min(r["us_per_cell_step"] for r in done),
            "solve_s": min(r["solve_s"] for r in done)},
        "metrics": {
            # the median solve: other tenants slow single steps at random,
            # which the median over a run's solves averages out (README, Noise)
            "us_per_cell_step": (median([r["us_per_cell_step"] for r in done]),
                                 "us"),
            "solve_s": (median([r["solve_s"] for r in done]), "s"),
            "step_ms_p50": (float(np.percentile(steps_ms, 50)), "ms"),
            "step_ms_p90": (float(np.percentile(steps_ms, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "l1_err": (median([r["l1_err"] for r in done]), "L1"),
            "pass_ratio": ((attempted - summary["failed"]) / attempted, "ratio"),
        },
    }


def run_traced(args) -> dict:
    w = WORKLOADS[args.workload]
    prep = prepare(w, args.seed)
    tol = prep.config.predictor.residual_tol
    tracer = Tracer(tol)
    tracer_mt = Tracer(tol)
    multi = w.traced_threads > 1
    prep_mt = prepare(w, args.seed, threads=w.traced_threads) if multi else None
    untraced, traced, traced_mt = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(solve(prep))
        traced.append(solve(prep, tracer))
        if multi:
            traced_mt.append(solve(prep_mt, tracer_mt))
        # stop before a round that would end past --seconds
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    records = untraced + traced + traced_mt
    summary = failure_summary(records)
    if multi and ({r.get("digest") for r in traced}
                  != {r.get("digest") for r in traced_mt}):
        summary["problems"].append(
            f"1-thread and {w.traced_threads}-thread averages differ")
    missing = tracer.uncalled() + (tracer_mt.uncalled() if multi else [])
    if missing:
        raise RuntimeError(f"traced functions with no call on {w.name}: "
                           + ", ".join(sorted(set(missing))))

    def us(recs):   # the median solve, as in the timed run
        return median([r["us_per_cell_step"] for r in recs if r["completed"]])

    metrics = tracer.summary(1)
    if multi:
        # the thread metrics come from the thread-block path
        thread = tracer_mt.summary(w.traced_threads)
        for name in ("scheme.predict_wait_ms_per_step",
                     "scheme.thread_busy_ratio"):
            metrics[name] = thread[name]
    metrics["scheme.thread_speedup"] = (
        us(traced) / us(traced_mt) if multi else 1.0, "ratio")
    metrics["harness.error_norms.ms_per_run"] = (
        median([r["error_norms_s"] for r in records if r["completed"]]) * 1e3,
        "ms")
    metrics["harness.make_case.ms"] = (prep.make_case_s * 1e3, "ms")
    metrics["harness.build_config.ms"] = (prep.build_config_s * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (us(traced) / us(untraced) - 1.0, "ratio")
    stem = f"spans-{w.name}-seed{args.seed}"
    tracer.write(OUT_DIR / f"{stem}.csv.gz")
    if multi:
        tracer_mt.write(OUT_DIR / f"{stem}-{w.traced_threads}threads.csv.gz")
    return {**summary, "solves": len(records), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-seconds", type=float, default=120.0)
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(aderfv.__file__).resolve().parents:
        raise SystemExit(f"aderfv imported from {aderfv.__file__}, not {src}")
    out = {"setup": run_setup, "timed": run_timed, "traced": run_traced}[args.mode](args)
    if args.mode != "setup":
        out["provenance"] = provenance()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
