"""gaugeint benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload sliced|series|quad --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; gaugeint is imported from its
src/ directory (nothing is installed).  The last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}; the
line before it is the run record (machine, versions, thread settings,
per-operation errors, the value digest).  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: pinned before numpy loads, so the load
# generator never runs more threads than the machine has cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (siblings of this file; they import no gaugeint)
import workloads  # noqa: E402
from setup_probe import warmup  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3  # a median needs three passes
SETUP_PROBES = 11  # fresh processes timed for setup_s
PROBE_TIMEOUT_S = 60
ERROR_FLOOR = 1e-16  # accuracy_digits caps at 16 digits

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("accuracy_digits", "digits"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Functions predicted (README, layer table) to carry each workload's cost;
# the traced run fails its check if any of them is never called there.
PREDICTED = {
    "sliced": ("propagator.psi_sliced", "oscquad._damped_raw_moments"),
    "series": (
        "propagator.perturbation_partial_sum", "propagator.perturbation_term",
        "potential", "exchange.exchange_experiment",
        "exchange.bounded_convergence_diagnostic", "reports.perturb_table",
    ),
    "quad": (
        "integrate.hk_integrate_1d", "integrand", "integrate.oscillatory_improper",
        "oscquad.adaptive_chirp_integral", "oscquad.chirp_filon_weights",
        "oscquad.fresnel_integral", "oscquad.gauss_tail",
        "cylinder.reduce_cylinder_integral", "oscquad.damped_chirp_filon_weights",
    ),
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_gaugeint():
    sys.path.insert(0, str(SRC))
    import gaugeint

    if not Path(gaugeint.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gaugeint came from {gaugeint.__file__}, not {SRC}")
    return gaugeint


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "os_threads": threads,
        "machine": platform.machine(),
    }


def _setup_seconds(workload: str, probes: int) -> list[float]:
    """Import + warm-up time of fresh interpreters, one at a time."""
    out = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _run_pass(ops):
    """Run every op once; returns (seconds inside the ops, raw results or exceptions)."""
    results, seconds = [], 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            raw = exc
        seconds += time.perf_counter() - start
        results.append(raw)
    return seconds, results


def _check(ops, results):
    """Per-op records: values, error, pass flag (all outside any timing)."""
    records = []
    for op, raw in zip(ops, results):
        rec = {"kind": op.kind, "values": None, "error": None, "ok": False,
               "graded": op.graded, "known_defect": op.known_defect}
        if isinstance(raw, Exception):
            rec["raised"] = f"{type(raw).__name__}: {raw}"[:300]
        else:
            try:
                vals = [complex(v) for v in op.values(raw)]
                rec["error"], rec["ok"] = op.error(vals)
                rec["values"] = vals
            except Exception as exc:  # a malformed result fails its operation
                rec["raised"] = f"{type(exc).__name__}: {exc}"[:300]
        rec["excused"] = not rec["ok"] and op.excused(rec["error"])
        records.append(rec)
    return records


def _bits(records):
    """Exact value identity of a pass (hex floats), for determinism checks."""
    return [None if r["values"] is None else
            [(v.real.hex(), v.imag.hex()) for v in r["values"]] for r in records]


def _digest(records) -> str:
    from gaugeint.reports import sig_complex

    text = "\n".join(
        r["kind"] + ":" + ("raised" if r["values"] is None
                           else ",".join(sig_complex(v) for v in r["values"]))
        for r in records
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _accuracy_digits(records) -> float:
    graded = [r for r in records if r["graded"]]
    digits = [
        -math.log10(max(r["error"], ERROR_FLOOR))
        if r["error"] is not None and math.isfinite(r["error"]) else 0.0
        for r in graded
    ]
    return statistics.fmean(digits)


def _unexpected_failures(records):
    return [r["kind"] for r in records if not r["ok"] and not r["excused"]]


def _op_table(records):
    """Per operation kind: count, failures, worst error, what was raised."""
    table: dict[str, dict] = {}
    for r in records:
        row = table.setdefault(r["kind"], {"n": 0, "failed": 0, "worst_error": 0.0})
        row["n"] += 1
        row["failed"] += not r["ok"]
        if r["error"] is not None:
            row["worst_error"] = max(row["worst_error"], float(f"{r['error']:.3e}"))
        if "raised" in r:
            row.setdefault("raised", []).append(r["raised"])
        if r["known_defect"]:
            row["known_defect"] = r["known_defect"]
    return table


def _traced(ops, tracer, workload: str):
    """One untraced pass, one traced pass: per-layer metrics and their checks."""
    untraced_s, raw = _run_pass(ops)
    tracer.install()
    try:
        traced_s, raw_traced = _run_pass(ops)
    finally:
        tracer.uninstall()
    records, traced = _check(ops, raw), _check(ops, raw_traced)
    layer = tracer.layer_metrics()
    problems = [f"{k} failed" for k in _unexpected_failures(traced)]
    if _bits(records) != _bits(traced):
        problems.append("traced values differ from untraced values")
    problems += [f"{name} never called" for name in PREDICTED[workload]
                 if layer.get(name, (0, 0.0))[0] == 0]
    metrics = {}
    for name in tracing.REPORTED:
        calls, self_s = layer.get(name, (0, 0.0))
        if name in tracing.CALLBACKS:
            metrics[f"{name}.points"] = {"value": tracer.points.get(name, 0), "unit": "count"}
        else:
            metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    record = {
        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
        "spans": len(tracer.spans), "rebound": dict(tracer.rebound),
        "absent": [n for n in tracing.REPORTED
                   if n not in tracer.targets and n not in tracing.CALLBACKS],
    }
    return traced, len(traced), sum(not r["ok"] for r in traced), metrics, problems, record


def _timed(ops, workload: str, seconds: float):
    """As many passes as fit in the given seconds, at least MIN_PASSES; end-to-end metrics."""
    pass_s, setup, first, problems = [], [], None, []
    failed = attempted = 0
    start = time.perf_counter()
    while (len(pass_s) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(pass_s) <= seconds):
        seconds_in_ops, raw = _run_pass(ops)
        records = _check(ops, raw)
        pass_s.append(seconds_in_ops)
        attempted += len(records)
        failed += sum(not r["ok"] for r in records)
        if first is None:
            first = records
        elif _bits(records) != _bits(first) and not problems:
            problems.append("passes returned different values")
        if len(pass_s) <= MIN_PASSES:
            # The machine's speed switches every few seconds, so the set-up
            # probes are spread over the run, a share after each early pass.
            # Their time does not count towards the measured seconds.
            t = time.perf_counter()
            due = SETUP_PROBES * len(pass_s) // MIN_PASSES
            setup += _setup_seconds(workload, due - len(setup))
            start += time.perf_counter() - t
    problems += [f"{k} failed" for k in _unexpected_failures(first)]
    values = {
        "wall_s": statistics.fmean(pass_s),  # see README, "Mean pass"
        "setup_s": statistics.median(setup),
        "accuracy_digits": _accuracy_digits(first),
        "ok_rate": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "passes": len(pass_s), "pass_s": pass_s, "setup_probes_s": setup,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
    }
    return first, attempted, failed, metrics, problems, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaugeint" / "__init__.py").is_file():
        return _fail(f"no gaugeint sources under {SRC}; run from a source checkout")
    try:
        g = _import_gaugeint()
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    tracer = tracing.Tracer(g)
    ops = workloads.WORKLOADS[args.workload](g, args.seed, tracer)  # inputs + oracles
    warmup(g, args.workload)
    if args.trace:
        records, attempted, failed, metrics, problems, extra = _traced(ops, tracer, args.workload)
    else:
        records, attempted, failed, metrics, problems, extra = _timed(ops, args.workload, args.seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **extra, "problems": problems, "digest": _digest(records),
        "operations": _op_table(records), "environment": _environment(),
    }
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
