"""Set-up probe: time a fresh import of gaugeint plus one warm-up operation.

Run as a child process of run.py (``python3 perfbench/setup_probe.py
<src dir> <workload>``); prints the seconds spent, excluding interpreter
start.  The warm-up operations live here, not in workloads.py, so that
timing them imports nothing the program itself would not (the oracles
pull in scipy.integrate, which would pre-load scipy.special).
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def warmup(gaugeint, workload: str) -> None:
    """One cheap operation through the code path a workload times."""
    g = gaugeint
    if workload == "sliced":
        q = g.PropagatorQuery(0.0, 0.0, 0.3, 1.0, slices=2)
        g.psi_sliced(q, g.SliceGrid(16.0, 768, 1e-3))
    elif workload == "series":
        from gaugeint import config, reports

        q = g.PropagatorQuery(
            0.0, 0.0, 0.3, 1.0, slices=2,
            potential=g.Potential.constant_potential(1.0),
        )
        reports.perturb_table(q, 2, config.RunConfig())
    elif workload == "quad":
        g.fresnel_line_integral(1j, 1e-6)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    src, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import gaugeint

    if not os.path.abspath(gaugeint.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"gaugeint imported from {gaugeint.__file__}, not {src}", file=sys.stderr)
        return 2
    imported = time.perf_counter() - _T0
    start = time.perf_counter()
    warmup(gaugeint, workload)
    print(repr(imported + time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
