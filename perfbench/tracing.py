"""Per-layer tracing of gaugeint from outside the package.

The tracer wraps every public function of the measured modules and
records one span per call: name, start, end and parent span.  ``from .x import f`` copies a binding into the
importing module, so a function is rebound in every ``gaugeint.*``
namespace that holds it; otherwise calls through the copies would go
unseen.  Spans stay in memory; ``layer_metrics`` folds them into calls
and self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = (
    "cells", "fresnel", "oscquad", "integrate",
    "cylinder", "propagator", "exchange", "reports",
)

# private kernels worth a span of their own; wrapped only if present
PRIVATE_KERNELS = ("oscquad._damped_raw_moments",)

# spans opened by the benchmark's own callables, not by gaugeint
CALLBACKS = ("integrand", "potential")

# Every span name the traced run reports: the public functions (plus the
# private moment kernel) that run in some workload at the time the
# benchmark was defined, and the two callback kinds.  A name that no
# longer exists in the package is reported with zero calls and listed as
# absent in the run record.
REPORTED = (
    "cells.cell_volume", "cells.cousin_division", "cells.division_from_json",
    "cells.division_to_json", "cells.fsum_complex", "cells.is_delta_fine",
    "cells.tag_is_associated", "cells.validate_division",
    "fresnel.incremental_density",
    "oscquad._damped_raw_moments", "oscquad.adaptive_chirp_integral",
    "oscquad.chirp_filon_weights", "oscquad.damped_chirp_filon_weights",
    "oscquad.fresnel_integral", "oscquad.fresnel_tail", "oscquad.gauss_tail",
    "oscquad.phase_exp",
    "integrate.fresnel_line_integral", "integrate.hk_integrate_1d",
    "integrate.oscillatory_improper",
    "cylinder.reduce_cylinder_integral",
    "propagator.free_kernel", "propagator.perturbation_partial_sum",
    "propagator.perturbation_term", "propagator.psi0_closed",
    "propagator.psi_sliced",
    "exchange.abs_g0_growth", "exchange.bounded_convergence_diagnostic",
    "exchange.envelope_growth_table", "exchange.exchange_experiment",
    "exchange.free_modulus_envelope", "exchange.growth_verdict",
    "exchange.partial_sum_family",
    "reports.exchange_documents", "reports.perturb_table", "reports.sig",
    "reports.sig_complex",
    *CALLBACKS,
)


def metric_names() -> list[str]:
    """Per-layer metric names, in the order the traced run prints them."""
    out = []
    for name in REPORTED:
        out.append(f"{name}.points" if name in CALLBACKS else f"{name}.calls")
        out.append(f"{name}.self_s")
    return out + ["trace.overhead_ratio"]


def public_functions(package) -> dict[str, object]:
    """{"<module>.<function>": function} for the public API of LAYERS.

    Public means listed in the module's __all__ or re-exported by the
    package; classes and constants are not layers of work and are skipped.
    """
    exported = set(getattr(package, "__all__", ())) | {
        n for n in vars(package) if not n.startswith("_")
    }
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        names = set(getattr(module, "__all__", ()))
        for name, obj in vars(module).items():
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
                and (name in names or name in exported)
            ):
                found[f"{layer}.{name}"] = obj
    return found


def private_kernels(package) -> dict[str, object]:
    """The PRIVATE_KERNELS that exist in this version of the package."""
    found = {}
    for qualified in PRIVATE_KERNELS:
        layer, name = qualified.split(".")
        module = importlib.import_module(f"{package.__name__}.{layer}")
        obj = getattr(module, name, None)
        if callable(obj):
            found[qualified] = obj
    return found


class Tracer:
    """Span recorder plus the rebinding of wrapped functions.

    install() swaps wrappers into every module of the package that binds
    a traced function; uninstall() restores the originals.  While not
    installed the benchmark's callbacks see ``active`` False and skip
    their spans, so an untraced pass runs the unmodified program.
    """

    def __init__(self, package):
        self.package = package
        self.targets = {**public_functions(package), **private_kernels(package)}
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.points: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.rebound: dict[str, list[str]] = defaultdict(list)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (nested under the open span)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        by_id = {id(fn): (name, self._wrap(name, fn)) for name, fn in self.targets.items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = by_id.get(id(obj))
                if hit is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])
                    if module.__name__ not in self.rebound[hit[0]]:
                        self.rebound[hit[0]].append(module.__name__)
        self.active = True

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        self.active = False

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[int, float]]:
        """{name: (calls, self seconds)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _parent) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}
