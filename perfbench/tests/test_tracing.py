"""The tracer: rebinding through copied imports, self time, transparency."""

import json
import time
from pathlib import Path

import gaugeint as g
import gaugeint.cylinder
import gaugeint.exchange
import gaugeint.fresnel
import gaugeint.integrate
import gaugeint.oscquad
import tracing


def test_install_rebinds_every_copy_and_uninstall_restores():
    original = gaugeint.oscquad.adaptive_chirp_integral
    original_hk = gaugeint.integrate.hk_integrate_1d
    tracer = tracing.Tracer(g)
    tracer.install()
    try:
        for module in (gaugeint.oscquad, gaugeint.integrate, gaugeint.cylinder,
                       gaugeint.fresnel, g):
            assert module.adaptive_chirp_integral is not original
            assert module.adaptive_chirp_integral.__wrapped__ is original
        assert set(tracer.rebound["oscquad.adaptive_chirp_integral"]) >= {
            "gaugeint.integrate", "gaugeint.cylinder", "gaugeint.fresnel"}
        for module in (gaugeint.cylinder, gaugeint.exchange):
            assert module.hk_integrate_1d.__wrapped__ is original_hk
    finally:
        tracer.uninstall()
    for module in (gaugeint.oscquad, gaugeint.integrate, gaugeint.cylinder,
                   gaugeint.fresnel, g):
        assert module.adaptive_chirp_integral is original


def test_calls_through_copied_bindings_are_counted_and_values_unchanged():
    plain = g.fresnel_line_integral(1j, 1e-6)
    tracer = tracing.Tracer(g)
    tracer.install()
    try:
        traced = g.fresnel_line_integral(1j, 1e-6)
    finally:
        tracer.uninstall()
    assert traced == plain
    layer = tracer.layer_metrics()
    # integrate holds a copy of adaptive_chirp_integral; the call still shows
    assert layer["oscquad.adaptive_chirp_integral"][0] > 0
    assert layer["integrate.fresnel_line_integral"][0] == 1


def test_self_time_subtracts_children():
    tracer = tracing.Tracer(g)

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.span("inner", inner)
        tracer.span("inner", inner)

    tracer.span("outer", outer)
    layer = tracer.layer_metrics()
    assert layer["inner"][0] == 2
    assert 0.04 <= layer["inner"][1] < 0.1
    assert 0.01 <= layer["outer"][1] < 0.04


def test_every_reported_name_exists_or_is_a_callback():
    tracer = tracing.Tracer(g)
    missing = [n for n in tracing.REPORTED
               if n not in tracer.targets and n not in tracing.CALLBACKS]
    assert missing == []
    names = tracing.metric_names()
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)


def test_benchmark_json_lists_the_traced_metrics():
    doc = json.loads((Path(tracing.__file__).resolve().parents[1]
                      / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == tracing.metric_names()
    assert sorted(w["name"] for w in doc["workloads"]) == ["quad", "series", "sliced"]
