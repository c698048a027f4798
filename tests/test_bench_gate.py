"""The benchmark's output gate, replayed under its tracer.

Every op that any seed of a perfbench workload can run must give the (exit
code, output digest) recorded in perfbench/expected.json, with the span
tracer of perfbench/tracer.py installed on every tcslat layer; each op must
open at least one span, and the tracer must put every original function back
afterwards.  Every per-layer metric that BENCHMARK.json names must be a value
of the harness's layer snapshot.  This reads perfbench/ and BENCHMARK.json and
writes nothing there; the tracer's self-check on op times still needs
``python3 perfbench/run.py --trace 1``."""

import importlib.util
import inspect
import json
import os

import pytest

import tcslat
import tcslat.cli  # noqa: F401  (the tracer reads each layer as a package attribute)
import tcslat.g2alg  # noqa: F401

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer_mod = _load("tracer")
run_mod = _load("run")

with open(os.path.join(PERFBENCH, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


@pytest.mark.parametrize("workload", ["census", "invariants", "certify", "forms"])
def test_traced_ops_give_their_recorded_outputs(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("TCS_TABLES_DIR", raising=False)
    ops = workloads.universe(workload)
    tracer = tracer_mod.Tracer(tcslat)
    got, spanless = {}, []
    tracer.install()
    try:
        for op in ops:
            before = sum(st.calls for st in tracer.stats.values())
            got[op.name] = list(op.run()[:2])
            if sum(st.calls for st in tracer.stats.values()) == before:
                spanless.append(op.name)
    finally:
        tracer.uninstall()
    assert tracer_mod.leftover_wrappers(tracer.modules.values()) == []
    assert {name: out for name, out in got.items() if EXPECTED.get(name) != out} == {}
    assert spanless == []  # every op enters at least one traced layer function


def test_ops_replayed_in_reverse_order_give_their_recorded_outputs(monkeypatch):
    # one process shares its catalogs, records and record lattices between ops: run untraced in
    # the reverse of the harness's order, no op may see state that another op left behind
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("TCS_TABLES_DIR", raising=False)
    ops = [op for workload in ("invariants", "certify") for op in workloads.universe(workload)]
    got = {op.name: list(op.run()[:2]) for op in reversed(ops)}
    assert {name: out for name, out in got.items() if EXPECTED.get(name) != out} == {}


def test_the_tracer_wraps_every_layer_function():
    # the tracer wraps only plain defs: a cache or partial object bound where
    # a layer function belongs runs outside every span
    tracer = tracer_mod.Tracer(tcslat)
    tracer.install()
    try:
        unwrapped = [f"{mod.__name__}.{name}" for mod in tracer.modules.values()
                     for name, obj in vars(mod).items()
                     if not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
                     and getattr(getattr(obj, "func", obj), "__module__", None) == mod.__name__
                     and not hasattr(obj, tracer_mod.WRAPPED_MARK)
                     and not inspect.isgeneratorfunction(obj)]
    finally:
        tracer.uninstall()
    assert unwrapped == []


def test_the_replay_covers_every_recorded_op():
    names = [op.name for w in workloads.WORKLOADS for op in workloads.universe(w)]
    assert sorted(names) == sorted(EXPECTED)


def test_every_per_layer_metric_is_a_layer_snapshot_value():
    # a traced run reads values[name] for each per_layer name, so a layer
    # function that is renamed or removed fails it with a KeyError;
    # trace.overhead_frac is the one value the run adds after the snapshots
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    values = run_mod.layer_snapshot(tracer_mod.Tracer(tcslat))
    assert [n for n in names if n != "trace.overhead_frac" and n not in values] == []
