"""Tests of the benchmark itself. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def _units(section: str):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.fixture(scope="module", autouse=True)
def small_graded_heads():
    """Grade 300 requests per run, so a 1-second run ends in about 1 s."""
    sizes = {name: w.graded for name, w in workloads.WORKLOADS.items()}
    for workload in workloads.WORKLOADS.values():
        workload.graded = 300
    yield
    for name, size in sizes.items():
        workloads.WORKLOADS[name].graded = size


@pytest.fixture(scope="module")
def tiny_runs():
    """One short untraced and one short traced run of every workload."""
    return {(name, trace): bench.run(name, seed=3, seconds=1.0, trace=trace)
            for name in workloads.WORKLOADS for trace in (False, True)}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, name, trace):
    result, _ = tiny_runs[(name, trace)]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_end_to_end_metrics_are_never_zero(tiny_runs):
    for name in workloads.WORKLOADS:
        result, _ = tiny_runs[(name, False)]
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_seed_changes_inputs_not_metric_names(tiny_runs):
    for name, workload in workloads.WORKLOADS.items():
        backends = workloads.build(workload)
        first = list(itertools.islice(
            workloads.op_stream(workload, backends, 1), 200))
        again = list(itertools.islice(
            workloads.op_stream(workload, backends, 1), 200))
        other = list(itertools.islice(
            workloads.op_stream(workload, backends, 2), 200))
        assert first == again
        assert first != other
    other_seed, _ = bench.run("agent-rw", seed=4, seconds=1.0, trace=False)
    result, _ = tiny_runs[("agent-rw", False)]
    assert other_seed["metrics"].keys() == result["metrics"].keys()


def test_traced_run_restores_every_wrapped_function():
    workload = workloads.WORKLOADS["agent-rw"]
    backends = workloads.build(workload)
    gateway = workloads.make_gateway(backends, 0)
    methods = {(owner, attr): owner.__dict__[attr]
               for owner, attr, _, _ in tracing.METHOD_SPANS}
    functions = {module.__name__: getattr(module, attr)
                 for module, attr, _ in tracing.FUNCTION_SPANS}
    holders = {(loaded.__name__, attr): getattr(loaded, attr)
               for loaded in list(sys.modules.values())
               for _, attr, _ in tracing.FUNCTION_SPANS
               if getattr(loaded, "__name__", "").startswith("repro")
               and hasattr(loaded, attr)}
    steps = {kind: list(ladder) for kind, ladder in gateway.handlers.items()}
    tools = {name: backends.agent.registry.get(name)
             for name in tracing.TOOLS}
    tracer = tracing.Tracer(backends, gateway)
    with tracer.installed():
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in methods.items())
        gateway.submit("t", "agent", "Who is Ada?", 0.0)
    assert tracer.spans, "the traced request recorded no span"
    for (owner, attr), original in methods.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    for module, attr, _ in tracing.FUNCTION_SPANS:
        assert getattr(module, attr) is functions[module.__name__]
    for (name, attr), original in holders.items():
        assert getattr(sys.modules[name], attr) is original, (name, attr)
    assert gateway.handlers == steps
    for name, tool in tools.items():
        assert backends.agent.registry.get(name) is tool


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "mixed-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_normalised_scales_each_window_by_its_own_probe():
    second = bench.WINDOW_NS
    phase = bench.Phase(0)
    phase.probes.add(0, bench.REFERENCE_PROBE_NS)
    phase.probes.add(second, 2 * bench.REFERENCE_PROBE_NS)
    phase.requests.add(10, 1000)
    phase.requests.add(second + 10, 1000)
    phase.writes.add(second + 20, 500)
    phase.stop_ns = 2 * second
    scaled = phase.normalised()
    assert list(scaled.requests.values) == [1000, 500]
    assert list(scaled.writes.values) == [250]
    assert list(phase.requests.values) == [1000, 1000]


def test_sharded_stats_recompute_counts_once_per_store_version(tiny_runs):
    # Per-shard predicate_stats calls sit under the sharded store's call
    # (across the replica transport) and must not count as recomputes.
    result, info = tiny_runs[("agent-rw", True)]
    recomputes = result["metrics"]["sparql.planner.stats_recomputes"]["value"]
    assert 0 < recomputes * info["requests"] <= info["writes"] + 1
