"""Wall-clock serving benchmark of the LLM + KG stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mixed-warm --seed 1 --seconds 40 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` runs the same workload twice, untraced and then traced, and reports the
per-layer metrics, the tracing overhead and the host-drift diagnostic. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The timing metrics are wall
times scaled to a reference host speed by a fixed probe timed between ops;
the line before the last gives them unscaled. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from array import array
from typing import Dict, Iterator, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Builds timed per run; ``setup_s`` is their median.
SETUP_BUILDS = 7

#: The client times a fixed pure-Python probe between two ops once per
#: period. The host's speed drifts by up to 1.8x over seconds to minutes,
#: with and without CPU steal, and moves the program and the probe alike.
PROBE_PERIOD_NS = 20_000_000

#: Op times are normalised per window of this much wall time, by the
#: median probe of the window.
WINDOW_NS = 1_000_000_000

#: ``latency_p99_ms`` is the median of the p99s of blocks of about this
#: much wall time. The host also stalls in bursts, and in a 40-second
#: llm-cold run one to three 5-second blocks read a p99 25-40% above the
#: others; the median over blocks ignores them.
BLOCK_NS = 5_000_000_000

#: How far the p99 follows the probe. Median op times follow it about one
#: to one; across 30 runs per workload the p99 moved only 0.25-0.45 times
#: as much (log to log) between fast and slow host states, so it is scaled
#: by the square root of the probe ratio.
TAIL_ELASTICITY = 0.5

#: The probe time the host-normalised metrics are scaled to: about the
#: probe's median on a 2-vCPU Intel Xeon (KVM) in its faster state.
REFERENCE_PROBE_NS = 150_000

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "write_p50_ms": "ms",
    "answer_accuracy": "ratio",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}


class _ProbeItem:
    __slots__ = ("index", "word")

    def __init__(self, index: int, word: str) -> None:
        self.index = index
        self.word = word

    def key(self) -> str:
        return f"{self.word}:{self.index}"


_PROBE_WORDS = tuple(f"w{i}" for i in range(64))


def probe_ns() -> int:
    """Wall time of a fixed pure-Python snippet that does what the program
    does most: small objects, method calls, string formatting, tuples, a
    dict, a sort, a join and a split. Its time tracks the host's speed for
    this kind of code (about 0.15-0.25 ms)."""
    words = _PROBE_WORDS
    start = time.perf_counter_ns()
    rows = []
    for i in range(150):
        item = _ProbeItem(i, words[i % 64])
        rows.append((item.index, len(item.word), item.key()))
    table = {row[2]: row for row in rows}
    " ".join(sorted(table)).split(" ")
    return time.perf_counter_ns() - start


class Samples:
    """``(end, value)`` nanosecond pairs, packed in one int array so the
    benchmark's own bookkeeping barely moves ``rss_peak_mb``."""

    def __init__(self) -> None:
        self.data = array("q")

    def add(self, end: int, value: int) -> None:
        self.data.extend((end, value))

    def __len__(self) -> int:
        return len(self.data) // 2

    def __iter__(self):
        return zip(self.data[0::2], self.data[1::2])

    @property
    def values(self) -> array:
        return self.data[1::2]


class Phase:
    """One timed stretch of the closed loop: op latencies and host probes."""

    def __init__(self, start_ns: int) -> None:
        self.start_ns = self.stop_ns = start_ns
        self.requests = Samples()
        self.writes = Samples()
        self.probes = Samples()

    @property
    def ops(self) -> int:
        return len(self.requests) + len(self.writes)

    @property
    def seconds(self) -> float:
        return (self.stop_ns - self.start_ns) / 1e9

    @property
    def probe_us(self) -> float:
        return statistics.median(self.probes.values) / 1e3

    def normalised(self, elasticity: float = 1.0) -> "Phase":
        """The phase with each op time scaled to the reference host speed:
        times ``REFERENCE_PROBE_NS`` over the median probe of its window,
        to the power ``elasticity``."""
        windows: Dict[int, List[int]] = {}
        for end, value in self.probes:
            windows.setdefault((end - self.start_ns) // WINDOW_NS,
                               []).append(value)
        overall = statistics.median(self.probes.values)
        scale = {window: (REFERENCE_PROBE_NS / statistics.median(values))
                 ** elasticity for window, values in windows.items()}
        out = Phase(self.start_ns)
        out.stop_ns, out.probes = self.stop_ns, self.probes
        for kind in ("requests", "writes"):
            target = getattr(out, kind)
            for end, value in getattr(self, kind):
                factor = scale.get((end - self.start_ns) // WINDOW_NS,
                                   (REFERENCE_PROBE_NS / overall)
                                   ** elasticity)
                target.add(end, round(value * factor))
        return out


class Client:
    """The one closed-loop client: submits, waits, submits again."""

    def __init__(self, backends, gateway, ledger):
        self.backends = backends
        self.gateway = gateway
        self.ledger = ledger
        self.requests = 0
        self.writes = 0

    def arrival(self) -> float:
        """The next request's simulated arrival time."""
        self.requests += 1
        return self.requests * W.ARRIVAL_GAP

    def request(self, op):
        result = self.gateway.submit(op.tenant, op.kind, op.question,
                                     self.arrival(), session_id=op.session)
        W.check_result(op, result)
        return result

    def write(self, op) -> None:
        kg = self.backends.dataset.kg
        added = kg.add_triples(op.triples)
        removed = kg.store.remove_all(op.retired) if op.retired else 0
        if added != len(op.triples) or removed != len(op.retired):
            raise W.CheckFailed(f"write added {added} of {len(op.triples)} "
                                f"and removed {removed} of "
                                f"{len(op.retired)} triples")
        self.writes += 1

    def drive(self, ops: Iterator, seconds: float) -> Phase:
        """Run ops back to back for ``seconds`` of wall time, and on until
        the ledger has graded its whole head of the stream. Each op's time
        covers only its ``Gateway.submit`` or write call; the host probe runs
        between two ops once per ``PROBE_PERIOD_NS``."""
        clock = time.perf_counter_ns
        phase = Phase(clock())
        stop = phase.start_ns + int(seconds * 1e9)
        probe_due = now = phase.start_ns
        while now < stop or not self.ledger.full:
            if now >= probe_due:
                phase.probes.add(now, probe_ns())
                probe_due = now + PROBE_PERIOD_NS
            op = next(ops)
            if op.kind == "write":
                start = clock()
                self.write(op)
                now = clock()
                phase.writes.add(now, now - start)
            else:
                start = clock()
                result = self.gateway.submit(
                    op.tenant, op.kind, op.question,
                    self.arrival(), session_id=op.session)
                now = clock()
                phase.requests.add(now, now - start)
                W.check_result(op, result)
                self.ledger.record(op, result.answer)
        phase.stop_ns = now
        return phase


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: host speed, independent of the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def ms(samples: Samples, q: float) -> float:
    return percentile(samples.values, q) / 1e6


def setup(workload):
    """Build the stack ``SETUP_BUILDS`` times; the last build, and the
    median build time scaled to the reference host speed by probes timed
    around each build."""
    times = []
    backends = None
    for _ in range(SETUP_BUILDS):
        backends = None
        gc.collect()
        probes = [probe_ns() for _ in range(5)]
        start = time.perf_counter()
        backends = W.build(workload)
        seconds = time.perf_counter() - start
        probes += [probe_ns() for _ in range(5)]
        times.append(seconds * REFERENCE_PROBE_NS / statistics.median(probes))
    return backends, statistics.median(times)


def block_p99_ms(phase: Phase) -> float:
    """Request p99 of each of the phase's equal blocks of about
    ``BLOCK_NS``, median over the blocks."""
    count = max(1, round((phase.stop_ns - phase.start_ns) / BLOCK_NS))
    width = (phase.stop_ns - phase.start_ns) / count
    blocks: List[List[int]] = [[] for _ in range(count)]
    for end, value in phase.requests:
        blocks[min(count - 1, int((end - phase.start_ns) / width))].append(
            value)
    return statistics.median(percentile(block, 99) / 1e6
                             for block in blocks if block)


def timings(phase: Phase, normalise: bool = True) -> Dict[str, float]:
    """Throughput over the time spent in ops, and latency percentiles;
    host-normalised, or in plain wall time."""
    scaled = phase.normalised(1.0 if normalise else 0.0)
    tail = phase.normalised(TAIL_ELASTICITY if normalise else 0.0)
    busy_ns = sum(scaled.requests.values) + sum(scaled.writes.values)
    return {
        "throughput_rps": scaled.ops * 1e9 / busy_ns,
        "latency_p50_ms": ms(scaled.requests, 50),
        "latency_p99_ms": block_p99_ms(tail),
        "write_p50_ms": ms(scaled.writes, 50),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns ``(result, info)``."""
    workload = W.WORKLOADS[workload_name]
    backends, setup_s = setup(workload)
    gateway = W.make_gateway(backends, seed)
    ledger = W.Ledger(workload)
    client = Client(backends, gateway, ledger)
    ops = W.op_stream(workload, backends, seed)
    for op in W.warmup_ops(workload, backends, seed):
        if op.kind == "write":
            client.write(op)
        else:
            client.request(op)
    warmup_ops = client.requests + client.writes
    gc.collect()
    gc.freeze()
    info: Dict[str, object] = {"workload": workload_name, "seed": seed}
    if not trace:
        phase = client.drive(ops, seconds)
        metrics = dict(timings(phase),
                       answer_accuracy=ledger.accuracy, setup_s=setup_s,
                       rss_peak_mb=ledger.peak_rss_kb / 1024.0)
        units = END_TO_END_UNITS
    else:
        import tracing
        ref_before = ref_loop_ms()
        plain = client.drive(ops, seconds / 2)
        tracer = tracing.Tracer(backends, gateway)
        with tracer.installed():
            traced = client.drive(ops, seconds / 2)
        ref_after = ref_loop_ms()
        metrics, units = tracer.layer_metrics(
            requests=len(traced.requests), writes=len(traced.writes),
            request_wall_ms=sum(traced.requests.values) / 1e6)
        overhead = (ms(traced.normalised().requests, 50)
                    / ms(plain.normalised().requests, 50) - 1.0)
        metrics["trace.overhead_pct"] = 100.0 * overhead
        metrics["host.ref_loop_ms"] = (ref_before + ref_after) / 2
        metrics["host.ref_loop_drift_pct"] = \
            100.0 * (ref_after / ref_before - 1.0)
        units = dict(units, **{"trace.overhead_pct": "%",
                               "host.ref_loop_ms": "ms",
                               "host.ref_loop_drift_pct": "%"})
        phase = traced
    attempted = client.requests + client.writes - warmup_ops
    tiers = W.check_gateway(gateway, client.requests)
    W.check_writes(backends, seed, client.writes)
    if workload.name == "llm-cold":
        for cache in W.llm_caches(backends):
            stats = cache.cache_stats()
            if stats["hit_rate"] > 0.02:
                raise W.CheckFailed(f"llm-cold LLM cache hit rate "
                                    f"{stats['hit_rate']:.3f}: questions "
                                    f"repeated")
    info.update(requests=len(phase.requests), writes=len(phase.writes),
                digest=ledger.digest, graded=ledger.graded, tiers=tiers,
                seconds=round(phase.seconds, 3),
                probe_us=round(phase.probe_us, 1),
                wall={name: round(value, 4)
                      for name, value in timings(phase, False).items()})
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    # Pinned to one CPU: migrating between the host's CPUs made write
    # latency bimodal from one run to the next.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result, info = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except W.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


# Without the program next to the benchmark, main() reports it and exits 2.
if os.path.isdir(os.path.join(SRC, "repro")):
    sys.path.insert(0, SRC)
    import workloads as W  # noqa: E402
    from repro.core.observability import percentile  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
