"""Deterministic load generation and overload experiments.

:class:`LoadGenerator` replays traffic mixes against a
:class:`~repro.serve.gateway.Gateway` under two arrival models:

* **open** — arrivals follow a seeded Poisson process at a target
  request rate, independent of completions (the overload model: the
  world does not slow down because the service did);
* **closed** — a fixed population of clients each waits for its
  previous request to finish, thinks for a while, then submits again
  (the well-behaved-client model; offered load self-regulates).

Both are pure functions of ``(mix, seed)``: inter-arrival and think
times come from stable hash draws, the gateway resolves each request
eagerly, and an optional :class:`~repro.core.observability.FakeClock`
is advanced to each arrival so traces and metrics share the simulated
timeline. Two identical runs produce byte-identical
:class:`LoadReport` numbers — which is what lets the overload
benchmark commit its p50/p99/shed-rate figures as a regression gate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.hashing import stable_unit
from repro.core.observability import (FakeClock, Observability, percentile,
                                      resolve_obs)
from repro.core.resilience import CircuitBreaker
from repro.serve.backends import TIER_COSTS, build_backends, question_pool
from repro.serve.gateway import Gateway, RequestResult


@dataclass(frozen=True)
class TrafficMix:
    """A named blend of request kinds and tenants (weights normalize)."""

    name: str
    kinds: Tuple[Tuple[str, float], ...]
    tenants: Tuple[Tuple[str, float], ...] = (("tenant-a", 1.0),)

    def pick(self, weighted: Sequence[Tuple[str, float]],
             unit: float) -> str:
        """Weighted choice resolved by one stable unit draw."""
        total = sum(weight for _, weight in weighted)
        threshold = unit * total
        running = 0.0
        for value, weight in weighted:
            running += weight
            if threshold < running:
                return value
        return weighted[-1][0]

    def mean_tier0_cost(self,
                        costs: Mapping[str, Sequence[float]] = TIER_COSTS
                        ) -> float:
        """Kind-weighted mean full-fidelity service cost (capacity math)."""
        total = sum(weight for _, weight in self.kinds)
        return sum(weight * costs[kind][0]
                   for kind, weight in self.kinds) / total


#: Canned mixes for the CLI and benchmarks.
MIXES: Dict[str, TrafficMix] = {
    "qa": TrafficMix("qa", kinds=(("rag", 3.0), ("sparql", 2.0)),
                     tenants=(("tenant-a", 2.0), ("tenant-b", 1.0))),
    "chat": TrafficMix("chat", kinds=(("chat", 1.0),),
                       tenants=(("tenant-a", 1.0), ("tenant-b", 1.0),
                                ("tenant-c", 1.0))),
    "mixed": TrafficMix("mixed",
                        kinds=(("rag", 3.0), ("sparql", 2.0),
                               ("chat", 3.0), ("graphrag", 1.0)),
                        tenants=(("tenant-a", 3.0), ("tenant-b", 2.0),
                                 ("tenant-c", 1.0))),
    "agentic": TrafficMix("agentic",
                          kinds=(("agent", 2.0), ("rag", 1.0),
                                 ("chat", 1.0)),
                          tenants=(("tenant-a", 2.0), ("tenant-b", 1.0))),
}


@dataclass
class LoadReport:
    """What one replay produced, aggregated for gates and dashboards."""

    mix: str
    model: str                      # "open" | "closed"
    offered: int = 0
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    failed: int = 0
    late: int = 0
    degraded: int = 0
    makespan: float = 0.0
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    mean_latency: float = 0.0
    max_latency: float = 0.0
    shed_rate: float = 0.0
    goodput: float = 0.0            # useful completions per simulated second
    max_queue_depth: int = 0
    tier_counts: Dict[str, int] = field(default_factory=dict)
    gateway_stats: Dict[str, Any] = field(default_factory=dict)
    # Streaming aggregates (zero for blob-only replays). The streaming
    # ledger mirrors the gateway's: streamed == completed_streams +
    # shed_mid_stream (every admitted stream resolves exactly once).
    streamed: int = 0
    completed_streams: int = 0
    shed_mid_stream: int = 0
    p50_ttft: float = 0.0
    p99_ttft: float = 0.0
    mean_tpot: float = 0.0
    tokens_out: int = 0
    tokens_per_sec: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready mapping (stable key order via sorted tiers)."""
        out = {
            "mix": self.mix, "model": self.model, "offered": self.offered,
            "completed": self.completed, "shed": self.shed,
            "rejected": self.rejected, "failed": self.failed,
            "late": self.late, "degraded": self.degraded,
            "makespan": round(self.makespan, 6),
            "p50_latency": round(self.p50_latency, 6),
            "p99_latency": round(self.p99_latency, 6),
            "mean_latency": round(self.mean_latency, 6),
            "max_latency": round(self.max_latency, 6),
            "shed_rate": round(self.shed_rate, 6),
            "goodput": round(self.goodput, 6),
            "max_queue_depth": self.max_queue_depth,
            "streamed": self.streamed,
            "completed_streams": self.completed_streams,
            "shed_mid_stream": self.shed_mid_stream,
            "p50_ttft": round(self.p50_ttft, 6),
            "p99_ttft": round(self.p99_ttft, 6),
            "mean_tpot": round(self.mean_tpot, 6),
            "tokens_out": self.tokens_out,
            "tokens_per_sec": round(self.tokens_per_sec, 6),
            "tier_counts": {tier: self.tier_counts[tier]
                            for tier in sorted(self.tier_counts)},
        }
        return out


def _build_report(mix_name: str, model: str, gateway: Gateway,
                  results: Sequence[RequestResult]) -> LoadReport:
    latencies = [r.latency for r in results if r.ok]
    finishes = [r.finish if r.ok else r.request.arrival for r in results]
    makespan = max(finishes) if finishes else 0.0
    # Streaming aggregates: results the token scheduler resolved.
    streams = [r for r in results if r.tier == "stream"]
    admitted_streams = [r for r in streams
                        if r.status in ("completed", "shed")]
    ttfts = [r.ttft for r in streams if r.ok]
    tpots = [r.tpot for r in streams if r.ok and len(r.chunks) >= 2]
    tokens_out = sum(r.tokens_out for r in streams)
    # "Useful" excludes late answers and the static busy tier: both keep
    # the connection alive but deliver no payload value.
    useful = sum(1 for r in results
                 if r.ok and not r.late and r.tier != "busy")
    offered = len(results)
    shed = sum(1 for r in results if r.status == "shed")
    report = LoadReport(
        mix=mix_name, model=model, offered=offered,
        completed=sum(1 for r in results if r.ok),
        shed=shed,
        rejected=sum(1 for r in results if r.status == "rejected"),
        failed=sum(1 for r in results if r.status == "failed"),
        late=sum(1 for r in results if r.ok and r.late),
        degraded=sum(1 for r in results if r.degraded),
        makespan=makespan,
        p50_latency=percentile(latencies, 50.0),
        p99_latency=percentile(latencies, 99.0),
        mean_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
        max_latency=max(latencies) if latencies else 0.0,
        shed_rate=shed / offered if offered else 0.0,
        goodput=useful / makespan if makespan > 0 else 0.0,
        max_queue_depth=gateway.max_queue_depth,
        tier_counts=dict(gateway.tier_counts),
        gateway_stats=gateway.stats(),
        streamed=len(admitted_streams),
        completed_streams=sum(1 for r in admitted_streams if r.ok),
        shed_mid_stream=sum(1 for r in admitted_streams
                            if r.status == "shed"),
        p50_ttft=percentile(ttfts, 50.0),
        p99_ttft=percentile(ttfts, 99.0),
        mean_tpot=(sum(tpots) / len(tpots)) if tpots else 0.0,
        tokens_out=tokens_out,
        tokens_per_sec=tokens_out / makespan if makespan > 0 else 0.0,
    )
    return report


class LoadGenerator:
    """Replays a deterministic traffic mix against one gateway."""

    def __init__(self, gateway: Gateway, questions: Mapping[str, Sequence[str]],
                 mix: TrafficMix, seed: int = 0,
                 clock: Optional[FakeClock] = None):
        for kind, _ in mix.kinds:
            if not questions.get(kind):
                raise ValueError(f"no questions for kind {kind!r}")
        self.gateway = gateway
        self.questions = {kind: list(qs) for kind, qs in questions.items()}
        self.mix = mix
        self.seed = seed
        self.clock = clock
        self.results: List[RequestResult] = []

    def _draw(self, *parts: str) -> float:
        return stable_unit(str(self.seed), self.mix.name, *parts)

    def _compose(self, index: int,
                 tenant: Optional[str] = None) -> Tuple[str, str, str]:
        """(tenant, kind, question) for request ``index``."""
        kind = self.mix.pick(self.mix.kinds, self._draw("kind", str(index)))
        if tenant is None:
            tenant = self.mix.pick(self.mix.tenants,
                                   self._draw("tenant", str(index)))
        pool = self.questions[kind]
        question = pool[int(self._draw("question", str(index)) * len(pool))
                        % len(pool)]
        return tenant, kind, question

    def _advance_clock(self, arrival: float) -> None:
        if self.clock is not None and arrival > self.clock.now():
            self.clock.advance(arrival - self.clock.now())

    def run_open(self, rate: float, n_requests: int) -> LoadReport:
        """Poisson arrivals at ``rate`` req/s, independent of completions."""
        if rate <= 0:
            raise ValueError("rate must be > 0")
        results: List[RequestResult] = []
        now = 0.0
        for index in range(n_requests):
            unit = self._draw("arrival", str(index))
            now += -math.log(1.0 - unit) / rate
            self._advance_clock(now)
            tenant, kind, question = self._compose(index)
            session = f"{tenant}:open:{index % 4}"
            results.append(self.gateway.offer(tenant, kind, question, now,
                                              session_id=session))
        self.results.extend(results)
        return _build_report(self.mix.name, "open", self.gateway, results)

    def run_closed(self, clients: int = 8, requests_per_client: int = 10,
                   think: float = 0.5) -> LoadReport:
        """A fixed client population: submit → wait for finish → think.

        Because the gateway resolves requests eagerly, a client's next
        submit time is known the moment its current request returns;
        the generator merges clients on a time-ordered heap so the
        gateway still sees one non-decreasing arrival stream.
        """
        if clients < 1:
            raise ValueError("clients must be >= 1")
        results: List[RequestResult] = []
        # (next submit time, client id, requests already sent)
        schedule = [(think * self._draw("start", str(client)), client, 0)
                    for client in range(clients)]
        heapq.heapify(schedule)
        while schedule:
            now, client, sent = heapq.heappop(schedule)
            tag = f"{client}:{sent}"
            tenant = self.mix.pick(self.mix.tenants,
                                   self._draw("client", str(client)))
            _, kind, question = self._compose_closed(client, sent, tenant)
            self._advance_clock(now)
            result = self.gateway.offer(tenant, kind, question, now,
                                        session_id=f"{tenant}:c{client}")
            results.append(result)
            sent += 1
            if sent < requests_per_client:
                resume = result.finish if result.ok else now
                pause = think * (0.5 + self._draw("think", tag))
                if result.status == "rejected":
                    # Back off before retrying admission-rejected work.
                    pause += think
                heapq.heappush(schedule, (resume + pause, client, sent))
        self.results.extend(results)
        return _build_report(self.mix.name, "closed", self.gateway, results)

    def _compose_closed(self, client: int, sent: int,
                        tenant: str) -> Tuple[str, str, str]:
        tag = f"c{client}:{sent}"
        kind = self.mix.pick(self.mix.kinds, self._draw("kind", tag))
        pool = self.questions[kind]
        question = pool[int(self._draw("question", tag) * len(pool))
                        % len(pool)]
        return tenant, kind, question


def overload_experiment(dataset: str = "enterprise", mix_name: str = "mixed",
                        capacity: int = 4, load_factor: float = 1.0,
                        n_requests: int = 200, seed: int = 0,
                        queue_limit: int = 16, budget: float = 6.0,
                        llm=None, obs=None) -> LoadReport:
    """One open-loop replay at ``load_factor`` × the fleet's capacity.

    Capacity is ``workers / mean tier-0 service cost`` for the mix —
    the sustainable full-fidelity rate. ``load_factor=2.0`` is the
    benchmark's overload condition. Fresh backends and gateway per call,
    so experiments at different factors never share warm caches.
    """
    mix = MIXES[mix_name]
    obs = resolve_obs(obs)
    backends = build_backends(dataset=dataset, seed=seed, llm=llm, obs=obs)
    gateway = Gateway(backends.handlers, capacity=capacity,
                      queue_limit=queue_limit, budget=budget,
                      breaker=CircuitBreaker(failure_threshold=5, cooldown=8,
                                             name="serve-tier0"),
                      obs=obs, seed=seed)
    capacity_rps = capacity / mix.mean_tier0_cost()
    clock = obs.clock if isinstance(getattr(obs, "clock", None),
                                    FakeClock) else None
    generator = LoadGenerator(gateway, question_pool(backends.dataset,
                                                     seed=seed),
                              mix, seed=seed, clock=clock)
    report = generator.run_open(rate=load_factor * capacity_rps,
                                n_requests=n_requests)
    report.gateway_stats["capacity_rps"] = round(capacity_rps, 6)
    report.gateway_stats["offered_rps"] = round(load_factor * capacity_rps, 6)
    return report


def partition_experiment(dataset: str = "enterprise",
                         mix_name: str = "mixed", capacity: int = 4,
                         load_factor: float = 2.0, n_requests: int = 200,
                         seed: int = 0, queue_limit: int = 16,
                         budget: float = 6.0, replicas: int = 2,
                         shards: int = 0, transport_profile=None,
                         partition: bool = True, partition_at: float = 0.25,
                         llm=None, obs=None,
                         schedule_out: Optional[str] = None
                         ) -> Tuple[LoadReport, Dict[str, Any]]:
    """An overload replay over *replicated* shards, partitioned mid-run.

    Same arrival stream as :func:`overload_experiment` (identical seed →
    identical tenants/kinds/questions), but the backends are re-homed
    onto a :class:`~repro.kg.replication.ReplicatedShardedTripleStore`
    and — when ``partition`` is true — one replica of every shard is
    forced off the network after ``partition_at`` of the requests have
    arrived. Run once with ``partition=False`` and once with the
    default to measure what the partition costs: the replication bench
    gates the partitioned goodput at ≥99% of the fault-free run.

    Returns ``(report, detail)`` where ``detail`` carries the
    replication counters, the victim list and the availability ratio
    (completed / admitted). ``schedule_out`` archives the transport's
    fault schedule as JSONL (the CI artifact; replayable via
    ``repro serve replay --schedule``).
    """
    mix = MIXES[mix_name]
    obs = resolve_obs(obs)
    backends = build_backends(dataset=dataset, seed=seed, llm=llm, obs=obs,
                              shards=shards, replicas=max(1, replicas),
                              transport_profile=transport_profile)
    replicated = backends.replicated
    gateway = Gateway(backends.handlers, capacity=capacity,
                      queue_limit=queue_limit, budget=budget,
                      breaker=CircuitBreaker(failure_threshold=5, cooldown=8,
                                             name="serve-tier0"),
                      obs=obs, seed=seed)
    capacity_rps = capacity / mix.mean_tier0_cost()
    rate = load_factor * capacity_rps
    clock = obs.clock if isinstance(getattr(obs, "clock", None),
                                    FakeClock) else None
    generator = LoadGenerator(gateway, question_pool(backends.dataset,
                                                     seed=seed),
                              mix, seed=seed, clock=clock)
    trigger = int(n_requests * partition_at) if partition else -1
    victims: List[Tuple[int, int]] = []
    results: List[RequestResult] = []
    now = 0.0
    for index in range(n_requests):
        if index == trigger:
            victims = replicated.partition_one_replica_per_shard()
        unit = generator._draw("arrival", str(index))
        now += -math.log(1.0 - unit) / rate
        generator._advance_clock(now)
        tenant, kind, question = generator._compose(index)
        results.append(gateway.offer(tenant, kind, question, now,
                                     session_id=f"{tenant}:open:{index % 4}"))
    report = _build_report(mix.name, "open", gateway, results)
    report.gateway_stats["capacity_rps"] = round(capacity_rps, 6)
    report.gateway_stats["offered_rps"] = round(rate, 6)
    if schedule_out:
        replicated.transport.export_schedule_jsonl(schedule_out)
    admitted = gateway.admitted or 1
    detail = {
        "partitioned": bool(victims),
        "victims": victims,
        "availability": round(gateway.completed / admitted, 6),
        "replication": replicated.replication_stats(),
    }
    return report, detail


def serving_observability() -> Observability:
    """An obs facade on a FakeClock, ready for serving replays."""
    return Observability(clock=FakeClock(start=0.0, tick=0.0))
