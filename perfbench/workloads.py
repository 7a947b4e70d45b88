"""The benchmark's workloads: seeded inputs, set-up, and correctness checks.

Every workload drives real requests through ``Gateway.submit`` with one
closed-loop client (one thread, zero think time). Simulated arrivals are
spaced wider than the costliest ``TIER_COSTS`` tier, so the gateway's
simulated queue stays empty and every request runs at tier 0 whatever the
wall clock does. The datasets, the model and the question pools are fixed
(seed 0); the workload seed picks the request sequence drawn from them.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import resource
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.agent.eval import multihop_eval_set, score
from repro.kg.triples import IRI, RDFS, Literal, Triple
from repro.qa.multihop import generate_multihop_questions
from repro.serve.backends import (CHAT_SMALLTALK, GLOBAL_QUESTIONS, TIER_COSTS,
                                  ServingBackends, build_backends)
from repro.serve.gateway import Gateway
from repro.serve.loadgen import MIXES

#: Simulated seconds between arrivals: twice the costliest tier, so each
#: request finishes (in simulated time) before the next one arrives.
ARRIVAL_GAP = 2.0 * max(cost for costs in TIER_COSTS.values()
                        for cost in costs)

#: The program's own data and model are fixed; only the traffic is seeded.
DATA_SEED = 0

#: Chat sessions cycled through on mixed-warm: more than the gateway's
#: 32-session store, so the session LRU evicts.
CHAT_SESSIONS = 48

#: Written entities kept live: each write retires the entity written this
#: many writes before, so the KG keeps its size however fast a run writes.
LIVE_ENTITIES = 64

#: Benchmark-only predicate for written edges: no question mentions it.
BENCH_PREDICATE = IRI("http://repro.dev/bench/linkedTo")


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


@dataclass(frozen=True)
class Op:
    """One operation of a workload: a gateway request or a KG write."""

    kind: str                           # a request kind, or "write"
    question: str = ""
    tenant: str = "tenant-a"
    session: str = ""
    gold: Optional[frozenset] = None    # None: the answer is not graded
    triples: Tuple[Triple, ...] = ()    # written by a write op
    retired: Tuple[Triple, ...] = ()    # removed by a write op


@dataclass
class Workload:
    """A named traffic shape over one serving stack."""

    name: str
    dataset: str
    build: Dict[str, int]
    ops: Callable[[ServingBackends, int], Iterator[Op]]
    warmup: Callable[[ServingBackends, int], List[Op]]
    #: Every ``write_every``-th op is a write instead of a request.
    write_every: int
    #: Timed requests whose answers feed the digest and
    #: ``answer_accuracy``: a fixed head of the deterministic op stream, so
    #: both repeat exactly for a seed however fast a run goes. Sized so the
    #: seed's choice of questions moves the accuracy by well under 1%.
    #: ``rss_peak_mb`` is read when the head is done, after the same work
    #: on every run: the program's memory grows with the ops it serves, so
    #: the peak at the end of the run followed the host's speed.
    graded: int
    grade: Callable[[str, frozenset], bool] = field(
        default=lambda answer, gold: all(label in answer for label in gold))


def _gold(backends: ServingBackends, answers) -> frozenset:
    return frozenset(backends.dataset.kg.label(a) for a in answers)


def _entity_triples(seed: int, index: int) -> Tuple[Triple, ...]:
    entity = IRI(f"http://repro.dev/bench/{seed}/e{index}")
    previous = IRI(f"http://repro.dev/bench/{seed}/e{index - 1}")
    return (Triple(entity, RDFS.label, Literal(f"bench entity {index}")),
            Triple(entity, BENCH_PREDICATE, previous))


def _write_ops(seed: int, index: int = 0) -> Iterator[Op]:
    """Fresh entities, each a label plus one bench-only edge to the last.

    The edges chain written entities to each other, never to the dataset's
    own entities, so gold answers stay fixed while every write still bumps
    the store version and invalidates the read caches.
    """
    while True:
        retired = _entity_triples(seed, index - LIVE_ENTITIES) \
            if index >= LIVE_ENTITIES else ()
        yield Op("write", triples=_entity_triples(seed, index),
                 retired=retired)
        index += 1


def _cycle(rng: random.Random, items: Sequence) -> Iterator:
    """Endless seeded passes over ``items``, each in a fresh order.

    Every pass grades each question once, so ``answer_accuracy`` depends on
    the question pool, not on which questions a seed happens to repeat.
    """
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _factual_pool(backends: ServingBackends):
    """Every generated 1-hop question of the dataset with its gold labels."""
    questions = generate_multihop_questions(backends.dataset, n=10_000,
                                            hops=1, seed=DATA_SEED)
    return [(q.text, _gold(backends, q.answers)) for q in questions]


def _tenant(rng: random.Random, mix: str = "mixed") -> str:
    tenants = MIXES[mix].tenants
    return rng.choices([t for t, _ in tenants], [w for _, w in tenants])[0]


# ----------------------------------------------------------------------
# mixed-warm
# ----------------------------------------------------------------------
def _mixed_ops(backends: ServingBackends, seed: int) -> Iterator[Op]:
    rng = random.Random(f"mixed-warm:{seed}")
    pool = _factual_pool(backends)
    factual = {kind: _cycle(rng, pool) for kind in ("rag", "sparql", "chat")}
    kinds = MIXES["mixed"].kinds
    names, weights = [k for k, _ in kinds], [w for _, w in kinds]

    def stream() -> Iterator[Op]:
        while True:
            kind = rng.choices(names, weights)[0]
            tenant = _tenant(rng)
            if kind == "graphrag":
                yield Op(kind, rng.choice(GLOBAL_QUESTIONS), tenant)
            elif kind == "chat":
                session = f"s{rng.randrange(CHAT_SESSIONS)}"
                if rng.random() < 0.5:
                    yield Op(kind, rng.choice(CHAT_SMALLTALK), tenant,
                             session)
                else:
                    text, gold = next(factual[kind])
                    yield Op(kind, text, tenant, session, gold)
            else:
                text, gold = next(factual[kind])
                yield Op(kind, text, tenant, "", gold)
    return stream()


def _mixed_warmup(backends: ServingBackends, seed: int) -> List[Op]:
    """Every distinct input once, so the LLM caches hold the working set."""
    pool = _factual_pool(backends)
    ops = [Op("graphrag", q) for q in GLOBAL_QUESTIONS]
    for kind in ("rag", "sparql", "chat"):
        ops.extend(Op(kind, text, session=f"s{i % CHAT_SESSIONS}")
                   for i, (text, _) in enumerate(pool))
    return ops


# ----------------------------------------------------------------------
# llm-cold
# ----------------------------------------------------------------------
#: Entity-templated global questions (GraphRAG map-reduce on every one).
GLOBAL_TEMPLATES = (
    "What are the main themes around {}?",
    "Summarize how {} relates to the rest of the organisation.",
    "Which communities of entities involve {}, and why?",
)


def _cold_ops(backends: ServingBackends, seed: int,
              start: int = 0) -> Iterator[Op]:
    rng = random.Random(f"llm-cold:{seed}:{start}")
    kg = backends.dataset.kg
    factual = _cycle(rng, _factual_pool(backends))
    entities = _cycle(rng, [kg.label(entity) for entity in sorted(
        {q.anchor for q in generate_multihop_questions(
            backends.dataset, n=10_000, hops=1, seed=DATA_SEED)},
        key=lambda e: e.value)])

    def stream() -> Iterator[Op]:
        for index in itertools.count(start):
            # A request-unique suffix: no question repeats, so the LLM
            # caches miss and the working set outgrows them.
            suffix = f" (ref {seed}-{index})"
            if rng.random() < 0.25:
                template = rng.choice(GLOBAL_TEMPLATES)
                yield Op("graphrag", template.format(next(entities)) + suffix,
                         _tenant(rng))
            else:
                text, gold = next(factual)
                yield Op("rag", text + suffix, _tenant(rng), "", gold)
    return stream()


def _cold_warmup(backends: ServingBackends, seed: int) -> List[Op]:
    """A few unique requests outside the timed stream's reference range."""
    ops = _cold_ops(backends, seed, start=10 ** 9)
    return [next(ops) for _ in range(16)]


# ----------------------------------------------------------------------
# agent-rw
# ----------------------------------------------------------------------
def _agent_items(backends: ServingBackends):
    return multihop_eval_set(backends.dataset, n=12, seed=DATA_SEED)


def _agent_ops(backends: ServingBackends, seed: int) -> Iterator[Op]:
    rng = random.Random(f"agent-rw:{seed}")
    items = _cycle(rng, _agent_items(backends))

    def stream() -> Iterator[Op]:
        while True:
            item = next(items)
            yield Op("agent", item.question, _tenant(rng, "agentic"),
                     f"s{rng.randrange(8)}", item.gold)
    return stream()


def _agent_warmup(backends: ServingBackends, seed: int) -> List[Op]:
    return [Op("agent", item.question, session="s0")
            for item in _agent_items(backends)]


WORKLOADS: Dict[str, Workload] = {
    "mixed-warm": Workload(
        name="mixed-warm",
        dataset="encyclopedia", build={},
        ops=_mixed_ops, warmup=_mixed_warmup, write_every=50,
        graded=20_000),
    "llm-cold": Workload(
        name="llm-cold",
        dataset="enterprise", build={},
        ops=_cold_ops, warmup=_cold_warmup, write_every=20,
        graded=8_000),
    "agent-rw": Workload(
        name="agent-rw",
        dataset="family", build={"shards": 4, "replicas": 2},
        ops=_agent_ops, warmup=_agent_warmup, write_every=10,
        graded=8_000, grade=score),
}


def build(workload: Workload) -> ServingBackends:
    """The serving stack for a workload (what ``setup_s`` times)."""
    return build_backends(workload.dataset, seed=DATA_SEED, **workload.build)


def make_gateway(backends: ServingBackends, seed: int) -> Gateway:
    """A gateway whose simulated queue never fills at ``ARRIVAL_GAP``."""
    return Gateway(backends.handlers, seed=seed)


def warmup_ops(workload: Workload, backends: ServingBackends,
               seed: int) -> List[Op]:
    """The untimed ops before the timed phase: the workload's warm-up
    requests, then the first ``LIVE_ENTITIES`` writes, so every timed write
    both adds and retires an entity."""
    writes = _write_ops(seed)
    return workload.warmup(backends, seed) + \
        [next(writes) for _ in range(LIVE_ENTITIES)]


def op_stream(workload: Workload, backends: ServingBackends,
              seed: int) -> Iterator[Op]:
    """The workload's deterministic timed op stream, writes interleaved.

    The question pools are drawn here, from the KG as built: call this
    before any write, or written entities would enter the pools.
    """
    reads = workload.ops(backends, seed)
    writes = _write_ops(seed, LIVE_ENTITIES)
    return (next(writes) if index % workload.write_every == 0
            else next(reads) for index in itertools.count(1))


class Ledger:
    """Answers of the graded head of the op stream, for the digest and the
    accuracy."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._hash = hashlib.sha256()
        self.recorded = 0
        self.graded = 0
        self.correct = 0
        self.peak_rss_kb = 0

    def record(self, op: Op, answer) -> None:
        if self.full:
            return
        self.recorded += 1
        self._hash.update(f"{op.kind}\x1f{op.question}\x1f{answer}\x1e"
                          .encode())
        if op.gold is not None:
            self.graded += 1
            self.correct += int(self.workload.grade(str(answer), op.gold))
        if self.full:
            self.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss

    @property
    def full(self) -> bool:
        return self.recorded >= self.workload.graded

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    @property
    def accuracy(self) -> float:
        return self.correct / self.graded if self.graded else 0.0


def check_result(op: Op, result) -> None:
    """Every request completes at tier 0."""
    if result.status != "completed" or result.tier_index != 0:
        raise CheckFailed(
            f"{op.kind} request {op.question!r} ended {result.status} at "
            f"tier {result.tier!r}: {result.error or result.step_errors}")


def check_gateway(gateway: Gateway, requests: int) -> Dict[str, int]:
    """Ledger of a finished run: all admitted, all tier 0, none failed."""
    stats = gateway.stats()
    if stats["submitted"] != requests or stats["completed"] != requests:
        raise CheckFailed(f"gateway completed {stats['completed']} of "
                          f"{requests} requests")
    for key in ("failed", "shed", "degraded", "rejected_queue_full",
                "rejected_throttled"):
        if stats[key]:
            raise CheckFailed(f"gateway counted {stats[key]} {key}")
    tiers = {key[len("tier_"):]: count for key, count in stats.items()
             if key.startswith("tier_")}
    for key in tiers:
        kind, tier = key.split(":", 1)
        if tier != gateway.handlers[kind][0].name:
            raise CheckFailed(f"requests answered at degraded tier {key}")
    return tiers


def check_writes(backends: ServingBackends, seed: int, writes: int) -> None:
    """Live writes read back, retired ones are gone, replicas agree."""
    store = backends.dataset.kg.store
    live = max(0, writes - LIVE_ENTITIES)
    for index in range(writes):
        for triple in _entity_triples(seed, index):
            found = bool(store.match(triple.subject, triple.predicate,
                                     triple.object))
            if found != (index >= live):
                raise CheckFailed(f"written triple {triple} is "
                                  f"{'still' if found else 'not'} readable "
                                  f"after {writes} writes")
    if backends.replicated is not None:
        diverged = [row for row in backends.replicated.verify_replicas()
                    if not row["identical"] or row["lag"]]
        if diverged:
            raise CheckFailed(f"replicas diverged: {diverged[:3]}")


def llm_caches(backends: ServingBackends) -> List[object]:
    """The memoizing LLM wrappers of the stack (RAG and GraphRAG)."""
    return [backends.rag.llm, backends.graph_rag.llm]
