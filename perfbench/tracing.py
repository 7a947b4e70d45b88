"""Outside-in span tracing of the serving stack, for the traced run.

:class:`Tracer` wraps the public entry points of each layer with span
recorders for the duration of a ``with tracer.installed():`` block and puts
every original back when it exits. Each span records its name, start, end,
parent span and the id of the operation (request or write) it belongs to;
spans stay in memory until the run ends. A layer's self time is the time
its spans cover minus the time their child spans cover.

The wrappers live here, not in the program: the layers are patched at the
class (or module) attribute the program calls through.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.agent.loop import GraphAgent
from repro.agent.tools import Tool
from repro.enhanced.graph_rag import GraphRAG
from repro.enhanced.rag import NaiveRAG
from repro.kg.graph import KnowledgeGraph
from repro.kg.indexes import FullTextIndex
from repro.kg.replication import ShardTransport
from repro.kg.sharding import ShardedTripleStore
from repro.kg.store import TripleStore
from repro.llm.caching import CachingLLM
from repro.llm.embedding import TextEncoder
from repro.llm.model import SimulatedLLM
from repro.qa.chatbot import KGChatbot
from repro.qa.text2sparql import ResilientText2SparqlQA
from repro.serve.gateway import Gateway, TierStep
from repro.serve.session import SessionStore
from repro.sparql.evaluator import SparqlEngine
from repro.sparql.planner import CostPlanner
from repro.vector.index import VectorIndex
import repro.qa.text2sparql as text2sparql_module
import repro.sparql.parser as parser_module
from workloads import llm_caches

#: Span name for tier handlers: glue in the serving backends between the
#: gateway and the pipelines. Its self time is the request time no layer
#: claims.
UNATTRIBUTED = "serve.tier"

#: (owner, attribute, span name, size of a result) for each class method.
METHOD_SPANS: Tuple[Tuple[type, str, str, Optional[Callable]], ...] = (
    (Gateway, "submit", "serve.gateway", None),
    (SessionStore, "get", "serve.session", None),
    (ResilientText2SparqlQA, "answer", "qa.text2sparql", None),
    (KGChatbot, "chat", "qa.chatbot", None),
    (GraphRAG, "answer_global", "enhanced.graph_rag", None),
    (GraphRAG, "answer_local", "enhanced.graph_rag", None),
    (NaiveRAG, "answer_with_report", "enhanced.rag", None),
    (NaiveRAG, "closed_book_answer", "enhanced.rag", None),
    (GraphAgent, "run", "agent.loop", lambda trace: len(trace.steps)),
    (CachingLLM, "complete", "llm.caching", None),
    (CachingLLM, "complete_batch", "llm.caching", None),
    (SimulatedLLM, "complete", "llm.model", None),
    (SimulatedLLM, "complete_batch", "llm.model", None),
    (TextEncoder, "encode", "llm.embedding", None),
    (TextEncoder, "encode_batch", "llm.embedding", None),
    (VectorIndex, "search", "vector.index", None),
    (CostPlanner, "plan_bgp", "sparql.planner", None),
    (TripleStore, "predicate_stats", "sparql.planner.stats", None),
    (ShardedTripleStore, "predicate_stats", "sparql.planner.stats", None),
    (SparqlEngine, "select", "sparql.evaluator", len),
    (SparqlEngine, "ask", "sparql.evaluator", None),
    (FullTextIndex, "candidates", "kg.indexes", None),
    (TripleStore, "match", "kg.store", len),
    (ShardedTripleStore, "match", "kg.sharding", len),
    (ShardTransport, "call", "kg.replication", None),
    (KnowledgeGraph, "add_triples", "kg.write", None),
    (TripleStore, "remove_all", "kg.write", None),
    (ShardedTripleStore, "remove_all", "kg.write", None),
)

#: (module, function, span name) for module functions, patched in every
#: loaded module of the program that imported them by name.
FUNCTION_SPANS = (
    (parser_module, "parse_query", "sparql.parser"),
    (text2sparql_module, "repair_query", "qa.text2sparql.repair"),
)

#: Span names whose self time counts toward another layer.
SELF_TIME_LAYER = {
    "sparql.planner.stats": "sparql.planner",
    "qa.text2sparql.repair": "qa.text2sparql",
}

TOOLS = ("entity_search", "neighbors", "find_path", "aggregate", "sparql")

#: Layers reported as calls and self time per request.
TIMED_LAYERS = (
    "serve.gateway", "serve.session", "qa.text2sparql", "qa.chatbot", "enhanced.graph_rag",
    "enhanced.rag", "agent.loop", "llm.caching", "llm.model",
    "llm.embedding", "vector.index", "sparql.parser", "sparql.planner",
    "sparql.evaluator", "kg.indexes", "kg.store", "kg.sharding",
    "kg.replication", *(f"agent.tools.{tool}" for tool in TOOLS))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Span recorder over one serving stack and its gateway."""

    def __init__(self, backends, gateway: Gateway):
        self.backends = backends
        self.gateway = gateway
        # One record per span: [name, start_ns, end_ns, parent, op, size].
        self.spans: List[list] = []
        self._open: List[int] = []
        self._ops = 0
        self._restore: List[Callable[[], None]] = []
        self._before: Dict[str, Dict[str, Any]] = {}
        self._fulltext: Dict[int, Tuple[FullTextIndex, int]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str,
              size: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._ops += 1
            record = [name, 0, 0, parent, self._ops, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[5] = size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _watch_fulltext(self, fn: Callable) -> Callable:
        """Note each full-text index on first use, with its rebuild count."""
        def watched(index: FullTextIndex, *args, **kwargs):
            if id(index) not in self._fulltext:
                self._fulltext[id(index)] = (index, index.stats()["rebuilds"])
            return fn(index, *args, **kwargs)
        return watched

    def install(self) -> None:
        """Wrap every layer entry point and snapshot the stats surfaces."""
        for owner, attr, name, size in METHOD_SPANS:
            wrapped = self._wrap(owner.__dict__[attr], name, size)
            if owner is FullTextIndex:
                wrapped = self._watch_fulltext(wrapped)
            self._patch(owner, attr, wrapped)
        for module, attr, name in FUNCTION_SPANS:
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and \
                        getattr(loaded, attr, None) is original:
                    self._patch(loaded, attr, wrapped)
        for steps in self.gateway.handlers.values():
            for index, step in enumerate(steps):
                steps[index] = TierStep(step.name, step.cost,
                                        self._wrap(step.fn, UNATTRIBUTED))
                self._restore.append(
                    lambda steps=steps, index=index, step=step:
                    steps.__setitem__(index, step))
        registry = self.backends.agent.registry
        for tool_name in TOOLS:
            tool = registry.get(tool_name)
            registry.register(Tool(tool.name, tool.description, self._wrap(
                tool.fn, f"agent.tools.{tool_name}")))
            self._restore.append(lambda tool=tool: registry.register(tool))
        self._before = self._surfaces()

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._restore:
            self._restore.pop()()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self._after = self._surfaces()
            self.uninstall()

    # ------------------------------------------------------------------
    # Stats surfaces
    # ------------------------------------------------------------------
    def _surfaces(self) -> Dict[str, Dict[str, Any]]:
        backends = self.backends
        caches = [cache.cache_stats() for cache in llm_caches(backends)]
        out = {
            "gateway": self.gateway.stats(),
            "sessions": backends.sessions.cache_stats(),
            "llm_cache": {key: sum(c[key] for c in caches)
                          for key in ("hits", "misses")},
            "usage": dict(backends.llm.usage),
            "embedder": backends.rag.encoder.embedder.cache_stats(),
            "kg": backends.dataset.kg.cache_stats(),
        }
        if backends.replicated is not None:
            stats = backends.replicated.replication_stats()
            out["replication"] = {key: value for key, value in stats.items()
                                  if key != "transport"}
            out["transport"] = stats["transport"]
        return out

    def _delta(self, surface: str, key: str) -> float:
        after = self._after.get(surface, {}).get(key, 0)
        return after - self._before.get(surface, {}).get(key, 0)

    # ------------------------------------------------------------------
    # Per-layer metrics
    # ------------------------------------------------------------------
    def _within(self, name: str, parent: int) -> bool:
        """Whether a span named ``name`` sits inside another of that name."""
        spans = self.spans
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def layer_metrics(self, requests: int, writes: int,
                      request_wall_ms: float
                      ) -> Tuple[Dict[str, float], Dict[str, str]]:
        """Per-layer metrics normalised per request (writes: per write)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        sizes: Dict[str, int] = {}
        request_self_ns = 0
        is_request = {}
        shards: Dict[int, int] = {}
        for index, (name, start, end, parent, op, size) in enumerate(spans):
            if parent < 0:
                is_request[op] = name == "serve.gateway"
            own = end - start - child_ns[index]
            if not is_request[op]:
                # A write's whole span tree (replica ships included) is
                # the write path: it counts per write, not per request.
                self_ns["kg.write"] = self_ns.get("kg.write", 0) + own
                if parent < 0:
                    calls["kg.write"] = calls.get("kg.write", 0) + 1
                continue
            layer = SELF_TIME_LAYER.get(name, name)
            self_ns[layer] = self_ns.get(layer, 0) + own
            if name != UNATTRIBUTED:
                request_self_ns += own
            # A call enters a layer from another one: recursion and
            # delegation within a layer (a sharded store's shards, also
            # across the replica transport) count once.
            if not self._within(name, parent):
                calls[name] = calls.get(name, 0) + 1
                sizes[name] = sizes.get(name, 0) + size
            if name == "kg.store":
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != "kg.sharding":
                    ancestor = spans[ancestor][3]
                if ancestor >= 0:
                    shards[ancestor] = shards.get(ancestor, 0) + 1
        per = max(requests, 1)
        metrics: Dict[str, float] = {}
        units: Dict[str, str] = {}

        def put(name: str, value: float, unit: str) -> None:
            metrics[name] = float(value)
            units[name] = unit

        for layer in TIMED_LAYERS:
            put(f"{layer}.calls", calls.get(layer, 0) / per, "1/req")
            put(f"{layer}.self_ms", self_ns.get(layer, 0) / 1e6 / per,
                "ms/req")
        put("kg.write.calls", calls.get("kg.write", 0) / max(writes, 1),
            "1/write")
        put("kg.write.self_ms", self_ns.get("kg.write", 0) / 1e6
            / max(writes, 1), "ms/write")
        tier0 = 0
        for key in self._after["gateway"]:
            if key.startswith("tier_"):
                kind, tier = key[len("tier_"):].split(":", 1)
                if tier == self.gateway.handlers[kind][0].name:
                    tier0 += self._delta("gateway", key)
        put("serve.gateway.tier0_ratio",
            _ratio(tier0, self._delta("gateway", "completed")), "ratio")
        put("serve.gateway.failed", self._delta("gateway", "failed"),
            "count")
        hits = self._delta("sessions", "hits")
        put("serve.session.hit_ratio",
            _ratio(hits, hits + self._delta("sessions", "misses")), "ratio")
        put("serve.session.evictions",
            self._delta("sessions", "evictions") / per, "1/req")
        put("qa.text2sparql.repair_ratio",
            _ratio(calls.get("qa.text2sparql.repair", 0),
                   calls.get("qa.text2sparql", 0)), "ratio")
        episodes = calls.get("agent.loop", 0)
        put("agent.loop.steps_per_episode",
            _ratio(sizes.get("agent.loop", 0), episodes), "1/episode")
        hits = self._delta("llm_cache", "hits")
        put("llm.caching.hit_ratio",
            _ratio(hits, hits + self._delta("llm_cache", "misses")), "ratio")
        put("llm.model.prompt_tokens",
            self._delta("usage", "prompt_tokens") / per, "tokens/req")
        put("llm.model.completion_tokens",
            self._delta("usage", "completion_tokens") / per, "tokens/req")
        hits = self._delta("embedder", "hits")
        put("llm.embedding.hit_ratio",
            _ratio(hits, hits + self._delta("embedder", "misses")), "ratio")
        put("sparql.planner.stats_recomputes",
            calls.get("sparql.planner.stats", 0) / per, "1/req")
        put("sparql.evaluator.rows_per_call",
            _ratio(sizes.get("sparql.evaluator", 0),
                   calls.get("sparql.evaluator", 0)), "rows")
        hits = self._delta("kg", "hits")
        put("kg.graph.hit_ratio",
            _ratio(hits, hits + self._delta("kg", "misses")), "ratio")
        put("kg.graph.invalidations",
            self._delta("kg", "invalidations") / per, "1/req")
        rebuilds = sum(index.stats()["rebuilds"] - before
                       for index, before in self._fulltext.values())
        put("kg.indexes.segment_rebuilds", rebuilds / per, "1/req")
        put("kg.store.triples_per_match",
            _ratio(sizes.get("kg.store", 0), calls.get("kg.store", 0)),
            "triples")
        put("kg.sharding.shards_per_match",
            _ratio(sum(shards.values()), calls.get("kg.sharding", 0)),
            "shards")
        reads = self._delta("replication", "reads")
        ships = self._delta("replication", "ships") + \
            self._delta("replication", "ship_failures")
        put("kg.replication.attempts_per_read",
            _ratio(self._delta("transport", "calls") - ships, reads),
            "1/read")
        for key in ("hedges_fired", "failovers"):
            put(f"kg.replication.{key}",
                self._delta("replication", key) / per, "1/req")
        put("kg.replication.ships",
            self._delta("replication", "ships") / max(writes, 1), "1/write")
        put("kg.replication.max_lag",
            self._after.get("replication", {}).get("max_lag", 0), "records")
        put("trace.spans_per_request", len(spans) / per, "1/req")
        put("trace.unattributed_share",
            1.0 - _ratio(request_self_ns / 1e6, request_wall_ms), "ratio")
        return metrics, units
