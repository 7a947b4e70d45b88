"""Orca-style continuous batching over streamed completions.

The gateway (PR 6) schedules *whole requests*: a worker slot is held
from admission to final answer, so time-to-first-token equals full
completion latency and a batch runs at the pace of its slowest member.
:class:`TokenScheduler` moves scheduling down to **token-step
boundaries**, the way real inference stacks (Orca's iteration-level
scheduling, vLLM's continuous batching) do:

* the engine repeatedly runs one *iteration* — every running stream
  emits one decode-step chunk — and between iterations requests may
  **join** (FCFS admission with tenant fairness) and **leave**
  (completion, or deadline-aware mid-stream shedding that returns the
  chunks delivered so far plus a typed reason);
* a joining request pays a **prefill** cost proportional to its prompt
  tokens, minus whatever prefix the optional
  :class:`~repro.llm.prefix_cache.RadixPrefixCache` already holds;
* iteration duration grows sublinearly with batch width
  (``step_time * (1 + batch_growth * (B - 1))``), so batching wins
  throughput but is not free — the classic serving trade.

Two policies share the engine so the benchmark can measure the gap:

* ``"continuous"`` — slots free at token boundaries; admission runs
  every iteration;
* ``"run_to_completion"`` — the static baseline: a batch is formed only
  when the engine is empty, nobody joins mid-flight, and iteration cost
  stays at the *initial* batch width until the last member finishes
  (early finishers waste their slots, exactly the waste Orca removed).

The engine is a single-threaded, eager discrete-event simulation in the
gateway's style: no wall clock, arrivals must be non-decreasing, every
number is a pure function of ``(workload, seed, knobs)``, and an
optional :class:`~repro.core.observability.FakeClock` is advanced to
every iteration boundary so metrics share the simulated timeline. The
ledger mirrors the gateway's::

    submitted == streamed + rejected
    streamed  == completed_streams + shed_mid_stream

where *streamed* counts every admitted stream (a queue-expired request
is admitted and immediately shed with zero chunks, consuming no model
call). Faults from a wrapped
:class:`~repro.llm.faults.FaultInjectingLLM` surface as mid-stream
sheds with reason ``fault:<kind>`` — the partial prefix stays in the
result, so the chaos suite can assert that a stream shed at chunk *k*
delivered exactly the first *k* chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.hashing import stable_unit
from repro.core.observability import FakeClock, resolve_obs
from repro.kg.datasets import DATASET_BUILDERS, Dataset
from repro.llm.faults import FaultInjectingLLM, FaultProfile, LLMTransientError
from repro.llm.prefix_cache import RadixPrefixCache
from repro.llm.registry import load_model
from repro.llm.streaming import stream_chunks
from repro.llm.tokenizer import count_tokens
from repro.llm import prompts as P
from repro.qa.multihop import generate_multihop_questions
from repro.serve.backends import CHAT_SMALLTALK
from repro.serve.gateway import Request, RequestResult
from repro.serve.loadgen import LoadReport, TrafficMix, _build_report

#: Scheduling policies the engine understands.
POLICIES = ("continuous", "run_to_completion")

#: Default decode-step time for a batch of one, in simulated seconds.
DEFAULT_STEP_TIME = 0.02
#: Default per-token prefill cost, in simulated seconds.
DEFAULT_PREFILL_TIME = 0.0004
#: Marginal iteration-cost growth per extra running stream.
DEFAULT_BATCH_GROWTH = 0.15


@dataclass(frozen=True)
class StreamRequest:
    """One streamed unit of work offered to the scheduler."""

    tenant: str
    kind: str
    prompt: str
    arrival: float
    session_id: str = ""
    max_tokens: int = 256


class _Active:
    """A stream occupying a batch slot."""

    __slots__ = ("seq", "req", "admitted", "stream", "pending", "done",
                 "error", "chunks", "emit_times", "first_token",
                 "prompt_tokens", "cached_tokens", "prefill_seconds",
                 "prefill_charged")

    def __init__(self, seq: int, req: StreamRequest, admitted: float):
        self.seq = seq
        self.req = req
        self.admitted = admitted
        self.stream = None
        self.pending: Optional[str] = None
        self.done = False
        self.error: Optional[LLMTransientError] = None
        self.chunks: List[str] = []
        self.emit_times: List[float] = []
        self.first_token: Optional[float] = None
        self.prompt_tokens = 0
        self.cached_tokens = 0
        self.prefill_seconds = 0.0
        self.prefill_charged = False


class TokenScheduler:
    """Iteration-level scheduler multiplexing streams over batch slots.

    ``max_batch`` is the simulated worker/batch width, ``queue_limit``
    bounds the waiting room (overflow is typed-rejected), ``budget`` is
    the per-request deadline from *arrival* — checked at every token
    boundary, so an expired stream is cut mid-flight with its partial
    output. Admission is FCFS with tenant fairness: among eligible
    waiting requests the tenant currently holding the fewest slots goes
    first (ties by arrival order), so one flooding tenant cannot starve
    the rest of the batch.
    """

    def __init__(self, llm, max_batch: int = 8, queue_limit: int = 64,
                 budget: float = 6.0,
                 step_time: float = DEFAULT_STEP_TIME,
                 prefill_time: float = DEFAULT_PREFILL_TIME,
                 batch_growth: float = DEFAULT_BATCH_GROWTH,
                 policy: str = "continuous",
                 prefix_cache: Optional[RadixPrefixCache] = None,
                 obs=None, clock: Optional[FakeClock] = None,
                 seed: int = 0):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if budget <= 0:
            raise ValueError("budget must be > 0")
        if step_time <= 0:
            raise ValueError("step_time must be > 0")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.llm = llm
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.budget = budget
        self.step_time = step_time
        self.prefill_time = prefill_time
        self.batch_growth = batch_growth
        self.policy = policy
        self.prefix_cache = prefix_cache
        self.obs = resolve_obs(obs)
        self.clock = clock
        self.seed = seed
        # Engine state.
        self._now = 0.0
        self._last_arrival = 0.0
        self._seq = 0
        self._waiting: List[Tuple[int, StreamRequest]] = []
        self._running: List[_Active] = []
        self._static_width = 0
        self._results: Dict[int, RequestResult] = {}
        # Counters (the ledger).
        self.submitted = 0
        self.streamed = 0
        self.rejected = {"queue_full": 0}
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.late = 0
        self.shed_reasons: Dict[str, int] = {}
        self.tokens_emitted = 0
        self.chunks_emitted = 0
        self.prompt_tokens_total = 0
        self.prefill_tokens_skipped = 0
        self.iterations = 0
        self.max_queue_depth = 0
        self.tier_counts: Dict[str, int] = {}
        self.tenant_tokens: Dict[str, int] = {}
        self.obs.register_source("serve.scheduler", self.stats)

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit(self, tenant: str, kind: str, prompt: str, arrival: float,
               session_id: str = "", max_tokens: int = 256) -> int:
        """Offer one request; returns its sequence number.

        Arrivals must be non-decreasing. The engine first runs every
        iteration boundary that falls before ``arrival`` (eager DES),
        then either queues the request or typed-rejects it when the
        waiting room is full.
        """
        if arrival < self._last_arrival:
            raise ValueError(
                f"arrivals must be non-decreasing: {arrival} < "
                f"{self._last_arrival}")
        self._last_arrival = arrival
        self._run_until(arrival)
        self.submitted += 1
        seq = self._seq
        self._seq += 1
        req = StreamRequest(tenant=tenant, kind=kind, prompt=prompt,
                            arrival=arrival, session_id=session_id,
                            max_tokens=max_tokens)
        if len(self._waiting) >= self.queue_limit:
            self.rejected["queue_full"] += 1
            self.obs.count("serve.stream_rejected", reason="queue_full")
            self._results[seq] = RequestResult(
                request=self._request_view(seq, req), status="rejected",
                tier="stream", start=arrival, finish=arrival,
                error="queue_full")
            return seq
        self._waiting.append((seq, req))
        self.max_queue_depth = max(self.max_queue_depth, len(self._waiting))
        return seq

    def drain(self) -> List[RequestResult]:
        """Run the engine to exhaustion; returns every result so far in
        submission order."""
        self._run_until(None)
        return [self._results[seq] for seq in sorted(self._results)]

    def run(self, requests: Sequence[StreamRequest]) -> List[RequestResult]:
        """Submit a whole workload (sorted by arrival) and drain it."""
        for req in requests:
            self.submit(req.tenant, req.kind, req.prompt, req.arrival,
                        session_id=req.session_id,
                        max_tokens=req.max_tokens)
        return self.drain()

    # ------------------------------------------------------------------
    # Engine core
    # ------------------------------------------------------------------
    def _run_until(self, limit: Optional[float]) -> None:
        """Process iteration boundaries up to ``limit`` (None = drain)."""
        while self._waiting or self._running:
            self._admit()
            if self._running:
                boundary = self._now + self._iteration_cost(commit=False)
                if limit is not None and boundary > limit:
                    break
                self._iteration_cost(commit=True)
                self._now = boundary
                self._advance_clock(boundary)
                self._step(boundary)
                continue
            if not self._waiting:
                break
            # Engine idle with only future arrivals queued: jump ahead.
            upcoming = self._waiting[0][1].arrival
            if limit is not None and upcoming > limit:
                break
            if upcoming > self._now:
                self._now = upcoming
                self._advance_clock(upcoming)
        if limit is not None and self._now < limit:
            self._now = limit

    def _advance_clock(self, t: float) -> None:
        if self.clock is not None and t > self.clock.now():
            self.clock.advance(t - self.clock.now())

    def _running_count(self, tenant: str) -> int:
        return sum(1 for a in self._running if a.req.tenant == tenant)

    def _admit(self) -> None:
        """Fill free slots from the waiting room (policy-dependent)."""
        if self.policy == "run_to_completion" and self._running:
            return  # static batching: nobody joins a flying batch
        while len(self._running) < self.max_batch:
            eligible = [(seq, req) for seq, req in self._waiting
                        if req.arrival <= self._now]
            if not eligible:
                break
            # Tenant fairness: fewest running slots first, FCFS within.
            seq, req = min(
                eligible,
                key=lambda item: (self._running_count(item[1].tenant),
                                  item[0]))
            self._waiting.remove((seq, req))
            if self._now - req.arrival >= self.budget:
                # Expired while queued: shed without touching the model.
                active = _Active(seq, req, admitted=self._now)
                self.streamed += 1
                self._resolve(active, self._now, "shed", "deadline")
                continue
            self._running.append(self._start_stream(seq, req))
            self.streamed += 1
        if self.policy == "run_to_completion" and self._running:
            self._static_width = len(self._running)

    def _start_stream(self, seq: int, req: StreamRequest) -> _Active:
        """Create the upstream stream for an admitted request.

        The model call (and with it the fault-schedule index) happens
        here, in admission order; a synchronous fault (timeout/rate
        limit/malformed) marks the slot failed — it still pays its
        prefill and resolves as a fault shed at the next boundary, the
        way a real engine discovers a dead upstream call.
        """
        active = _Active(seq, req, admitted=self._now)
        if self.prefix_cache is not None:
            total, cached = self.prefix_cache.cached_prefill(req.prompt)
        else:
            total, cached = count_tokens(req.prompt), 0
        active.prompt_tokens = total
        active.cached_tokens = cached
        active.prefill_seconds = max(0, total - cached) * self.prefill_time
        self.prompt_tokens_total += total
        self.prefill_tokens_skipped += cached
        try:
            active.stream = self.llm.complete_stream(
                req.prompt, max_tokens=req.max_tokens)
            active.pending = next(active.stream)
        except StopIteration:
            active.done = True
        except LLMTransientError as exc:
            active.error = exc
        return active

    def _iteration_cost(self, commit: bool) -> float:
        """One iteration's duration: the batched decode step plus the
        prefill debt of members that joined since the last boundary.
        Under run-to-completion the width term stays at the batch's
        initial size — finished members still occupy their padded slots.
        """
        width = len(self._running)
        if self.policy == "run_to_completion":
            width = max(self._static_width, width)
        cost = self.step_time * (1.0 + self.batch_growth * (width - 1))
        for active in self._running:
            if not active.prefill_charged:
                cost += active.prefill_seconds
                if commit:
                    active.prefill_charged = True
        if commit:
            self.iterations += 1
        return cost

    def _step(self, t: float) -> None:
        """Resolve one iteration boundary at time ``t``."""
        still: List[_Active] = []
        for active in self._running:
            if active.error is None and active.pending is not None:
                chunk = active.pending
                active.chunks.append(chunk)
                active.emit_times.append(t)
                if active.first_token is None:
                    active.first_token = t
                self.chunks_emitted += 1
                self.tokens_emitted += count_tokens(chunk)
                try:
                    active.pending = next(active.stream)
                except StopIteration:
                    active.pending = None
                    active.done = True
                except LLMTransientError as exc:
                    active.pending = None
                    active.error = exc
            if active.error is not None:
                self._resolve(active, t, "shed",
                              f"fault:{active.error.kind}")
            elif active.done:
                self._resolve(active, t, "completed", "")
            elif t - active.req.arrival >= self.budget:
                if active.stream is not None:
                    active.stream.close()
                self._resolve(active, t, "shed", "deadline")
            else:
                still.append(active)
        self._running = still
        if not still:
            self._static_width = 0

    # ------------------------------------------------------------------
    # Resolution & reporting
    # ------------------------------------------------------------------
    def _request_view(self, seq: int, req: StreamRequest) -> Request:
        return Request(tenant=req.tenant, kind=req.kind,
                       question=req.prompt, arrival=req.arrival,
                       session_id=req.session_id, seq=seq)

    def _resolve(self, active: _Active, t: float, status: str,
                 reason: str) -> None:
        req = active.req
        text = "".join(active.chunks)
        n_chunks = len(active.chunks)
        ttft = (active.first_token - req.arrival
                if active.first_token is not None else 0.0)
        tpot = ((t - active.first_token) / (n_chunks - 1)
                if active.first_token is not None and n_chunks >= 2
                else 0.0)
        tokens_out = count_tokens(text)
        late = status == "completed" and (t - req.arrival) > self.budget
        result = RequestResult(
            request=self._request_view(active.seq, req), status=status,
            tier="stream", tier_index=0, answer=text,
            start=active.admitted, finish=t,
            wait=active.admitted - req.arrival,
            service=t - active.admitted, late=late, error=reason,
            chunks=tuple(active.chunks), tokens_out=tokens_out,
            ttft=ttft, tpot=tpot, prompt_tokens=active.prompt_tokens,
            cached_prefix_tokens=active.cached_tokens)
        self._results[active.seq] = result
        self.tenant_tokens[req.tenant] = (
            self.tenant_tokens.get(req.tenant, 0) + tokens_out)
        if status == "completed":
            self.completed += 1
            self.tier_counts["stream"] = self.tier_counts.get("stream", 0) + 1
            if late:
                self.late += 1
            self.obs.count("serve.streams", kind=req.kind)
            self.obs.observe("serve.ttft", ttft, kind=req.kind)
            if tpot > 0.0:
                self.obs.observe("serve.tpot", tpot, kind=req.kind)
            self.obs.observe("serve.tokens_out", tokens_out, kind=req.kind)
        else:
            self.shed += 1
            self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
            self.obs.count("serve.stream_shed", reason=reason)

    def stats(self) -> Dict[str, Any]:
        """All counters as one flat mapping (also an obs pull source)."""
        out: Dict[str, Any] = {
            "policy": self.policy,
            "submitted": self.submitted,
            "streamed": self.streamed,
            "admitted": self.streamed,
            "rejected_queue_full": self.rejected["queue_full"],
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "late": self.late,
            "iterations": self.iterations,
            "chunks_emitted": self.chunks_emitted,
            "tokens_emitted": self.tokens_emitted,
            "prompt_tokens_total": self.prompt_tokens_total,
            "prefill_tokens_skipped": self.prefill_tokens_skipped,
            "max_queue_depth": self.max_queue_depth,
            "capacity": self.max_batch,
            "queue_limit": self.queue_limit,
        }
        for reason, count in sorted(self.shed_reasons.items()):
            out[f"shed_{reason.replace(':', '_')}"] = count
        if self.prefix_cache is not None:
            for key, value in self.prefix_cache.cache_stats().items():
                out[f"prefix_cache_{key}"] = value
        return out


# ---------------------------------------------------------------------------
# Streaming workload construction
# ---------------------------------------------------------------------------

#: The streaming serving mix: verbalization/summarization produce long
#: outputs (where streaming shines), QA/chat keep the short-answer and
#: conversational traffic in the blend.
STREAM_MIXES: Dict[str, TrafficMix] = {
    "stream": TrafficMix(
        "stream",
        kinds=(("kg2text", 3.0), ("summarize", 3.0), ("qa", 2.0),
               ("chat", 2.0)),
        tenants=(("tenant-a", 3.0), ("tenant-b", 2.0), ("tenant-c", 1.0))),
}


def _relational_triples(kg, limit: int):
    """The first ``limit`` relational facts in store order (label/type
    bookkeeping predicates excluded) — the deterministic raw material for
    shared few-shot preambles."""
    skip_markers = ("rdf-syntax", "rdf-schema", "owl#")
    picked = []
    for triple in kg.store.match(None, None, None):
        predicate = str(triple.predicate)
        if any(marker in predicate for marker in skip_markers):
            continue
        picked.append(triple)
        if len(picked) >= limit:
            break
    return picked


def stream_prompt_pool(data: Dataset, seed: int = 0,
                       n_questions: int = 12) -> Dict[str, List[str]]:
    """Per-kind prompt lists with deliberately shared preambles.

    Every prompt of a kind opens with the same Task/Facts/Examples/
    Instructions sections and differs only in its trailing Question/
    Triples/Text — the structure :mod:`repro.llm.prompts` gives all our
    pipelines, and exactly what a radix prefix cache exploits.
    """
    kg = data.kg
    facts_pool = _relational_triples(kg, 40)
    shared_facts = [kg.verbalize_triple(t) for t in facts_pool[:10]]
    questions = [q.text for q in generate_multihop_questions(
        data, n=n_questions, hops=1, seed=seed)]
    if not questions:
        questions = ["What is in the knowledge graph?"]

    def linearize(triples):
        return " ; ".join(
            f"{kg.label(t.subject)} | {kg.label(t.predicate)} | "
            f"{kg.label(t.object)}" for t in triples)

    examples = []
    for i in range(2):
        window = facts_pool[i * 2:i * 2 + 2]
        if window:
            examples.append((linearize(window), kg.verbalize(window)))

    kg2text: List[str] = []
    for i in range(8):
        window = facts_pool[10 + i * 3:10 + i * 3 + 3]
        if not window:
            window = facts_pool[:3]
        kg2text.append(P.kg2text_prompt(
            [(kg.label(t.subject), kg.label(t.predicate),
              kg.label(t.object)) for t in window],
            examples=examples))

    summarize: List[str] = []
    for i in range(8):
        lo = (i * 4) % max(1, len(facts_pool) - 6)
        passage = kg.verbalize(facts_pool[lo:lo + 6]) or \
            "The knowledge graph is empty."
        summarize.append(P.summarization_prompt(passage, focus=data.name))

    qa = [P.qa_prompt(q, facts=shared_facts) for q in questions]
    chat_msgs = list(CHAT_SMALLTALK) + questions
    chat = [P.chat_prompt(m, facts=shared_facts) for m in chat_msgs]
    return {"kg2text": kg2text, "summarize": summarize, "qa": qa,
            "chat": chat}


def _probe_workload(pool: Dict[str, List[str]], mix: TrafficMix,
                    data: Dataset, seed: int,
                    step_time: float, prefill_time: float,
                    batch_growth: float, max_batch: int) -> Dict[str, float]:
    """Calibrate the sustainable request rate for a mix over a pool.

    A fresh probe model (never the serving one — its call counters and
    fault indices must stay untouched) completes each pool prompt once;
    the kind-weighted mean decode steps and prompt tokens give the
    per-request busy time at full batch width, whose inverse is the
    capacity in requests/second.
    """
    probe = load_model("chatgpt", world=data.kg, seed=seed)
    total_weight = sum(w for _, w in mix.kinds)
    mean_steps = 0.0
    mean_prompt_tokens = 0.0
    for kind, weight in mix.kinds:
        prompts = pool[kind]
        steps = [len(stream_chunks(probe.complete(p).text))
                 for p in prompts]
        mean_steps += (weight / total_weight) * (sum(steps) / len(steps))
        mean_prompt_tokens += (weight / total_weight) * (
            sum(count_tokens(p) for p in prompts) / len(prompts))
    per_step = step_time * (1.0 + batch_growth * (max_batch - 1)) / max_batch
    busy = mean_steps * per_step + mean_prompt_tokens * prefill_time
    return {"mean_steps": mean_steps,
            "mean_prompt_tokens": mean_prompt_tokens,
            "capacity_rps": 1.0 / busy if busy > 0 else 0.0}


def build_stream_requests(pool: Dict[str, List[str]], mix: TrafficMix,
                          rate: float, n_requests: int,
                          seed: int = 0) -> List[StreamRequest]:
    """A deterministic open-loop Poisson arrival stream over the pool."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    requests: List[StreamRequest] = []
    now = 0.0
    for index in range(n_requests):
        unit = stable_unit(str(seed), mix.name, "arrival", str(index))
        now += -math.log(1.0 - unit) / rate
        kind = mix.pick(mix.kinds,
                        stable_unit(str(seed), mix.name, "kind",
                                     str(index)))
        tenant = mix.pick(mix.tenants,
                          stable_unit(str(seed), mix.name, "tenant",
                                       str(index)))
        prompts = pool[kind]
        pick = int(stable_unit(str(seed), mix.name, "prompt",
                                str(index)) * len(prompts)) % len(prompts)
        requests.append(StreamRequest(
            tenant=tenant, kind=kind, prompt=prompts[pick], arrival=now,
            session_id=f"{tenant}:s{index % 4}"))
    return requests


def streaming_experiment(dataset: str = "enterprise",
                         mix_name: str = "stream",
                         policy: str = "continuous",
                         max_batch: int = 8, load_factor: float = 1.0,
                         n_requests: int = 160, seed: int = 0,
                         queue_limit: int = 64, budget: float = 4.0,
                         step_time: float = DEFAULT_STEP_TIME,
                         prefill_time: float = DEFAULT_PREFILL_TIME,
                         batch_growth: float = DEFAULT_BATCH_GROWTH,
                         fault_rate: float = 0.0,
                         prefix_cache: bool = True,
                         llm=None, obs=None) -> LoadReport:
    """One open-loop streaming replay at ``load_factor`` × capacity.

    Mirrors :func:`repro.serve.loadgen.overload_experiment` for the
    token path: fresh dataset/model/scheduler per call, arrivals at
    ``load_factor`` times the calibrated sustainable rate, and a
    :class:`~repro.serve.loadgen.LoadReport` carrying the streaming
    aggregates (TTFT/TPOT percentiles, tokens/sec, the stream ledger).
    """
    data = DATASET_BUILDERS[dataset](seed=seed)
    obs = resolve_obs(obs)
    if llm is None:
        llm = load_model("chatgpt", world=data.kg, seed=seed)
        if fault_rate:
            llm = FaultInjectingLLM(
                llm, FaultProfile.uniform(fault_rate, seed=seed))
    mix = STREAM_MIXES[mix_name]
    pool = stream_prompt_pool(data, seed=seed)
    calibration = _probe_workload(pool, mix, data, seed, step_time,
                                  prefill_time, batch_growth, max_batch)
    cache = None
    if prefix_cache:
        cache = RadixPrefixCache(version=("kg", data.kg.store.version))
    clock = obs.clock if isinstance(getattr(obs, "clock", None),
                                    FakeClock) else None
    scheduler = TokenScheduler(
        llm, max_batch=max_batch, queue_limit=queue_limit, budget=budget,
        step_time=step_time, prefill_time=prefill_time,
        batch_growth=batch_growth, policy=policy, prefix_cache=cache,
        obs=obs, clock=clock, seed=seed)
    rate = load_factor * calibration["capacity_rps"]
    requests = build_stream_requests(pool, mix, rate, n_requests,
                                     seed=seed)
    results = scheduler.run(requests)
    report = _build_report(mix.name, f"stream-{policy}", scheduler, results)
    report.gateway_stats["capacity_rps"] = round(
        calibration["capacity_rps"], 6)
    report.gateway_stats["offered_rps"] = round(rate, 6)
    report.gateway_stats["mean_steps"] = round(
        calibration["mean_steps"], 6)
    return report
