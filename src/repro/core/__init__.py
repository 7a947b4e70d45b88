"""The paper's primary conceptual contribution, made executable.

:mod:`taxonomy` encodes the Figure-1 categorization tree (the three
interplay types with their subcategories, research-question markers and
novelty stars) and the RQ1–RQ6 registry, each mapped to the package that
implements it. :mod:`pipeline` is the composable component abstraction the
cooperation-style systems (RAG, RoG, KG-GPT, chatbot) are built from.
"""

from repro.core.taxonomy import (
    InterplayType,
    TaxonomyNode,
    FIGURE1_TAXONOMY,
    RESEARCH_QUESTIONS,
    ResearchQuestion,
    iter_nodes,
)
from repro.core.pipeline import (
    Pipeline,
    Component,
    PipelineContext,
    PipelineReport,
    StagePolicy,
    StageReport,
)
from repro.core.hashing import stable_hash, stable_unit
from repro.core.executor import (
    ItemOutcome,
    ParallelExecutor,
    chunked,
)
from repro.core.observability import (
    FakeClock,
    MetricsRegistry,
    NULL_OBS,
    NoopObservability,
    Observability,
    Span,
    SystemClock,
    Tracer,
    cache_stats_dict,
    load_jsonl,
    resolve_obs,
)
from repro.core.durability import (
    CheckpointError,
    CheckpointManager,
    ResumeState,
    fast_forward_faults,
    fault_schedule_cursor,
    read_meta,
)
from repro.core.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FallbackChain,
    FallbackExhaustedError,
    FallbackResult,
    ResilienceError,
    RetryOutcome,
    RetryPolicy,
)

__all__ = [
    "InterplayType",
    "TaxonomyNode",
    "FIGURE1_TAXONOMY",
    "RESEARCH_QUESTIONS",
    "ResearchQuestion",
    "iter_nodes",
    "Pipeline",
    "Component",
    "PipelineContext",
    "PipelineReport",
    "StagePolicy",
    "StageReport",
    "ItemOutcome",
    "ParallelExecutor",
    "chunked",
    "stable_hash",
    "stable_unit",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "FallbackChain",
    "FallbackExhaustedError",
    "FallbackResult",
    "ResilienceError",
    "RetryOutcome",
    "RetryPolicy",
    "FakeClock",
    "MetricsRegistry",
    "NULL_OBS",
    "NoopObservability",
    "Observability",
    "Span",
    "SystemClock",
    "Tracer",
    "cache_stats_dict",
    "load_jsonl",
    "resolve_obs",
    "CheckpointError",
    "CheckpointManager",
    "ResumeState",
    "fast_forward_faults",
    "fault_schedule_cursor",
    "read_meta",
]
