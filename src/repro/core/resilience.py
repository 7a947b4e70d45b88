"""Offline resilience primitives: retry, deadlines, breakers, fallbacks.

The cooperation architectures the survey reviews all sit in front of a
flaky component (a paid LLM API); what makes them production-viable is the
policy layer between pipeline and model. This module provides that layer
in the repo's deterministic, no-wall-clock style:

* :class:`RetryPolicy` — capped exponential backoff with seeded jitter.
  Delays are *simulated*: nothing sleeps; instead delays are charged
  against an optional :class:`Deadline`, so tests run instantly and two
  runs with the same seed compute identical backoff schedules.
* :class:`Deadline` — a simulated time budget; policies charge latencies
  and backoff delays to it and stop retrying once it is exhausted.
* :class:`CircuitBreaker` — count-based (no clock): opens after N
  consecutive failures, rejects calls for a fixed cooldown count, then
  half-opens a single probe.
* :class:`FallbackChain` — ordered alternatives; the first that succeeds
  wins, and using any step past the first marks the result degraded.

The module is intentionally independent of :mod:`repro.llm` — policies
classify exceptions by the types the caller passes (``retry_on``/
``catch``) and read ``retry_after``/``simulated_latency`` attributes
duck-typed, so the same primitives guard KG stores, retrievers, or any
other stage.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type

from repro.core.hashing import stable_unit


class ResilienceError(RuntimeError):
    """Base class for failures raised by the resilience layer itself."""


class DeadlineExceeded(ResilienceError):
    """The simulated time budget ran out."""


class CircuitOpenError(ResilienceError):
    """The breaker is open; the call was rejected without being attempted."""


class FallbackExhaustedError(ResilienceError):
    """Every step of a fallback chain failed.

    ``errors`` holds ``(step name, exception)`` for each failed step.
    """

    def __init__(self, message: str,
                 errors: Sequence[Tuple[str, BaseException]] = ()):
        super().__init__(message)
        self.errors = list(errors)


@dataclass
class Deadline:
    """A simulated time budget (seconds of pretend wall clock).

    Policies ``charge`` simulated latencies and backoff delays against it;
    nothing ever sleeps.
    """

    budget: float
    spent: float = 0.0

    @property
    def remaining(self) -> float:
        """Unspent budget (never negative)."""
        return max(0.0, self.budget - self.spent)

    @property
    def expired(self) -> bool:
        """Whether the budget is exhausted."""
        return self.spent >= self.budget

    def charge(self, seconds: float) -> None:
        """Consume ``seconds`` of simulated time.

        Negative and NaN charges are rejected outright: a policy bug must
        not silently *refund* budget (or poison every later comparison
        with NaN), because admission control sheds requests based on
        ``remaining``/``expired``.
        """
        if math.isnan(seconds):
            raise ValueError("cannot charge NaN time")
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.spent += seconds

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"simulated deadline exceeded ({self.spent:.2f}s "
                f"of {self.budget:.2f}s budget)")


@dataclass
class RetryOutcome:
    """What a retried call produced: a value or a final error, plus the
    attempt count and total simulated delay consumed."""

    value: Any
    error: Optional[BaseException]
    attempts: int
    simulated_delay: float

    @property
    def ok(self) -> bool:
        """Whether the call eventually succeeded."""
        return self.error is None


class RetryPolicy:
    """Deterministic exponential backoff with seeded jitter.

    ``delay_for(attempt, key)`` is a pure function of the policy seed, the
    caller-supplied key and the attempt number, so a rerun reproduces the
    identical backoff schedule. A rate-limited error's ``retry_after``
    hint (duck-typed) floors the computed delay; an error's
    ``simulated_latency`` is charged in addition to the backoff.
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.5,
                 multiplier: float = 2.0, max_delay: float = 30.0,
                 jitter: float = 0.25, seed: int = 0,
                 retry_on: Tuple[Type[BaseException], ...] = (Exception,)):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.retry_on = retry_on

    def delay_for(self, attempt: int, key: str = "") -> float:
        """The simulated backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        spread = 1.0 + self.jitter * (
            2.0 * stable_unit(str(self.seed), key, str(attempt)) - 1.0)
        return raw * spread

    def run(self, fn: Callable[[], Any], key: str = "",
            deadline: Optional[Deadline] = None) -> RetryOutcome:
        """Call ``fn`` with retries; never raises for ``retry_on`` errors.

        Returns a :class:`RetryOutcome`; non-retryable exceptions propagate
        unchanged. Retrying stops early when the deadline expires.
        """
        total_delay = 0.0
        last: Optional[BaseException] = None
        attempts = 0
        for attempt in range(self.max_attempts):
            attempts = attempt + 1
            try:
                value = fn()
            except self.retry_on as exc:
                last = exc
                latency = float(getattr(exc, "simulated_latency", 0.0) or 0.0)
                if latency and deadline is not None:
                    deadline.charge(latency)
                if attempt + 1 >= self.max_attempts:
                    break
                delay = self.delay_for(attempt, key)
                retry_after = getattr(exc, "retry_after", None)
                if retry_after:
                    delay = max(delay, float(retry_after))
                total_delay += delay + latency
                if deadline is not None:
                    deadline.charge(delay)
                    if deadline.expired:
                        break
            else:
                return RetryOutcome(value, None, attempts, total_delay)
        return RetryOutcome(None, last, attempts, total_delay)

    def call(self, fn: Callable[[], Any], key: str = "",
             deadline: Optional[Deadline] = None) -> Any:
        """Like :meth:`run`, but returns the value and re-raises the final
        error when every attempt failed."""
        outcome = self.run(fn, key=key, deadline=deadline)
        if outcome.error is not None:
            raise outcome.error
        return outcome.value


class CircuitBreaker:
    """A count-based circuit breaker (no clock, fully deterministic).

    Closed → open after ``failure_threshold`` consecutive failures; while
    open the next ``cooldown`` calls are rejected with
    :class:`CircuitOpenError`; the call after that is the half-open probe —
    its success closes the circuit, its failure re-opens it.

    Half-open admits **exactly one** probe: the first ``allow()`` after the
    cooldown elapses wins the probe slot, and every other caller is
    rejected until that probe's outcome is recorded (``record_success``
    closes the circuit, ``record_failure`` re-opens it). Without the slot,
    every caller waiting out the cooldown would be waved through the
    moment it elapsed — a thundering herd straight back into a backend
    that one probe might have shown to be still down. Callers that take
    the probe slot must therefore report an outcome, as every caller in
    this repo (``call``, the pipeline stage machinery, the serving
    gateway) does.
    """

    def __init__(self, failure_threshold: int = 5, cooldown: int = 3,
                 name: str = ""):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.name = name
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0
        self.rejected = 0
        self._cooldown_left = 0
        self._probe_in_flight = False
        # Breakers are shared across pipelines — since the parallel
        # substrate, potentially across threads — so state transitions are
        # serialized.
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Whether the next call may proceed (advances the cooldown).

        At most one caller is admitted while half-open (the probe); the
        rest are rejected until the probe's outcome is recorded.
        """
        with self._lock:
            if self.state == "open":
                if self._cooldown_left > 0:
                    self._cooldown_left -= 1
                    self.rejected += 1
                    return False
                self.state = "half-open"
                self._probe_in_flight = True
                return True
            if self.state == "half-open":
                if self._probe_in_flight:
                    self.rejected += 1
                    return False
                self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        """Note a successful call: closes the circuit.

        A success that lands while the circuit is *open* — a straggler
        admitted before a concurrent sharer tripped the breaker — does
        **not** close it: closing would cancel the cooldown the trip just
        imposed, waving the herd straight back in. The straggler's good
        news is recorded (failure streak reset) but the cooldown stands
        until the half-open probe confirms recovery.
        """
        with self._lock:
            self.consecutive_failures = 0
            if self.state == "open":
                return
            self.state = "closed"
            self._probe_in_flight = False

    def record_failure(self) -> bool:
        """Note a failed call; trips the breaker at the threshold (or
        immediately when the half-open probe fails).

        A failure that lands while the circuit is already *open* — e.g. a
        half-open probe whose outcome arrives after a concurrent sharer
        re-tripped the breaker — restores the **full** cooldown rather
        than leaving whatever partially drained count remained. Before
        this, a probe raising inside the half-open window could re-open
        the circuit with only the leftover cooldown, letting traffic back
        into a dead backend early.

        Returns whether *this* failure tripped the breaker — the only
        attribution that stays correct when several pipelines share one
        breaker concurrently (a caller diffing ``trips`` around its own
        run would absorb every other sharer's trips).
        """
        with self._lock:
            if self.state == "open":
                self._cooldown_left = self.cooldown
                self.consecutive_failures = 0
                return False
            self.consecutive_failures += 1
            if self.state == "half-open" or \
                    self.consecutive_failures >= self.failure_threshold:
                self._trip()
                return True
            return False

    def reset(self) -> None:
        """Administratively close the circuit and clear the cooldown.

        For callers that have *verified* the backend healthy out-of-band
        (e.g. the replication layer's anti-entropy pass after a partition
        heals) — ``record_success`` deliberately no longer closes an open
        circuit, so recovery flows that bypass the probe need an explicit
        reset.
        """
        with self._lock:
            self.state = "closed"
            self.consecutive_failures = 0
            self._cooldown_left = 0
            self._probe_in_flight = False

    def snapshot(self) -> dict:
        """A consistent point-in-time view for observability binding.

        Suitable for ``Observability.register_source`` (a zero-arg
        callable returning plain scalars); taken under the lock so the
        fields are mutually consistent. ``state`` stays available as the
        plain string attribute for direct comparison.
        """
        with self._lock:
            return {
                "name": self.name,
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "trips": self.trips,
                "rejected": self.rejected,
                "cooldown_left": self._cooldown_left,
                "probe_in_flight": self._probe_in_flight,
            }

    def _trip(self) -> None:
        self.state = "open"
        self.trips += 1
        self._cooldown_left = self.cooldown
        self.consecutive_failures = 0
        self._probe_in_flight = False

    def call(self, fn: Callable[[], Any]) -> Any:
        """Guard one call: reject when open, record the outcome otherwise."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit {self.name or 'breaker'} is open "
                f"({self._cooldown_left + 1} rejections left in cooldown)")
        try:
            value = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return value


@dataclass
class FallbackResult:
    """The outcome of a fallback chain: which step answered, with what."""

    value: Any
    step: str
    index: int
    errors: List[Tuple[str, BaseException]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when anything but the primary step produced the value."""
        return self.index > 0


class FallbackChain:
    """Ordered alternatives tried until one succeeds.

    Steps are ``(name, fn)`` pairs; ``fn`` receives the arguments passed
    to :meth:`run`. Exceptions matching ``catch`` move on to the next
    step; anything else propagates. When every step fails,
    :class:`FallbackExhaustedError` carries the per-step errors.
    """

    def __init__(self, *steps: Tuple[str, Callable[..., Any]],
                 catch: Tuple[Type[BaseException], ...] = (Exception,)):
        if not steps:
            raise ValueError("a fallback chain needs at least one step")
        self.steps = list(steps)
        self.catch = catch

    def run(self, *args: Any, **kwargs: Any) -> FallbackResult:
        """Try each step in order; return the first success."""
        errors: List[Tuple[str, BaseException]] = []
        for index, (name, fn) in enumerate(self.steps):
            try:
                value = fn(*args, **kwargs)
            except self.catch as exc:
                errors.append((name, exc))
                continue
            return FallbackResult(value=value, step=name, index=index,
                                  errors=errors)
        raise FallbackExhaustedError(
            f"all {len(self.steps)} fallback steps failed "
            f"({', '.join(name for name, _ in errors)})", errors)
