"""Process-stable hashing for seeded, deterministic draws.

Python salts ``hash()`` per process, so every seeded draw in the toolkit —
fault schedules, retry jitter, load generation, transport fates, the
simulated LLM's knowledge gates — keys off these blake2b helpers instead:
the same parts give the same value in every process and on every machine.
"""

from __future__ import annotations

import hashlib

__all__ = ["stable_hash", "stable_unit"]


def stable_hash(*parts: str) -> int:
    """Deterministic unsigned 64-bit integer keyed by the parts."""
    digest = hashlib.blake2b("\x00".join(parts).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def stable_unit(*parts: str) -> float:
    """Deterministic float in [0, 1) keyed by the parts."""
    return stable_hash(*parts) / 2 ** 64
