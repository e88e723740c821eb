"""Reproducible named random streams derived from one master seed.

Every randomized component draws from a stream keyed by a label path, so
per-cluster retries replay identically regardless of execution order.
"""

from __future__ import annotations

import hashlib
import random

# attempts each per-cluster resampling loop gets before RetryBudgetExceeded
RETRIES = 200


def derive_seed(master: int, *labels: object) -> int:
    """Derive a stable 63-bit seed from the master seed and a label path."""
    key = "/".join([str(int(master))] + [str(part) for part in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def stream(master: int, *labels: object) -> random.Random:
    """Independent deterministic RNG for the given label path."""
    return random.Random(derive_seed(master, *labels))
