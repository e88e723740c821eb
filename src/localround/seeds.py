"""Reproducible named random streams derived from one master seed.

Every randomized component draws from a stream keyed by a label path, so
per-cluster retries replay identically regardless of execution order.
A stream derives its seed and builds its generator at its first draw, so
a stream that is never drawn from costs no hashing and no generator.
`RETRIES` is the one budget of those retries: a constant of the
verified-resampling floors, not an option of any function or command.
"""

from __future__ import annotations

import hashlib
import random

# attempts each cluster gets in `clustering.resample_clusters` before
# RetryBudgetExceeded, read there at each call; a `run` report records it
# as `config.budget_retries`
RETRIES = 200


def derive_seed(master: int, *labels: object) -> int:
    """Derive a stable 63-bit seed from the master seed and a label path."""
    key = "/".join([str(int(master))] + [str(part) for part in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Stream:
    """The draws of `random.Random(derive_seed(master, *labels))`, with
    the seed derived and the generator built at the first `random()`."""

    def __init__(self, master: int, labels: tuple[object, ...]):
        self._master = master
        self._labels = labels

    def random(self) -> float:
        # the generator's own bound method shadows this one from now on
        self.random = random.Random(derive_seed(self._master, *self._labels)).random
        return self.random()


def stream(master: int, *labels: object) -> Stream:
    """Independent deterministic stream for the given label path.  A
    master that is not an integer raises here, not at the first draw."""
    return Stream(int(master), labels)
