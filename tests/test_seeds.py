"""Named streams: the same draws as a generator seeded from the label
path, with the seed derived only at the first draw."""

from __future__ import annotations

import random

import pytest

import localround.seeds as seeds
from localround import approx_matching, luby_randomized, mis
from localround.generators import gnp
from localround.seeds import derive_seed, stream


@pytest.mark.parametrize("labels", [(), ("luby",), ("mis-intra", 7, 0), ("mpx", 2**62)])
def test_stream_draws_what_its_seeded_generator_draws(labels):
    expected = random.Random(derive_seed(12345, *labels))
    s = stream(12345, *labels)
    assert [s.random() for _ in range(20)] == [expected.random() for _ in range(20)]


def _count_derivations(monkeypatch) -> list[tuple]:
    calls: list[tuple] = []
    real = seeds.derive_seed

    def counting(master, *labels):
        calls.append(labels)
        return real(master, *labels)

    monkeypatch.setattr(seeds, "derive_seed", counting)
    return calls


def test_a_stream_never_drawn_from_derives_no_seed(monkeypatch):
    calls = _count_derivations(monkeypatch)
    streams = [stream(1, "mis-intra", c, 0) for c in range(5)]
    assert calls == []
    streams[3].random()
    streams[3].random()
    assert calls == [("mis-intra", 3, 0)]


@pytest.mark.parametrize("master, error", [("seven", ValueError), (None, TypeError)])
def test_a_non_integer_master_raises_at_the_call(master, error):
    with pytest.raises(error):
        stream(master, "luby")


@pytest.mark.parametrize(
    "solve, derived",
    [(mis, 0), (approx_matching, 0), (luby_randomized, 1)],
    ids=["mis", "approx_matching", "luby_randomized"],
)
def test_seeds_derived_by_each_pipeline(monkeypatch, solve, derived):
    # at the paper's constants no floor draws, so only the randomized
    # baseline's one stream is ever seeded
    g = gnp(2048, 0.004, seed=1)
    calls = _count_derivations(monkeypatch)
    solve(g, seed=3)
    assert len(calls) == derived
