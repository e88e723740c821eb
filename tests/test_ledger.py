import json

import pytest

from localround.errors import PreconditionError
from localround.ledger import RoundLedger


def test_charge_additivity():
    led = RoundLedger()
    led.charge("a", 1, 3).charge("b", 2, 4).charge("a", 0, 5)
    assert led.total == 12


def test_noop_charge():
    led = RoundLedger()
    led.charge("noop", 0, 0)
    assert led.total == 0


def test_broadcast_style_charge():
    alpha = 3
    led = RoundLedger()
    led.charge("delay-broadcast", 50 * alpha + 2, 50 * alpha + 2)
    assert led.total == 50 * alpha + 2


def test_rounds_below_radius_rejected():
    led = RoundLedger()
    with pytest.raises(PreconditionError):
        led.charge("bad", 5, 4)
    with pytest.raises(PreconditionError):
        led.charge("bad", -1, 4)
    assert led.total == 0


def test_report_empty():
    rep = RoundLedger().report()
    assert rep == {"total": 0, "rows": []}


def test_report_merges_labels_in_first_occurrence_order():
    led = RoundLedger()
    led.charge("x", 1, 2).charge("y", 3, 3).charge("x", 2, 5)
    rep = led.report()
    assert [r["label"] for r in rep["rows"]] == ["x", "y"]
    assert rep["rows"][0] == {"label": "x", "radius_max": 2, "rounds": 7}
    assert rep["total"] == 10


def test_report_total_matches_row_sum():
    led = RoundLedger()
    for i in range(25):
        led.charge(f"step-{i % 4}", i % 3, (i % 3) + i)
    rep = led.report()
    assert rep["total"] == sum(r["rounds"] for r in rep["rows"])


def test_json_stable():
    led = RoundLedger()
    led.charge("alpha", 1, 2)
    led2 = RoundLedger()
    led2.charge("alpha", 1, 2)
    text = json.dumps(led.report(), sort_keys=True)
    assert text == json.dumps(led2.report(), sort_keys=True)
    assert json.loads(text) == led.report()


def test_total_monotone():
    led = RoundLedger()
    prev = 0
    for i in range(10):
        led.charge("t", 0, i)
        assert led.total >= prev
        prev = led.total


def test_mis_run_ledger_consistency():
    from localround.generators import gnp
    from localround.mis import mis

    led = RoundLedger()
    mis(gnp(200, 0.05, seed=31), ledger=led)
    rep = led.report()
    assert rep["total"] == sum(r["rounds"] for r in rep["rows"])
    assert rep["total"] == sum(e.rounds for e in led.entries)
    assert rep["total"] == led.total
