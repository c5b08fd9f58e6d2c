"""Span accounting and product-walk checks on synthetic inputs.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
import types

from check import find_difference, num_states
from spans import Patcher, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("outer", "outer.run")          # t=0
    clock.now = 2.0
    tracer.enter("child", "child.a")            # t=2
    clock.now = 3.0
    tracer.enter("leaf", "leaf.x")              # t=3
    clock.now = 4.0
    assert tracer.exit() == 1.0                 # leaf 3..4
    clock.now = 5.0
    assert tracer.exit() == 3.0                 # child.a 2..5
    clock.now = 6.0
    tracer.enter("child", "child.b")            # t=6
    clock.now = 7.0
    tracer.exit()                               # child.b 6..7
    clock.now = 10.0
    assert tracer.exit() == 10.0                # outer 0..10
    assert tracer.self_s["outer"] == 10.0 - 3.0 - 1.0
    assert tracer.self_s["child"] == (3.0 - 1.0) + 1.0
    assert tracer.self_s["leaf"] == 1.0
    assert sum(tracer.self_s.values()) == 10.0
    assert tracer.covered_s == 10.0
    assert tracer.outer_calls["child"] == 2


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("codec", "codec.x")
    clock.now = 1.0
    tracer.enter("codec", "codec.x")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    assert tracer.inclusive_s["codec.x"] == 4.0
    assert tracer.self_s["codec"] == 4.0
    assert tracer.calls["codec.x"] == 2
    assert tracer.outer_calls["codec"] == 1


def test_uncovered_time_is_left_to_other():
    clock = FakeClock()
    tracer = Tracer(clock)
    clock.now = 1.0
    tracer.enter("sul", "sul.query")
    clock.now = 3.0
    tracer.exit()
    clock.now = 5.0
    assert tracer.covered_s == 2.0  # the other 3 of 5 seconds are "other"


def test_patcher_wraps_by_value_imports_and_restores(monkeypatch):
    source = types.ModuleType("repro._perfbench_probe")

    def helper(x):
        return x + 1

    source.helper = helper
    importer = types.ModuleType("repro._perfbench_importer")
    importer.helper = helper
    monkeypatch.setitem(sys.modules, source.__name__, source)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)

    tracer = Tracer()
    patcher = Patcher(tracer)
    patcher.function(source.__name__, "helper", "codec", "codec.helper")
    assert importer.helper(1) == 2 and source.helper(2) == 3
    assert tracer.calls["codec.helper"] == 2
    patcher.uninstall()
    assert importer.helper is helper and source.helper is helper


def _machine(initial, rows):
    delta = {}
    for state, symbol, output, target in rows:
        delta.setdefault(state, {})[symbol] = [output, target]
    return {"initial": initial, "inputs": ["a", "b"], "delta": delta}


def test_product_walk_finds_shortest_difference():
    reference = _machine("p", [
        ("p", "a", "x", "q"), ("p", "b", "y", "p"),
        ("q", "a", "x", "q"), ("q", "b", "z", "p"),
    ])
    relabelled = _machine("s0", [
        ("s0", "a", "x", "s1"), ("s0", "b", "y", "s0"),
        ("s1", "a", "x", "s1"), ("s1", "b", "z", "s0"),
    ])
    wrong = _machine("s0", [
        ("s0", "a", "x", "s1"), ("s0", "b", "y", "s0"),
        ("s1", "a", "x", "s1"), ("s1", "b", "y", "s0"),
    ])
    assert find_difference(reference, relabelled) is None
    assert find_difference(reference, wrong) == ["a", "b"]
    assert num_states(reference) == 2
