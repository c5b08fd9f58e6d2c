"""S3 -- Property-suite fan-out: pooled vs serial evaluation wall-clock.

Property evaluation over a campaign's models is the analysis-side
counterpart of the learning fan-out: every (model, suite) pair is an
independent job, so :func:`~repro.analysis.property_api
.check_properties_batch` maps them over the shared
:class:`~repro.adapter.executor.ThreadExecutor`.  This benchmark evaluates
the toy suite plus ad-hoc LTLf formulas at depth 9 (2^10-trace
exhaustive exploration per property) across a fleet of toy-variant
models, serially and at ``workers=4``.  Verdicts must be identical;
wall-clock is reported (pure-Python model exploration shares the GIL,
so -- unlike SUL-bound fan-out -- the pooled win here is bounded, which
is exactly what the row documents).
"""

import time

from conftest import report, run_once

from repro.adapter.mealy_sul import toy_machine
from repro.analysis.property_api import check_properties_batch, resolve_properties
from repro.core.mealy import MealyMachine

FLEET_SIZE = 8
DEPTH = 9
POOL_WORKERS = 4


def _variant(index: int) -> MealyMachine:
    """The toy machine, with every even variant's established state
    answering a SYN with NIL instead of RST (so half the fleet violates
    the ad-hoc formula and pays the witness-minimization path too)."""
    base = toy_machine()
    table = {
        (t.source, t.input): (t.target, t.output) for t in base.transitions()
    }
    if index % 2 == 0:
        syn, _ = base.input_alphabet.symbols
        nil = base.step("s2", syn)[1]
        table[("s1", syn)] = (table[("s1", syn)][0], nil)
    return MealyMachine(
        "s0", base.input_alphabet, table, f"bench-prop-variant-{index}"
    )


def _jobs():
    suite = resolve_properties(
        "toy",
        formulas=[
            # Violated by every unmutated variant (their lock RSTs).
            "G (out != RST(?,?,0))",
            # Holds everywhere: the closed output vocabulary.
            "G (out == NIL || out == RST(?,?,0) || out == ACK+SYN(?,?,0))",
        ],
        include_probes=True,
    )
    return [(_variant(index), suite) for index in range(FLEET_SIZE)]


def _evaluate(workers: int):
    jobs = _jobs()
    start = time.perf_counter()
    reports = check_properties_batch(jobs, workers=workers, depth=DEPTH)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_bench_property_fanout(benchmark):
    serial_reports, serial_time = _evaluate(workers=1)
    pooled_reports, pooled_time = run_once(benchmark, _evaluate, POOL_WORKERS)

    # Fan-out must never change a verdict.
    assert [r.to_dict() for r in serial_reports] == [
        r.to_dict() for r in pooled_reports
    ]
    violated = sum(1 for r in pooled_reports if not r.ok)
    assert violated == FLEET_SIZE // 2  # the seeded violating variants

    speedup = serial_time / pooled_time if pooled_time else float("inf")
    report(
        "S3-property-fanout",
        [
            ("models x properties", "-", f"{FLEET_SIZE} x {len(_jobs()[0][1])}"),
            ("serial wall-clock (s)", "-", f"{serial_time:.2f}"),
            (f"pooled wall-clock (s, w={POOL_WORKERS})", "-", f"{pooled_time:.2f}"),
            ("speedup", "-", f"{speedup:.2f}x"),
        ],
    )
