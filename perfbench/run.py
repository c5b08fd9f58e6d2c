"""The repository benchmark: learn and analyse the registered targets.

Run from the repository root::

    python3 perfbench/run.py --workload learn-quic --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``learn-quic``   -- cold serial learns of quic-google and quic-quiche;
* ``learn-stream`` -- cold serial learns of the tcp, http2 and http3 targets;
* ``learn-pooled`` -- tcp, http2 and http3 on the process executor, each
  into a fresh sqlite query store;
* ``offline``      -- relearn from a query store and from a covering corpus
  filled at set-up, then the property suite and the attacks on each model.

Set-up (imports once, then building the pipelines -- and for ``offline``
filling the store and corpora -- three times, median taken) is timed as
``setup_s``.  Iterations then repeat until ``--seconds`` have passed, at
least two of them.  Learn iterations alternate between the SUL seed
``--seed`` and the held-out seed ``--seed + 1``; ``offline`` keeps one
seed because its store is keyed by the SUL parameters.

Every operation is checked from outside the program: the learned model
must equal the pinned reference under this benchmark's own product walk
(``check.py``), property and attack verdicts must equal the pinned ones,
and the exact counters (SUL queries, steps, resets, learner words, EQ
words) must repeat across iterations and seeds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones (``seams.py``), the tracing overhead (traced over untraced
wall time), the seam-coverage self-check and one row per target.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import seams  # noqa: E402
from check import References  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ALL_TARGETS, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_ITERATIONS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "sul_queries": "count",
    "sul_steps": "count",
    "sul_resets": "count",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us", "us_per_step")):
        return "us"
    if name.endswith(("_rate", "_ratio", ".imbalance", ".overhead", "_per_query")):
        return "ratio"
    if name.endswith("_per_kword"):
        return "1/kword"
    return "count"


def per_layer_names() -> list[str]:
    rows = [f"target.{t}.{field}" for t in ALL_TARGETS for field in seams.ROW_FIELDS]
    return seams.PER_LAYER + ["trace.overhead", "trace.seam_failures"] + rows


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_determinism(iterations) -> None:
    """Mark every op whose exact counters differ from the first iteration's."""
    first: dict[tuple[str, str], tuple] = {}
    for record in iterations:
        for op in record["ops"]:
            if op.error is not None or not op.counters:
                continue
            key = (op.kind, op.target)
            expected = first.setdefault(key, op.counters)
            if op.counters != expected:
                op.error = (
                    f"{op.target} {op.kind}: counters {op.counters} differ from "
                    f"{expected} (seed {record['seed']})"
                )


def target_rows(iterations) -> dict[str, dict[str, float]]:
    """One row per learned target: the learn (or store relearn) operation."""
    walls: dict[str, list[float]] = {}
    rows: dict[str, dict[str, float]] = {}
    for record in iterations:
        for op in record["ops"]:
            if op.kind not in ("learn", "relearn") or op.error is not None:
                continue
            walls.setdefault(op.target, []).append(op.meter.wall_s)
            rows[op.target] = {
                "states": op.states,
                "sul_queries": op.sul[0],
                "sul_steps": op.sul[1],
                "sul_resets": op.sul[2],
            }
    for target, row in rows.items():
        wall = median(walls[target])
        row["us_per_step"] = 1e6 * wall / row["sul_steps"] if row["sul_steps"] else 0.0
        row["wall_s"] = wall
    return rows


def run(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    repro.load_builtins()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {WORKLOADS}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    refs = References()

    workdirs = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workdirs.append(Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)))
            workload = Workload(args.workload, workdirs[-1], refs)
            began = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - began)
        setup_s = import_s + median(setup_times)

        iterations = []
        peak_rss_mb = None
        seam_failures: list[str] = []
        began = time.perf_counter()
        while (
            len(iterations) < MIN_ITERATIONS
            or time.perf_counter() - began < args.seconds
        ):
            index = len(iterations)
            traced = bool(args.trace) and index % 2 == 1
            pair = index // 2 if args.trace else index
            seed = args.seed + (pair % 2 if args.workload != "offline" else 0)
            tracer = Tracer() if traced else None
            patcher = seams.install(tracer) if traced else None
            try:
                ops = workload.iteration(seed)
            finally:
                if patcher is not None:
                    patcher.uninstall()
            record = {
                "seed": seed,
                "traced": traced,
                "ops": ops,
                "wall_s": sum(op.meter.wall_s for op in ops),
                "cpu_s": sum(op.meter.cpu_s for op in ops),
                "sul": [sum(op.sul[i] for op in ops) for i in range(3)],
            }
            if traced:
                record["layers"] = seams.layer_metrics(tracer, ops, record["wall_s"])
                for failure in seams.seam_failures(args.workload, tracer, patcher, ops):
                    if failure not in seam_failures:
                        seam_failures.append(failure)
            iterations.append(record)
            if len(iterations) == MIN_ITERATIONS:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    check_determinism(iterations)
    ops = [op for record in iterations for op in record["ops"]]
    errors = [op.error for op in ops if op.error is not None]
    untraced = [record for record in iterations if not record["traced"]]
    rows = target_rows(untraced)

    print(
        f"workload {args.workload}: {len(iterations)} iterations, seed {args.seed}, "
        f"{len(ops)} operations, fail_rate {len(errors) / len(ops):.4f}"
    )
    for index, record in enumerate(iterations):
        ops_wall = " ".join(
            f"{op.target}:{op.kind}={op.meter.wall_s:.4f}" for op in record["ops"]
        )
        print(
            f"iteration {index} seed {record['seed']} traced {int(record['traced'])}: "
            f"wall {record['wall_s']:.4f} s, cpu {record['cpu_s']:.4f} s; {ops_wall}"
        )
    for error in errors:
        print(f"FAIL {error}")
    for target, row in rows.items():
        cells = ", ".join(f"{name} {value:.6g}" for name, value in row.items())
        print(f"target {target}: {cells}")

    if args.trace:
        traced_records = [record for record in iterations if record["traced"]]
        values = seams.median_metrics([record["layers"] for record in traced_records])
        values["trace.overhead"] = median(
            r["wall_s"] for r in traced_records
        ) / median(r["wall_s"] for r in untraced)
        values["trace.seam_failures"] = len(seam_failures)
        for failure in seam_failures:
            print(f"SEAM {failure}")
        for target in ALL_TARGETS:
            for field in seams.ROW_FIELDS:
                values[f"target.{target}.{field}"] = rows.get(target, {}).get(field, 0)
        metrics = {
            name: {"value": values[name], "unit": unit_of(name)}
            for name in per_layer_names()
        }
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": median(r["wall_s"] for r in iterations),
            "cpu_s": median(r["cpu_s"] for r in iterations),
            "sul_queries": median(r["sul"][0] for r in iterations),
            "sul_steps": median(r["sul"][1] for r in iterations),
            "sul_resets": median(r["sul"][2] for r in iterations),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
