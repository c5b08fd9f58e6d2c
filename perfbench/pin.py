"""Re-pin the reference models and verdicts from the current program.

Only a change to the benchmark itself should run this; the pinned files
are what every later run is checked against::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_DIR, compact, num_states
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


class Recorder:
    """Stands in for :class:`check.References` and records what it sees."""

    def __init__(self) -> None:
        self.models: dict[str, dict] = {}
        self.verdicts = {"properties": {}, "attacks": {}}

    def model(self, target: str) -> None:
        return None

    def model_error(self, target: str, model_dict: dict) -> None:
        machine = compact(model_dict)
        if self.models.setdefault(target, machine) != machine:
            raise SystemExit(f"{target}: two runs learned different models")

    def property_error(self, target: str, verdicts: dict) -> None:
        self.verdicts["properties"][target] = verdicts

    def attack_error(self, target: str, verdicts: dict) -> None:
        self.verdicts["attacks"][target] = verdicts


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    recorder = Recorder()
    for name in ("learn-stream", "learn-quic", "offline"):
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            workload = Workload(name, workdir, recorder)
            workload.setup(SEED)
            for op in workload.iteration(SEED):
                if op.error is not None:
                    raise SystemExit(op.error)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for target, machine in sorted(recorder.models.items()):
        path = REFERENCE_DIR / f"{target}.json"
        path.write_text(json.dumps(machine, indent=1, sort_keys=True) + "\n")
        print(f"{target}: {num_states(machine)} states")
    (REFERENCE_DIR / "verdicts.json").write_text(
        json.dumps(recorder.verdicts, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
