"""Correctness checks made from outside the program.

Pinned reference models and verdicts live in ``reference/``.  A learned
model is compared with its reference by this module's own breadth-first
walk over the product of the two machines, on the models' serialized
form (``MealyMachine.to_dict``), so a bug in the program's equivalence
code cannot hide a wrong model.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _label(symbol: dict) -> str:
    return f"{symbol['kind']}:{symbol['text']}"


def compact(model_dict: dict) -> dict:
    """``MealyMachine.to_dict()`` output as ``{initial, inputs, delta}``.

    ``delta[state][input_label]`` is ``[output_label, next_state]``.
    """
    inputs = [_label(symbol) for symbol in model_dict["input_alphabet"]]
    delta: dict[str, dict[str, list[str]]] = {}
    for row in model_dict["transitions"]:
        delta.setdefault(row["source"], {})[inputs[row["input"]]] = [
            _label(row["output"]),
            row["target"],
        ]
    return {
        "initial": model_dict["initial_state"],
        "inputs": sorted(inputs),
        "delta": delta,
    }


def find_difference(reference: dict, model: dict) -> list[str] | None:
    """A shortest input word on which two compact machines differ.

    Returns ``None`` when they are equivalent.  Differing input alphabets
    count as a difference (the empty word).  A missing transition counts
    as a difference on the word that reaches it.
    """
    if reference["inputs"] != model["inputs"]:
        return []
    start = (reference["initial"], model["initial"])
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        (ref_state, state), word = queue.popleft()
        for symbol in reference["inputs"]:
            ref_row = reference["delta"].get(ref_state, {}).get(symbol)
            row = model["delta"].get(state, {}).get(symbol)
            if ref_row is None or row is None or ref_row[0] != row[0]:
                return word + [symbol]
            successor = (ref_row[1], row[1])
            if successor not in seen:
                seen.add(successor)
                queue.append((successor, word + [symbol]))
    return None


def num_states(machine: dict) -> int:
    """States reachable from the initial state."""
    seen = {machine["initial"]}
    pending = [machine["initial"]]
    while pending:
        state = pending.pop()
        for _, target in machine["delta"].get(state, {}).values():
            if target not in seen:
                seen.add(target)
                pending.append(target)
    return len(seen)


class References:
    """The pinned models (``<target>.json``) and ``verdicts.json``."""

    def __init__(self, directory: Path = REFERENCE_DIR) -> None:
        self.directory = directory
        self._models: dict[str, dict] = {}
        self.verdicts = json.loads((directory / "verdicts.json").read_text())

    def model(self, target: str) -> dict:
        if target not in self._models:
            path = self.directory / f"{target}.json"
            self._models[target] = json.loads(path.read_text())
        return self._models[target]

    def model_error(self, target: str, model_dict: dict) -> str | None:
        """``None`` when the learned model matches the pinned one."""
        reference = self.model(target)
        difference = find_difference(reference, compact(model_dict))
        if difference is None:
            return None
        return f"{target}: model differs from reference on {difference}"

    def property_error(self, target: str, verdicts: dict[str, str]) -> str | None:
        expected = self.verdicts["properties"][target]
        if verdicts == expected:
            return None
        return f"{target}: property verdicts {verdicts} != pinned {expected}"

    def attack_error(self, target: str, verdicts: dict[str, str]) -> str | None:
        expected = self.verdicts["attacks"][target]
        if verdicts == expected:
            return None
        return f"{target}: attack verdicts {verdicts} != pinned {expected}"
