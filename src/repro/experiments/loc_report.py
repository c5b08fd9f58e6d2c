"""E11: instrumentation-cost accounting (paper section 3.2).

The paper quantifies the key modularity claim by lines of code: the TCP
reference-implementation instrumentation took ~300 lines versus the
2,700-line hand-written mapper of prior work [22], and the QUIC
instrumentation ~2,000 lines on top of QUIC-Tracker's ~10,000.

We report the same breakdown for this repository: the protocol-agnostic
adapter machinery, the per-protocol instrumentation (adapters + reference
-client hooks), and the protocol substrates they instrument.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PAPER_TCP_INSTRUMENTATION_LOC = 300
PAPER_TCP_MAPPER_LOC = 2700
PAPER_QUIC_INSTRUMENTATION_LOC = 2000
PAPER_QUIC_REFERENCE_LOC = 10_000


def _package_root() -> Path:
    return Path(__file__).resolve().parent.parent


def count_loc(relative_paths: list[str]) -> int:
    """Non-blank, non-comment source lines across the given files."""
    total = 0
    root = _package_root()
    for relative in relative_paths:
        path = root / relative
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


@dataclass(frozen=True)
class LocReport:
    tcp_instrumentation: int
    quic_instrumentation: int
    quic_reference: int
    adapter_framework: int

    def render(self) -> str:
        return "\n".join(
            [
                "instrumentation cost (non-blank, non-comment LoC):",
                f"  adapter framework (protocol-agnostic): {self.adapter_framework}",
                f"  TCP instrumentation : {self.tcp_instrumentation} "
                f"(paper: ~{PAPER_TCP_INSTRUMENTATION_LOC} vs "
                f"{PAPER_TCP_MAPPER_LOC}-line mapper)",
                f"  QUIC instrumentation: {self.quic_instrumentation} "
                f"(paper: ~{PAPER_QUIC_INSTRUMENTATION_LOC})",
                f"  QUIC reference impl : {self.quic_reference} "
                f"(paper: ~{PAPER_QUIC_REFERENCE_LOC} lines of Go)",
            ]
        )


def loc_report() -> LocReport:
    """Measure this repository's equivalents of the paper's LoC claims."""
    return LocReport(
        tcp_instrumentation=count_loc(
            ["adapter/tcp_adapter.py", "tcp/client.py"]
        ),
        quic_instrumentation=count_loc(
            ["adapter/quic_adapter.py", "quic/impls/tracker.py"]
        ),
        quic_reference=count_loc(
            [
                "quic/varint.py",
                "quic/frames.py",
                "quic/packet.py",
                "quic/crypto.py",
                "quic/transport_params.py",
                "quic/flowcontrol.py",
                "quic/streams.py",
                "quic/packetspace.py",
                "quic/connection.py",
                "quic/behavior.py",
            ]
        ),
        adapter_framework=count_loc(["adapter/sul.py"]),
    )
