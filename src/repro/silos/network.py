"""A byte-accounted simulated network between silos and the orchestrator.

Wall-clock networking is not simulated with sleeps; instead every transfer
is recorded (who, to whom, how many bytes, what payload) and an estimated
transfer time is derived from configurable bandwidth and latency. The
estimates feed the cost model's transfer term and the federated-learning
communication-overhead benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro import telemetry as _telemetry


@dataclass(frozen=True)
class TransferRecord:
    """One payload crossing a silo boundary."""

    sender: str
    receiver: str
    payload: str
    n_bytes: int

    def estimated_seconds(self, bandwidth_bytes_per_s: float, latency_s: float) -> float:
        return latency_s + self.n_bytes / bandwidth_bytes_per_s


@dataclass
class SimulatedNetwork:
    """Accounts every byte moved between silos / the orchestrator."""

    bandwidth_bytes_per_s: float = 125_000_000.0  # 1 Gbit/s
    latency_s: float = 0.001
    transfers: List[TransferRecord] = field(default_factory=list)

    def send(self, sender: str, receiver: str, payload_name: str, payload) -> TransferRecord:
        """Record a transfer; returns the record. The payload itself is not copied."""
        record = TransferRecord(sender, receiver, payload_name, self._payload_bytes(payload))
        self.transfers.append(record)
        if _telemetry.ENABLED:
            _telemetry.counter_add("network.messages")
            _telemetry.counter_add("network.bytes", float(record.n_bytes))
            _telemetry.counter_add(
                f"network.bytes_sent.{sender}", float(record.n_bytes)
            )
        return record

    @staticmethod
    def _payload_bytes(payload) -> int:
        if payload is None:
            return 0
        if isinstance(payload, np.ndarray):
            return int(payload.nbytes)
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        if isinstance(payload, (int, float, bool)):
            return 8
        if isinstance(payload, str):
            return len(payload.encode("utf-8"))
        if isinstance(payload, (list, tuple)):
            return sum(SimulatedNetwork._payload_bytes(item) for item in payload)
        if isinstance(payload, dict):
            return sum(
                SimulatedNetwork._payload_bytes(k) + SimulatedNetwork._payload_bytes(v)
                for k, v in payload.items()
            )
        if hasattr(payload, "nbytes"):
            return int(payload.nbytes)
        return 0

    # -- accounting -----------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(record.n_bytes for record in self.transfers)

    @property
    def n_messages(self) -> int:
        return len(self.transfers)

    def total_estimated_seconds(self) -> float:
        return sum(
            record.estimated_seconds(self.bandwidth_bytes_per_s, self.latency_s)
            for record in self.transfers
        )

    def bytes_sent_by(self, sender: str) -> int:
        return sum(r.n_bytes for r in self.transfers if r.sender == sender)

    def bytes_received_by(self, receiver: str) -> int:
        return sum(r.n_bytes for r in self.transfers if r.receiver == receiver)

    def reset(self) -> None:
        self.transfers.clear()
