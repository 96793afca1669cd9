"""Shared result type and cost-model helpers for the baseline systems.

Each baseline *really computes* its answer (validated against the same
oracles as G-thinker) while accumulating modeled time the way its
execution model spends it: measured CPU seconds divided by the cores its
design can actually use, network bytes over the
:class:`~repro.core.config.NetworkModel`, and disk bytes over the
:class:`~repro.core.config.DiskModel`.  A baseline that exceeds its
memory budget reports a failure instead of an answer — that is how the
paper's Table III dashes ("out of memory", "> 24 hr") arise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.config import DiskModel, MachineModel, NetworkModel

__all__ = ["BaselineResult", "CostModel"]


@dataclass
class BaselineResult:
    """Outcome of one baseline run."""

    system: str
    app: str
    answer: Any = None
    virtual_time_s: float = 0.0
    peak_memory_bytes: float = 0.0
    failed: Optional[str] = None  # e.g. "out of memory", "exceeded time budget"
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed is None


class CostModel:
    """Accumulates the three cost components of a baseline run."""

    def __init__(
        self,
        machines: int = 1,
        threads: int = 1,
        machine: Optional[MachineModel] = None,
        memory_budget_bytes: Optional[float] = None,
    ) -> None:
        if machines < 1 or threads < 1:
            raise ValueError("machines and threads must be >= 1")
        self.machines = machines
        self.threads = threads
        self.network = NetworkModel()
        self.disk = DiskModel()
        self.machine = machine or MachineModel()
        self.memory_budget_bytes = (
            memory_budget_bytes
            if memory_budget_bytes is not None
            else self.machine.memory_bytes
        )
        self.parallel_cpu_s = 0.0   # divided across machines*threads
        self.serial_cpu_s = 0.0     # inherently serial (single-lock paths, 1 thread)
        self.network_bytes = 0.0
        self.network_rounds = 0
        self.disk_bytes = 0.0
        self.disk_ios = 0
        self._peak_memory = 0.0

    # -- charging ------------------------------------------------------

    def charge_parallel_cpu(self, seconds: float) -> None:
        self.parallel_cpu_s += seconds * self.machine.cpu_speed

    def charge_serial_cpu(self, seconds: float) -> None:
        self.serial_cpu_s += seconds * self.machine.cpu_speed

    def charge_network(self, num_bytes: float, rounds: int = 1) -> None:
        self.network_bytes += num_bytes
        self.network_rounds += rounds

    def charge_disk(self, num_bytes: float, ios: int = 1) -> None:
        self.disk_bytes += num_bytes
        self.disk_ios += ios

    def observe_memory(self, per_machine_bytes: float) -> None:
        self._peak_memory = max(self._peak_memory, per_machine_bytes)

    def memory_exceeded(self) -> bool:
        return self._peak_memory > self.memory_budget_bytes

    @property
    def peak_memory_bytes(self) -> float:
        return self._peak_memory

    # -- totals -----------------------------------------------------------

    def total_time_s(self) -> float:
        """The modeled makespan.

        CPU that the design parallelizes is divided by all cores; serial
        CPU is not.  Network bytes cross ``machines`` links concurrently;
        disk bytes hit each machine's one disk (already accounted per
        machine by the callers — they charge only the busiest machine's
        bytes or the aggregate over machines, whichever the model says).
        """
        cpu = self.parallel_cpu_s / (self.machines * self.threads) + self.serial_cpu_s
        net = (
            self.network_bytes / (self.machines * self.network.bandwidth_bytes_per_s)
            + self.network_rounds * self.network.latency_s
        )
        disk = (
            self.disk_bytes / self.disk.bandwidth_bytes_per_s
            + self.disk_ios * self.disk.seek_s
        )
        return cpu + net + disk

    def detail(self) -> Dict[str, float]:
        return {
            "parallel_cpu_s": self.parallel_cpu_s,
            "serial_cpu_s": self.serial_cpu_s,
            "network_bytes": self.network_bytes,
            "disk_bytes": self.disk_bytes,
            "peak_memory_bytes": self._peak_memory,
        }
