"""RAM/swap memory model for visited-state storage.

The paper's evaluation machine had 64 GB of RAM and 128 GB of swap, and
Figure 3 shows the checker's speed governed by where its state store
lived: fast while states fit in RAM, a spike when Spin resized its hash
table, a long swap-bound decline, and a rebound when the working set
happened to be RAM-resident again.

The model is deliberately simple and deterministic: storing or touching
data charges RAM or swap latency based on the probability that the
touched bytes are RAM-resident, which combines the capacity ratio with a
tunable *locality* factor (DFS backtracking mostly touches recent
states, which stay resident).

Accounting is in **bytes**, not states, so memory-bounded visited-state
stores (:mod:`repro.mc.statestore`) can charge their true footprint: the
exact table stores a full concrete snapshot (``state_bytes``) per state,
hash compaction stores an 8-byte record, and bitstate reserves one fixed
bit array up front and never grows.  The states-based helpers
(:meth:`store_state`, :meth:`touch_state`) remain the exact-table fast
path and behave exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Cost, SimClock


class OutOfMemoryError(RuntimeError):
    """RAM and swap are both exhausted; the checker must stop."""


@dataclass
class MemoryModel:
    """Accounting for the checker's state store."""

    clock: SimClock
    ram_bytes: int = 64 * (1 << 30)
    swap_bytes: int = 128 * (1 << 30)
    state_bytes: int = 64 * 1024  # concrete snapshot footprint
    #: 0 = uniform access (pure capacity ratio); 1 = perfect locality
    #: (always RAM).  DFS sits high; random walks sit low.
    locality: float = 0.85
    #: total bytes currently held by the state store
    stored_bytes: int = 0

    @property
    def ram_capacity_states(self) -> int:
        return self.ram_bytes // self.state_bytes

    @property
    def total_capacity_states(self) -> int:
        return (self.ram_bytes + self.swap_bytes) // self.state_bytes

    @property
    def swapping(self) -> bool:
        return self.stored_bytes > self.ram_bytes

    @property
    def swap_used_bytes(self) -> int:
        return max(0, self.stored_bytes - self.ram_bytes)

    def ram_hit_ratio(self) -> float:
        """Probability that touched store bytes are RAM-resident."""
        if self.stored_bytes <= self.ram_bytes:
            return 1.0
        capacity_ratio = self.ram_bytes / self.stored_bytes
        return capacity_ratio + (1.0 - capacity_ratio) * self.locality

    # -------------------------------------------------------- byte interface --
    def store_bytes(self, count: int) -> None:
        """Account for the store growing by ``count`` bytes (no touch)."""
        if self.stored_bytes + count > self.ram_bytes + self.swap_bytes:
            raise OutOfMemoryError(
                f"{self.stored_bytes + count} stored bytes exceed RAM+swap "
                f"capacity ({self.ram_bytes + self.swap_bytes} bytes)"
            )
        self.stored_bytes += count

    def release_bytes(self, count: int) -> None:
        """Account for the store shrinking (e.g. a hot->cold demotion)."""
        self.stored_bytes = max(0, self.stored_bytes - count)

    def touch_bytes(self, count: int) -> None:
        """Charge the expected cost of accessing ``count`` stored bytes.

        The cost has a fixed part and a per-byte transfer part, so large
        concrete states (big device images) make swap residency hurt far
        more -- the mechanism behind the paper's Ext4-vs-XFS slowdown.
        """
        hit = self.ram_hit_ratio()
        ram_cost = Cost.RAM_STATE_TOUCH + count * Cost.RAM_TOUCH_PER_BYTE
        swap_cost = Cost.SWAP_STATE_TOUCH + count * Cost.SWAP_TOUCH_PER_BYTE
        expected = hit * ram_cost + (1.0 - hit) * swap_cost
        category = "state-swap" if hit < 1.0 else "state-ram"
        self.clock.charge(expected, category)

    # ------------------------------------------------------- state interface --
    def store_state(self) -> None:
        """Account for storing one new full state snapshot."""
        self.store_bytes(self.state_bytes)
        self.touch_state()

    def touch_state(self) -> None:
        """Charge the expected cost of accessing one full stored state."""
        self.touch_bytes(self.state_bytes)
