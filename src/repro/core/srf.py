"""The scalar register file (Sec. 3.2).

"The scalar register file (SRF) has 8 32-bit entries used for scalar values
that are kernel-dependent, such as addresses for the SPM, masking values
for the VWRs index computation, or loop parameters for the kernel execution
control. The SRF is single-ported, allowing one access at a time from the
different units (RCs, LSU, MXCU, and LCU)."

The one-unit-per-cycle rule is enforced by the column's hazard checker; the
SRF itself just stores words and logs read/write events. A broadcast read
of one entry by all RCs counts as a single access.
"""

from __future__ import annotations

from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters
from repro.utils.bits import to_signed32


class ScalarRegisterFile:
    """Single-ported scalar register file of one column."""

    def __init__(self, entries: int, events: EventCounters) -> None:
        self.n_entries = entries
        self._events = events
        self._data = [0] * entries

    def read(self, entry: int) -> int:
        self._check(entry)
        self._events.add(Ev.SRF_READ)
        return self._data[entry]

    def write(self, entry: int, value: int) -> None:
        self._check(entry)
        self._events.add(Ev.SRF_WRITE)
        self._data[entry] = to_signed32(value)

    def peek(self, entry: int) -> int:
        """Debug/test access without event logging."""
        self._check(entry)
        return self._data[entry]

    def poke(self, entry: int, value: int) -> None:
        """Configuration-time / test write without event logging."""
        self._check(entry)
        self._data[entry] = to_signed32(value)

    def poke_many(self, values: dict) -> None:
        """Batch :meth:`poke` of an ``{entry: value}`` map (a kernel load
        instead writes its launch record's pre-wrapped pairs,
        :meth:`~repro.core.column.Column.load`)."""
        data = self._data
        for entry, value in values.items():
            self._check(entry)
            data[entry] = to_signed32(value)

    def _check(self, entry: int) -> None:
        if not 0 <= entry < self.n_entries:
            raise AddressError(
                f"SRF entry {entry} out of range [0, {self.n_entries})"
            )
