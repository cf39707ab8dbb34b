"""SPM data-layout management for kernel generators.

Kernels see the SPM as named line-granular regions ("careful data
placement", Sec. 3.3.2, is half of every VWR2A mapping). The allocator
hands out line-aligned regions and remembers them by name, so generators,
the runner (DMA staging) and tests all agree on addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import ArchParams
from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class Region:
    """A named line-aligned SPM region."""

    name: str
    line: int          #: first SPM line
    n_lines: int
    line_words: int

    @property
    def word(self) -> int:
        """First word address (narrow-side view)."""
        return self.line * self.line_words

    @property
    def n_words(self) -> int:
        return self.n_lines * self.line_words

    def line_at(self, offset: int) -> int:
        """Absolute line address of line ``offset`` within the region."""
        if not 0 <= offset < self.n_lines:
            raise ConfigurationError(
                f"region {self.name!r}: line offset {offset} out of range "
                f"[0, {self.n_lines})"
            )
        return self.line + offset


class SpmAllocator:
    """Bump allocator of line-aligned SPM regions."""

    def __init__(self, params: ArchParams) -> None:
        self.params = params
        self._next_line = 0
        self._regions = {}

    def alloc(self, name: str, n_words: int) -> Region:
        """Allocate ``n_words`` rounded up to whole lines."""
        if name in self._regions:
            raise ConfigurationError(f"region {name!r} already allocated")
        line_words = self.params.line_words
        n_lines = -(-max(n_words, 1) // line_words)
        if self._next_line + n_lines > self.params.spm_lines:
            raise ConfigurationError(
                f"SPM overflow allocating {name!r}: need {n_lines} lines, "
                f"only {self.params.spm_lines - self._next_line} of "
                f"{self.params.spm_lines} remain"
            )
        region = Region(
            name=name,
            line=self._next_line,
            n_lines=n_lines,
            line_words=line_words,
        )
        self._next_line += n_lines
        self._regions[name] = region
        return region

    def alloc_lines(self, name: str, n_lines: int) -> Region:
        return self.alloc(name, n_lines * self.params.line_words)

    def get(self, name: str) -> Region:
        if name not in self._regions:
            raise ConfigurationError(
                f"unknown SPM region {name!r} (known: "
                f"{sorted(self._regions)})"
            )
        return self._regions[name]

    @property
    def used_lines(self) -> int:
        return self._next_line

    def regions(self) -> dict:
        return dict(self._regions)
