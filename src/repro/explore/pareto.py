"""Pareto analysis of explored design points: cycles vs energy per window.

A :class:`DesignPoint` is one measured architecture; :func:`pareto_front`
splits a set of points into the non-dominated frontier and the dominated
rest (minimizing both axes); a :class:`ParetoReport` bundles the points
with JSON and text renderings for the CLI and the CI artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class DesignPoint:
    """One architecture's measured position in the cycles/energy plane."""

    name: str                 #: spec name (report key)
    fingerprint: str          #: ArchSpec fingerprint the numbers belong to
    geometry: str             #: human-readable spec description
    cycles_per_window: float  #: simulated cycles per served window
    energy_uj_per_window: float  #: modeled energy (µJ) per served window
    #: kernel name -> cycles per window of that kernel's stream
    kernel_cycles: dict[str, float] = field(default_factory=dict)
    #: stream-wide launch tally by executing engine
    engine_counts: dict[str, int] = field(default_factory=dict)

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse on both axes, better on at least one.

        Both axes minimize. Equal points do not dominate each other, so
        duplicated measurements all stay on the frontier instead of
        arbitrarily shadowing one another.
        """
        if self.cycles_per_window > other.cycles_per_window:
            return False
        if self.energy_uj_per_window > other.energy_uj_per_window:
            return False
        return (
            self.cycles_per_window < other.cycles_per_window
            or self.energy_uj_per_window < other.energy_uj_per_window
        )


def pareto_front(points) -> tuple[list[DesignPoint], list[DesignPoint]]:
    """Split ``points`` into (frontier, dominated), both cycle-sorted."""
    points = list(points)
    front = [
        p for p in points
        if not any(q.dominates(p) for q in points)
    ]
    dominated = [p for p in points if p not in front]
    key = lambda p: (p.cycles_per_window, p.energy_uj_per_window)  # noqa: E731
    return sorted(front, key=key), sorted(dominated, key=key)


@dataclass
class ParetoReport:
    """All measured design points plus their Pareto classification."""

    points: list[DesignPoint] = field(default_factory=list)
    #: campaign metadata (kernels, windows, wall seconds, ...)
    meta: dict = field(default_factory=dict)

    @property
    def front(self) -> list[DesignPoint]:
        return pareto_front(self.points)[0]

    @property
    def dominated(self) -> list[DesignPoint]:
        return pareto_front(self.points)[1]

    @property
    def front_names(self) -> list[str]:
        return [p.name for p in self.front]

    def __getitem__(self, name: str) -> DesignPoint:
        for point in self.points:
            if point.name == name:
                return point
        raise KeyError(name)

    def to_json(self) -> str:
        front = {p.name for p in self.front}
        return json.dumps(
            {
                "meta": self.meta,
                "points": [
                    {**asdict(p), "pareto_optimal": p.name in front}
                    for p in self.points
                ],
                "front": sorted(front),
            },
            indent=2,
            sort_keys=True,
        )

    def table(self) -> str:
        """ASCII cycles/energy comparison, frontier points starred."""
        front = {p.name for p in self.front}
        kernels: list[str] = []
        for point in self.points:
            for kernel in point.kernel_cycles:
                if kernel not in kernels:
                    kernels.append(kernel)
        header = (
            f"{'point':<18} {'geometry':<40} {'cyc/win':>9} "
            f"{'uJ/win':>8} "
            + " ".join(f"{k + ' cyc':>10}" for k in kernels)
            + "  pareto"
        )
        lines = [header, "-" * len(header)]
        key = lambda p: (  # noqa: E731
            p.cycles_per_window, p.energy_uj_per_window
        )
        for point in sorted(self.points, key=key):
            per_kernel = " ".join(
                f"{point.kernel_cycles.get(k, 0):>10.0f}" for k in kernels
            )
            lines.append(
                f"{point.name:<18} {point.geometry:<40} "
                f"{point.cycles_per_window:>9.0f} "
                f"{point.energy_uj_per_window:>8.2f} "
                f"{per_kernel}  {'*' if point.name in front else ''}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        front = self.front
        lines = [
            f"explored {len(self.points)} design points "
            f"x {len(self.meta.get('kernels', []))} kernels "
            f"({self.meta.get('windows', '?')} windows each): "
            f"{len(front)} on the Pareto frontier",
            self.table(),
        ]
        if front:
            fastest = front[0]
            leanest = min(front, key=lambda p: p.energy_uj_per_window)
            lines.append(
                f"fastest: {fastest.name} "
                f"({fastest.cycles_per_window:.0f} cyc/win); "
                f"leanest: {leanest.name} "
                f"({leanest.energy_uj_per_window:.2f} uJ/win)"
            )
        return "\n".join(lines)
