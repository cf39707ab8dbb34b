"""Column programs and kernel configurations.

A :class:`ColumnProgram` is the bundle sequence loaded into one column's
64-entry program memories plus the initial SRF contents (the SRF holds
"scalar values that are kernel-dependent", Sec. 3.2 — addresses, masks and
loop parameters, installed when the kernel configuration is loaded).

A :class:`KernelConfig` groups the per-column programs of one kernel as
stored in the configuration memory: "The configuration words are stored in
the configuration memory and loaded to the RCs' local program memory when a
kernel execution starts." (Sec. 3.1.)
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ColumnProgram:
    """Bundles plus initial SRF values for one column."""

    bundles: list
    srf_init: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.bundles)

    def __getitem__(self, pc: int):
        return self.bundles[pc]

    def validate(self, params) -> None:
        """Check the program fits the hardware described by ``params``."""
        if len(self.bundles) == 0:
            raise ValueError("empty program")
        if len(self.bundles) > params.program_words:
            raise ValueError(
                f"program has {len(self.bundles)} bundles; the program "
                f"memory holds {params.program_words} (Sec. 3.1)"
            )
        for entry in self.srf_init:
            if not 0 <= entry < params.srf_entries:
                raise ValueError(f"SRF init entry {entry} out of range")
        for pc, bundle in enumerate(self.bundles):
            if len(bundle.rcs) != params.rcs_per_column:
                raise ValueError(
                    f"bundle {pc} has {len(bundle.rcs)} RC slots, "
                    f"expected {params.rcs_per_column}"
                )
            if bundle.lcu.is_branch or bundle.lcu.op.name == "JUMP":
                if not 0 <= bundle.lcu.target < len(self.bundles):
                    raise ValueError(
                        f"bundle {pc}: branch target {bundle.lcu.target} "
                        "outside program"
                    )


@dataclass
class KernelConfig:
    """A kernel as held in the configuration memory.

    ``columns`` maps column index to :class:`ColumnProgram`. Kernels using
    several columns have their PCs synchronized by construction (identical
    control flow, per Sec. 3.3.3).
    """

    name: str
    columns: dict

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def validate(self, params) -> None:
        if not self.columns:
            raise ValueError(f"kernel {self.name!r}: no column programs")
        for col, program in self.columns.items():
            if not 0 <= col < params.n_columns:
                raise ValueError(
                    f"kernel {self.name!r}: column {col} does not exist"
                )
            program.validate(params)

    def load_cycles(self, params) -> int:
        """Cycles to copy this configuration into the program memories.

        One configuration word per bundle per column plus one cycle per
        initial SRF entry (the configuration loader and the SRF are written
        sequentially).
        """
        total = 0
        for program in self.columns.values():
            total += len(program.bundles) + len(program.srf_init)
        return total
