"""The configuration memory (Fig. 1, Sec. 3.1).

"The configuration words are stored in the configuration memory and loaded
to the RCs' local program memory when a kernel execution starts." We store
kernels both as structured :class:`KernelConfig` objects and as their exact
binary encodings (``repro.isa.encoding``), so the capacity accounting and
the load-cycle cost are real.

The planners build each kernel once (:mod:`repro.kernels.memo`), so
``store`` keys on identity. Re-storing the object held under its name is
skipped (``stats.dedup_hits``). The first store of a config validates and
encodes it, hazard-checks it, then stamps it with the ``params`` it was
checked under and its words; a stamped config stores into any memory of
that geometry without repeating the work (``encode_hits``/
``hazard_hits``). A config built by hand takes the full path on its first
store. Stored configs are treated as immutable.

The hazard check (:func:`~repro.core.hazards.check_program`) runs once
per distinct configuration word per process, keyed on the word's int
(the FFT-2048 set's 2,752 bundles hold 122 distinct words); a failing
word is never remembered, so a hazardous program raises
:class:`~repro.core.errors.StructuralHazardError` at its own PC on every
store. The ``hazard_*`` counters keep counting column programs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.errors import ConfigurationError
from repro.core.hazards import check_program
from repro.isa.encoding import bundle_bits, encode_bundles
from repro.isa.program import KernelConfig


@dataclass
class StoreStats:
    """Observable cache behaviour of :meth:`ConfigurationMemory.store`."""

    stores: int = 0         #: store() calls
    dedup_hits: int = 0     #: the held object re-stored: store skipped
    encode_hits: int = 0    #: per-column encodes reused off the stamp
    encode_misses: int = 0  #: per-column encodes actually performed
    hazard_hits: int = 0    #: per-column hazard checks reused off the stamp
    hazard_misses: int = 0  #: per-column hazard checks run (new words only)
    analysis_hits: int = 0    #: launches that reused their launch record
    analysis_misses: int = 0  #: launch records built (verdict computed)

    def as_dict(self) -> dict:
        """The counters as a plain ``name -> count`` dict.

        The public read API for consumers that want all counters at once
        — benchmarks, the metrics bus
        (:func:`repro.obs.instruments.record_store_stats`) — instead of
        reaching into the attributes field by field.
        """
        return asdict(self)

    def snapshot(self) -> dict:
        """An immutable copy of the counters (pairs with :meth:`since`)."""
        return self.as_dict()

    def since(self, snapshot: dict) -> dict:
        """Counter deltas accumulated since a :meth:`snapshot`.

        The stream scheduler (``repro.serve``) reports this per served
        stream: a warm stream shows ``dedup_hits`` growing with zero new
        ``encode_misses``/``hazard_misses``.
        """
        return {
            name: count - snapshot.get(name, 0)
            for name, count in self.as_dict().items()
        }


class ConfigurationMemory:
    """Holds the configurations of every kernel known to the array."""

    def __init__(self, params) -> None:
        self.params = params
        self._kernels = {}
        self._encoded = {}
        self.stats = StoreStats()

    # -- store / fetch ------------------------------------------------------

    def store(self, config: KernelConfig) -> None:
        """Validate, encode, hazard-check and store a kernel configuration
        (each at most once per config object and geometry)."""
        stats = self.stats
        stats.stores += 1
        if self._kernels.get(config.name) is config:
            stats.dedup_hits += 1
            return
        params = self.params
        stamp = config.__dict__.get("_stored")
        if stamp is not None and (stamp[0] is params or stamp[0] == params):
            encoded = stamp[1]
            stats.encode_hits += len(encoded)
            stats.hazard_hits += len(encoded)
        else:
            config.validate(params)
            encoded = {}
            for col, program in config.columns.items():
                words = encode_bundles(program.bundles)
                check_program(program.bundles, words)
                # Encode/decode are exact inverses, so the configuration
                # words are a lossless structural fingerprint; the compile
                # memo and the SPM-conflict analysis key on it (hashing
                # ints, not instruction trees).
                program._fingerprint = words
                encoded[col] = words
            stats.hazard_misses += len(encoded)
            stats.encode_misses += len(encoded)
            config._stored = (params, encoded)
        self._kernels[config.name] = config
        self._encoded[config.name] = encoded

    def get(self, name: str) -> KernelConfig:
        if name not in self._kernels:
            raise ConfigurationError(
                f"kernel {name!r} is not in the configuration memory "
                f"(known: {sorted(self._kernels)})"
            )
        return self._kernels[name]

    def encoded(self, name: str) -> dict:
        """Binary configuration words of a stored kernel, per column."""
        self.get(name)
        return self._encoded[name]

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def kernels(self) -> list:
        return sorted(self._kernels)

    def total_bits(self) -> int:
        """Total configuration storage currently used, in bits."""
        word_bits = bundle_bits(self.params.rcs_per_column)
        return sum(
            word_bits * len(words)
            for encoded in self._encoded.values()
            for words in encoded.values()
        )
