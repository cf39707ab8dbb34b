"""Stream checkpointing: resume very long traces mid-stream.

A :class:`StreamCheckpoint` periodically serializes the progress of a
served stream — the set of completed :class:`~repro.serve.WindowResult`
objects (the stream cursor falls out of their indices), the accumulated
store-cache counters and the wall-clock spent so far — so a killed
multi-hour serving run resumes where it stopped and still produces a
final :class:`~repro.serve.StreamReport` bit-identical to an
uninterrupted run (per-window results are history-independent; see
docs/parallel.md for the determinism argument).

Checkpoints are engine-agnostic on the *serving* side: a stream started
under the single-process :class:`~repro.serve.StreamScheduler` can be
resumed by a :class:`~repro.serve.PoolScheduler` with any worker count,
and vice versa — the fingerprint pins the stream contents, the window
shape, the platform configuration and the pipeline, not the executor.

The on-disk format is a pickled :class:`CheckpointState` written
atomically (temp file + ``os.replace``); a fingerprint mismatch on load
raises instead of silently mixing two different streams.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass, field, is_dataclass

from repro.core.errors import ConfigurationError
from repro.obs.bus import get_bus

#: Bump when CheckpointState stops being readable by older code, or when
#: the windows it holds would no longer match windows this code serves
#: (a resumed report must not mix the two).
#: v2 added the quarantine ledger (``failed``) and resilience counters;
#: v3 added per-worker fleet namespaces; v4 folds ``kernel_energy_pj``
#: from every launch's own event delta (v3 windows carry the old
#: compiled-only block fold, or ``{}`` for reference-tier windows); v5
#: drops the staging-policy key (every window stages one way now).
FORMAT_VERSION = 5


def describe(obj) -> str:
    """A restart-stable description of a pipeline/params object.

    Dataclasses (the :class:`~repro.app.AppParams` /
    :class:`~repro.app.mbiotracker.WindowPipeline` case) are pinned by
    their full ``repr``. Other instances are pinned by qualified type
    name plus their sorted instance attributes — a resume with the same
    pipeline class but different parameters must not silently mix two
    serving jobs. Object ``repr`` defaults are avoided (they embed
    memory addresses, which would make every restart look like a
    different stream); attribute values with address-bearing reprs can
    at worst refuse a legitimate resume, never accept a wrong one.
    """
    if obj is None:
        return "none"
    if is_dataclass(obj) and not isinstance(obj, type):
        return repr(obj)
    name = getattr(obj, "__qualname__", None)
    module = getattr(obj, "__module__", None)
    if name is None or module is None:
        name = type(obj).__qualname__
        module = type(obj).__module__
    # Functions: captured cells and defaults are parameters too — two
    # closures from the same factory must not fingerprint identically.
    closure = getattr(obj, "__closure__", None)
    defaults = getattr(obj, "__defaults__", None)
    if closure or defaults:
        parts = []
        if defaults:
            parts.append(f"defaults={defaults!r}")
        if closure:
            try:
                cells = tuple(cell.cell_contents for cell in closure)
            except ValueError:  # unset cell
                cells = "<unset>"
            parts.append(f"closure={cells!r}")
        return f"{module}.{name}[{', '.join(parts)}]"
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        detail = ", ".join(
            f"{key}={value!r}" for key, value in sorted(attrs.items())
        )
        return f"{module}.{name}({detail})"
    return f"{module}.{name}"


def describe_energy(model) -> str:
    """Restart-stable description of a scheduler's energy model setting.

    Energy off and the calibrated default model must never be
    confused across a resume — half the windows would carry µJ values
    and the other half ``None``. ``None`` and ``False`` both describe as
    ``"none"``; the ``True`` sentinel and an instance equal to
    :func:`repro.energy.default_model` both describe as ``"default"``, so
    pool- and single-process-written checkpoints stay interchangeable
    whichever spelling the resuming side uses.
    """
    if model is None or model is False:
        return "none"
    if model is True:
        return "default"
    from repro.energy import EnergyModel, default_model

    if isinstance(model, EnergyModel):
        default = default_model()
        table = getattr(model, "table", None)
        clock_hz = getattr(model, "clock_hz", None)
        if table == default.table and clock_hz == default.clock_hz:
            return "default"
        return f"{describe(model)}[{table!r}, clock_hz={clock_hz}]"
    return describe(model)


def stream_fingerprint(stream, config: str, engine: str, pipeline=None,
                       energy_model=None) -> dict:
    """Identity of one serving job: what a checkpoint may resume.

    Hashes the full trace (a resume against different data must fail
    loudly) and pins every knob that changes per-window results or the
    report shape. Deliberately excludes the executor — worker counts,
    sharding and feeder settings are free to change across restarts.
    """
    digest = hashlib.sha256()
    for value in stream.trace:
        # repr, not int(): float traces must not collide with their
        # truncations (custom pipelines may serve non-integer samples).
        digest.update(repr(value).encode())
        digest.update(b",")
    return {
        "version": FORMAT_VERSION,
        "trace_sha256": digest.hexdigest(),
        "trace_len": len(stream.trace),
        "window": stream.window,
        "hop": stream.hop,
        "tail": stream.tail,
        "n_windows": stream.n_windows,
        "config": config,
        "engine": engine,
        "pipeline": describe(pipeline),
        "energy": describe_energy(energy_model),
    }


@dataclass
class CheckpointState:
    """Everything a resume needs: fingerprint + completed windows."""

    fingerprint: dict
    #: window index -> WindowResult of every completed window.
    results: dict = field(default_factory=dict)
    #: store-cache counter deltas accumulated over all sessions/workers.
    store_stats: dict = field(default_factory=dict)
    #: serving wall-clock accumulated over all sessions.
    wall_seconds: float = 0.0
    #: window index -> FailedWindow of every quarantined window. A
    #: session accounts a stream complete when results + failed cover
    #: it; a *resume* clears this ledger first and re-attempts the
    #: quarantined windows — quarantine is a per-session verdict, not a
    #: permanent one (the faults that caused it may be gone).
    failed: dict = field(default_factory=dict)
    #: resilience counters accumulated over all sessions/workers.
    resilience: dict = field(default_factory=dict)
    #: per-worker bookkeeping namespaces, keyed by worker name — the
    #: fleet server records each remote worker's served-window and
    #: reconnect tallies here so a resumed session (possibly on a
    #: different server host) still reports who did what. Purely
    #: observational: resume correctness never depends on it.
    namespaces: dict = field(default_factory=dict)

    @property
    def n_done(self) -> int:
        return len(self.results)

    @property
    def n_failed(self) -> int:
        return len(self.failed)

    @property
    def n_windows(self) -> int:
        return self.fingerprint["n_windows"]

    @property
    def complete(self) -> bool:
        """Every window is accounted for — served or quarantined."""
        return self.n_done + self.n_failed >= self.n_windows


class StreamCheckpoint:
    """Periodic, atomic serialization of stream progress to one file.

    ``every`` is the save cadence in completed windows (via
    :meth:`mark`); explicit :meth:`save` calls (end of run, abort paths)
    flush regardless. The file lives at ``path`` and is replaced
    atomically, so a kill mid-save leaves the previous checkpoint intact.

    Each flush rewrites the whole state, so total checkpoint cost over a
    stream is O(n_windows² / every) window serializations — scale
    ``every`` with the stream (e.g. ~1% of its windows) on very long
    traces; the default suits streams up to a few thousand windows.
    """

    def __init__(self, path, every: int = 8) -> None:
        if every <= 0:
            raise ConfigurationError(
                f"checkpoint cadence must be positive, got {every}"
            )
        self.path = os.fspath(path)
        self.every = every
        self._since_save = 0

    # -- persistence --------------------------------------------------------

    def load(self) -> CheckpointState:
        """The saved state, or ``None`` when no checkpoint exists yet.

        A corrupted or truncated file — a crash mid-write on a filesystem
        without atomic replace, torn storage, or plain bit rot — is
        treated as *no checkpoint*, with an explicit warning: the stream
        re-serves from scratch rather than surfacing an unpickling
        traceback hours into a resume. A file that unpickles cleanly but
        is the wrong type or format version still raises — that is a
        usage error, not damage.
        """
        if not os.path.exists(self.path):
            return None
        try:
            with open(self.path, "rb") as handle:
                state = pickle.load(handle)
        except Exception as exc:
            warnings.warn(
                f"checkpoint {self.path!r} is corrupted or truncated "
                f"({type(exc).__name__}: {exc}); starting the stream "
                "fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if not isinstance(state, CheckpointState):
            raise ConfigurationError(
                f"{self.path!r} is not a stream checkpoint"
            )
        version = state.fingerprint.get("version")
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"checkpoint {self.path!r} has format version {version}, "
                f"this code reads version {FORMAT_VERSION}"
            )
        return state

    def resume(self, fingerprint: dict) -> CheckpointState:
        """Load-or-create the state for the stream ``fingerprint`` pins.

        A missing file starts a fresh state; an existing checkpoint for a
        *different* stream (other trace, window shape, config, engine,
        pipeline...) raises naming the first mismatching field.
        """
        state = self.load()
        if state is None:
            return CheckpointState(fingerprint=fingerprint)
        if state.fingerprint != fingerprint:
            for name, expected in fingerprint.items():
                saved = state.fingerprint.get(name)
                if saved != expected:
                    raise ConfigurationError(
                        f"checkpoint {self.path!r} belongs to a different "
                        f"stream: {name} is {saved!r}, resuming stream has "
                        f"{expected!r}"
                    )
        return state

    def save(self, state: CheckpointState) -> None:
        """Atomically and durably write ``state`` to :attr:`path`.

        The temp file is fsynced before the atomic replace — without it,
        a power loss after ``os.replace`` can leave the *name* pointing
        at unwritten data, which is exactly the torn checkpoint
        :meth:`load` then has to discard. The directory entry is synced
        too (best-effort; not every filesystem supports it).
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        handle, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".checkpoint-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                pickle.dump(state, tmp, protocol=pickle.HIGHEST_PROTOCOL)
                tmp.flush()
                os.fsync(tmp.fileno())
            os.replace(tmp_path, self.path)
            try:
                dir_fd = os.open(directory, os.O_RDONLY)
            except OSError:
                pass
            else:
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        self._since_save = 0
        bus = get_bus()
        if bus is not None:
            bus.inc("repro_checkpoint_saves_total")
            bus.set_gauge("repro_checkpoint_lag_windows", 0)

    def mark(self, state: CheckpointState) -> bool:
        """Count one completed window; save when the cadence is due.

        Returns whether this mark flushed to disk.
        """
        self._since_save += 1
        if self._since_save >= self.every:
            self.save(state)
            return True
        bus = get_bus()
        if bus is not None:
            bus.set_gauge(
                "repro_checkpoint_lag_windows", self._since_save
            )
        return False

    def clear(self) -> None:
        """Delete the checkpoint file (e.g. after a fully served run)."""
        if os.path.exists(self.path):
            os.unlink(self.path)
        self._since_save = 0

    def __repr__(self) -> str:
        return f"StreamCheckpoint({self.path!r}, every={self.every})"

