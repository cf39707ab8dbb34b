"""Bounded process-wide memos of the simulator's set-up work.

Each memo is a ``dict`` evicted oldest-first (FIFO) by :func:`remember`.
Memos of whole programs (their shapes, ``_run`` code, SPM footprints)
hold :data:`MEMO_CAP` entries; memos of a program's pieces (configuration
words, basic blocks) hold :data:`PIECE_CAP`, since a program holds
several of each: the default design space
(:func:`repro.explore.space.design_space`) and both served workloads
come to 109 programs, 345 distinct words and 437 distinct blocks.
"""

from __future__ import annotations

#: Entries kept per memo of whole programs.
MEMO_CAP = 256

#: Entries kept per memo of program pieces.
PIECE_CAP = 4 * MEMO_CAP


def remember(memo: dict, key, value, cap: int = MEMO_CAP):
    """Store ``value`` under ``key``, first evicting ``memo``'s oldest
    entry when it holds ``cap``; returns ``value``."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value
    return value
