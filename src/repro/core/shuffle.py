"""The hardcoded shuffle unit (Sec. 3.3.1).

"It takes as input the data contained in the VWRs A and B, applies a
hardcoded shuffle operation on the data, and stores the result in the
VWR C." All four operations view the inputs as the 2V-word concatenation
A:B (V = VWR width in words) and produce V words:

* *Words interleaving*: A and B words are interleaved; the result is twice
  a VWR, the LO/HI mode selects the lower or upper half.
* *Even / odd index pruning*: removes the even- (resp. odd-) indexed
  elements of A and of B and outputs the remaining elements of both.
* *Bit-reversal*: bit-reversal permutation of the 2V concatenation; LO/HI
  selects a half.
* *Circular shift*: the concatenation is shifted up by one RC slice
  (32 words in the paper's configuration) circularly — the upper slice
  wraps to the lower positions; LO/HI selects a half.
"""

from __future__ import annotations

from operator import itemgetter

from repro.isa.fields import ShuffleMode
from repro.utils.bits import bit_reverse, clog2, is_power_of_two

#: Memoized shuffles: (mode, width, slice_words) -> ``gather(a, b)``,
#: the V result words (a tuple) of the A:B concatenation. The wiring of
#: the hardcoded unit is static, so every call is one C-level gather.
_TABLES = {}


def _table(mode: ShuffleMode, width: int, slice_words: int) -> list:
    size = 2 * width
    if mode in (ShuffleMode.INTERLEAVE_LO, ShuffleMode.INTERLEAVE_HI):
        # Position 2i holds A[i], position 2i+1 holds B[i] (= concat
        # index width + i); LO/HI selects a half of that interleaving.
        interleaved = [0] * size
        interleaved[0::2] = range(width)
        interleaved[1::2] = range(width, size)
        half = 0 if mode is ShuffleMode.INTERLEAVE_LO else width
        return interleaved[half:half + width]
    if mode is ShuffleMode.EVEN_PRUNE:
        # Even-indexed elements pruned: the odd-indexed ones remain.
        return list(range(1, width, 2)) + list(range(width + 1, size, 2))
    if mode is ShuffleMode.ODD_PRUNE:
        return list(range(0, width, 2)) + list(range(width, size, 2))
    if mode in (ShuffleMode.BITREV_LO, ShuffleMode.BITREV_HI):
        bits = clog2(size)
        reordered = [bit_reverse(i, bits) for i in range(size)]
        half = 0 if mode is ShuffleMode.BITREV_LO else width
        return reordered[half:half + width]
    if mode in (ShuffleMode.CSHIFT_LO, ShuffleMode.CSHIFT_HI):
        shifted = [(i - slice_words) % size for i in range(size)]
        half = 0 if mode is ShuffleMode.CSHIFT_LO else width
        return shifted[half:half + width]
    raise ValueError(f"unknown shuffle mode {mode!r}")


def shuffler(mode: ShuffleMode, width: int, slice_words: int):
    """The memoized gather of ``mode`` on two ``width``-word VWRs:
    ``gather(a, b)`` returns the V result words as a tuple (the compiled
    engine binds it per mode as ``_shuf{mode}``)."""
    key = (mode, width, slice_words)
    gather = _TABLES.get(key)
    if gather is not None:
        return gather
    if not is_power_of_two(width):
        def gather(a, b):
            raise ValueError(
                f"VWR width must be a power of two, got {width}"
            )
    else:
        indices = _table(mode, width, slice_words)
        if len(indices) == 1:
            # itemgetter with one index returns a bare item, not a tuple.
            def gather(a, b, index=indices[0]):
                return ([*a, *b][index],)
        else:
            def gather(a, b, pick=itemgetter(*indices)):
                return pick([*a, *b])
    _TABLES[key] = gather
    return gather


def shuffle(a, b, mode: ShuffleMode, slice_words: int = 32) -> list:
    """Apply ``mode`` to VWR contents ``a`` and ``b``; return V words.

    ``a`` and ``b`` must have equal power-of-two length V; the result list
    also has length V. ``slice_words`` sets the circular-shift distance
    (one RC slice).
    """
    if len(a) != len(b):
        raise ValueError(f"VWR length mismatch: {len(a)} vs {len(b)}")
    return list(shuffler(mode, len(a), slice_words)(a, b))
