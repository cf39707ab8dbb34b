"""Bit-manipulation helpers used across the ISA, simulator and kernels.

All VWR2A datapath values are 32-bit two's-complement words. The simulator
stores them as Python ints in signed range [-2**31, 2**31 - 1]; these helpers
convert between signed/unsigned views and implement the bit-reversal
permutation used by the FFT kernels and the shuffle unit.
"""

from __future__ import annotations

from functools import lru_cache

_WORD_BITS = 32
_WORD_MASK = (1 << _WORD_BITS) - 1
_SIGN_BIT = 1 << (_WORD_BITS - 1)


def to_unsigned32(value: int) -> int:
    """Return the unsigned 32-bit view of ``value`` (any Python int)."""
    return value & _WORD_MASK


def to_signed32(value: int) -> int:
    """Return the signed 32-bit two's-complement view of ``value``."""
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        return value - (1 << _WORD_BITS)
    return value


def int32_words(values) -> list:
    """``[to_signed32(v) for v in values]``: the storage form of host values.

    Every vector write path of the SPM, the SRAM and the VWRs stores
    through here, so each cell holds an int32 (the compiler's
    operand-range rule relies on it). An in-range int passes on two
    compares with no call; a bool is stored as its int; a float raises
    ``TypeError``.
    """
    return [
        v if type(v) is int and -2147483648 <= v <= 2147483647
        else ((v + 2147483648) & 4294967295) - 2147483648
        for v in values
    ]


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` bits of ``value`` to a Python int."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def clog2(value: int) -> int:
    """Ceiling log2 for positive integers (clog2(1) == 0)."""
    if value <= 0:
        raise ValueError(f"clog2 requires a positive value, got {value}")
    return (value - 1).bit_length()


def bit_reverse(index: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``index``.

    Example: bit_reverse(0b001, 3) == 0b100 and bit_reverse(0b0011, 4) ==
    0b1100. Used for the FFT output reorder and the shuffle unit's
    bit-reversal mode.
    """
    if index < 0 or index >= (1 << bits):
        raise ValueError(f"index {index} out of range for {bits} bits")
    result = 0
    for _ in range(bits):
        result = (result << 1) | (index & 1)
        index >>= 1
    return result


@lru_cache(maxsize=32)
def bit_reverse_indices(n: int) -> tuple:
    """Bit-reversal permutation for a power-of-two length ``n`` (cached)."""
    if not is_power_of_two(n):
        raise ValueError(f"length must be a power of two, got {n}")
    bits = clog2(n)
    return tuple(bit_reverse(i, bits) for i in range(n))
