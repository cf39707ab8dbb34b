"""Fixed-point arithmetic used by the VWR2A datapath and the CPU baselines.

Two formats matter in the paper:

* **16.15** — the RC multiplier's fixed-point mode (Sec. 3.1): the 64-bit
  product of two 32-bit operands is shifted right by 15... precisely, "the
  lower 16 bits are discarded, and the next 32 bits are kept". With operands
  interpreted as Q16.15 (1 sign + 16 integer + 15 fraction bits held in a
  32-bit word), discarding 16 bits of the Q32.30 product and keeping the next
  32 yields a Q17.14 value; the hardware convention (and ours) is that the
  product is pre-shifted left by one so the result is again Q16.15. The
  net effect is ``(a * b) >> 15`` truncated into 32 bits.
* **q15** — CMSIS-DSP's 16-bit format used by the Cortex-M4 baselines.

The datapath wraps (two's complement) like the synthesized ALU would; the
CMSIS-style helpers saturate like the ARM DSP instructions do.
"""

from __future__ import annotations

from repro.utils.bits import to_signed32

#: Fraction bits of the RC multiplier's fixed-point mode (16.15 format).
FX_FRAC_BITS = 15

Q15_MIN = -(1 << 15)
Q15_MAX = (1 << 15) - 1

_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1


def wrap32(value: int) -> int:
    """Wrap ``value`` into signed 32-bit two's-complement range."""
    return to_signed32(value)


def sat32(value: int) -> int:
    """Saturate ``value`` into signed 32-bit range."""
    if value > _INT32_MAX:
        return _INT32_MAX
    if value < _INT32_MIN:
        return _INT32_MIN
    return value


def fx_mul(a: int, b: int) -> int:
    """16.15 fixed-point multiply, the RC multiplier's fixed-point mode.

    Both operands and the result are signed 32-bit words holding Q16.15
    values. The full product is arithmetically shifted right by 15 and
    wrapped into 32 bits (overflow wraps, as a plain synthesized multiplier
    would).
    """
    return wrap32((a * b) >> FX_FRAC_BITS)


def float_to_fx(value: float) -> int:
    """Convert a float to the RC 16.15 fixed-point representation."""
    return wrap32(int(round(value * (1 << FX_FRAC_BITS))))


def fx_to_float(value: int) -> float:
    """Convert a 16.15 fixed-point word back to float."""
    return to_signed32(value) / float(1 << FX_FRAC_BITS)


def q15_sat(value: int) -> int:
    """Saturate into q15 range, as ARM ``SSAT #16`` does."""
    if value > Q15_MAX:
        return Q15_MAX
    if value < Q15_MIN:
        return Q15_MIN
    return value


def q15_add_sat(a: int, b: int) -> int:
    """Saturating q15 addition (CMSIS ``__QADD16`` behaviour per lane)."""
    return q15_sat(a + b)


def q15_mul(a: int, b: int) -> int:
    """q15 x q15 -> q15 multiply with rounding, as CMSIS-DSP computes it."""
    return q15_sat((a * b + (1 << 14)) >> 15)


def float_to_q15(value: float) -> int:
    """Convert a float in [-1, 1) to q15 (saturating)."""
    return q15_sat(int(round(value * (1 << 15))))

