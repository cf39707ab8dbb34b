"""Shared low-level helpers: fixed-point arithmetic, bit tricks, tables."""

from repro.utils.bits import (
    bit_reverse,
    bit_reverse_indices,
    clog2,
    is_power_of_two,
    sign_extend,
    to_signed32,
    to_unsigned32,
)
from repro.utils.fixed_point import (
    FX_FRAC_BITS,
    Q15_MAX,
    Q15_MIN,
    float_to_fx,
    float_to_q15,
    fx_mul,
    fx_to_float,
    q15_add_sat,
    q15_mul,
    sat32,
    wrap32,
)

__all__ = [
    "bit_reverse",
    "bit_reverse_indices",
    "clog2",
    "is_power_of_two",
    "sign_extend",
    "to_signed32",
    "to_unsigned32",
    "FX_FRAC_BITS",
    "Q15_MAX",
    "Q15_MIN",
    "float_to_fx",
    "float_to_q15",
    "fx_mul",
    "fx_to_float",
    "q15_add_sat",
    "q15_mul",
    "sat32",
    "wrap32",
]
