"""Unit tests for the simulator's passive components."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alu import alu_execute
from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters
from repro.core.shuffle import shuffle
from repro.core.spm import Scratchpad
from repro.core.srf import ScalarRegisterFile
from repro.core.vwr import VeryWideRegister
from repro.isa.fields import ShuffleMode
from repro.isa.rc import RCOp
from repro.soc.sram import BankedSram
from repro.utils.bits import bit_reverse, clog2, to_signed32

int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)

#: Host values a write path may be handed: wide ints, the int32 edges
#: and their neighbours, and bools.
host_values = st.one_of(
    st.integers(-(2**40), 2**40),
    st.sampled_from([-(2**31) - 1, -(2**31), 2**31 - 1, 2**31, 2**32 - 1,
                     2**32, -1, 0]),
    st.booleans(),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=st.lists(host_values, min_size=1, max_size=16))
def test_every_host_write_path_stores_to_signed32(values):
    """Each storage cell holds exactly ``to_signed32`` of what the host
    wrote (a Python int, never a bool): the int32 invariant the
    compiler's operand-range rule relies on."""
    n = len(values)
    pairs = list(enumerate(values))
    ev = EventCounters()

    def srf():
        return ScalarRegisterFile(n, ev)

    def vwr():
        return VeryWideRegister("A", n, ev)

    def spm():
        return Scratchpad(1, n, ev)

    paths = {
        "srf.write": (srf, lambda m: [m.write(i, v) for i, v in pairs]),
        "srf.poke": (srf, lambda m: [m.poke(i, v) for i, v in pairs]),
        "srf.poke_many": (srf, lambda m: m.poke_many(dict(pairs))),
        "vwr.write_word": (vwr,
                           lambda m: [m.write_word(i, v) for i, v in pairs]),
        "vwr.write_wide": (vwr, lambda m: m.write_wide(values)),
        "vwr.poke": (vwr, lambda m: [m.poke(i, v) for i, v in pairs]),
        "spm.write_word": (spm,
                           lambda m: [m.write_word(i, v) for i, v in pairs]),
        "spm.write_line": (spm, lambda m: m.write_line(0, values)),
        "spm.write_words": (spm, lambda m: m.write_words(0, values)),
        "spm.poke_words": (spm, lambda m: m.poke_words(0, values)),
        "sram.write_word": (BankedSram,
                            lambda m: [m.write_word(i, v) for i, v in pairs]),
        "sram.write_words": (BankedSram, lambda m: m.write_words(0, values)),
        "sram.poke_words": (BankedSram, lambda m: m.poke_words(0, values)),
    }
    expected = [to_signed32(v) for v in values]
    for path, (make, write) in paths.items():
        memory = make()
        write(memory)
        if isinstance(memory, ScalarRegisterFile):
            cells = [memory.peek(i) for i in range(n)]
        elif isinstance(memory, VeryWideRegister):
            cells = memory.peek_all()
        else:
            cells = memory.peek_words(0, n)
        assert cells == expected, path
        assert all(type(v) is int for v in cells), path


class TestEvents:
    def test_add_get_diff(self):
        ev = EventCounters()
        ev.add("x", 3)
        snap = ev.snapshot()
        ev.add("x")
        ev.add("y", 2)
        assert ev.get("x") == 4
        assert ev.diff(snap) == {"x": 1, "y": 2}

    def test_merge(self):
        a, b = EventCounters(), EventCounters()
        a.add("x", 1)
        b.add("x", 2)
        a.merge(b)
        assert a.get("x") == 3


class TestAlu:
    @given(int32s, int32s)
    def test_results_stay_32_bit(self, a, b):
        for op in RCOp:
            if op is RCOp.NOP:
                continue
            r = alu_execute(op, a, b)
            assert -(2**31) <= r <= 2**31 - 1

    def test_basic_semantics(self):
        assert alu_execute(RCOp.SADD, 2**31 - 1, 1) == -(2**31)  # wraps
        assert alu_execute(RCOp.SSUB, 0, 1) == -1
        assert alu_execute(RCOp.SMUL, 3, -7) == -21
        assert alu_execute(RCOp.FXPMUL, 1 << 15, 12345) == 12345
        assert alu_execute(RCOp.SRA, -8, 1) == -4
        assert alu_execute(RCOp.SRL, -1, 28) == 15
        assert alu_execute(RCOp.SLL, 1, 31) == -(2**31)
        assert alu_execute(RCOp.LNOT, 0, 0) == -1
        assert alu_execute(RCOp.SMAX, -3, 5) == 5
        assert alu_execute(RCOp.SMIN, -3, 5) == -3
        assert alu_execute(RCOp.MOV, 42, 99) == 42

    @given(int32s, st.integers(0, 31))
    def test_sra_matches_python(self, a, sh):
        assert alu_execute(RCOp.SRA, a, sh) == a >> sh


class TestVwr:
    def test_word_and_wide_access(self):
        ev = EventCounters()
        v = VeryWideRegister("t", 8, ev)
        v.write_word(3, -5)
        assert v.read_word(3) == -5
        assert ev.get(Ev.VWR_WORD_WRITE) == 1
        v.write_wide(list(range(8)))
        assert v.read_wide() == list(range(8))
        assert ev.get(Ev.VWR_WIDE_WRITE) == 1

    def test_bounds(self):
        v = VeryWideRegister("t", 8, EventCounters())
        with pytest.raises(AddressError):
            v.read_word(8)
        with pytest.raises(AddressError):
            v.write_wide([0] * 7)


class TestSrf:
    def test_rw_and_bounds(self):
        s = ScalarRegisterFile(8, EventCounters())
        s.write(0, 123)
        assert s.read(0) == 123
        with pytest.raises(AddressError):
            s.read(8)


class TestSpm:
    def test_line_roundtrip(self):
        ev = EventCounters()
        spm = Scratchpad(4, 8, ev)
        spm.write_line(2, list(range(8)))
        assert spm.read_line(2) == list(range(8))
        assert spm.read_word(2 * 8 + 3) == 3
        assert ev.get(Ev.SPM_WIDE_READ) == 1

    def test_bounds(self):
        spm = Scratchpad(4, 8, EventCounters())
        with pytest.raises(AddressError):
            spm.read_line(4)
        with pytest.raises(AddressError):
            spm.write_word(32, 1)
        with pytest.raises(AddressError):
            spm.poke_words(30, [1, 2, 3])


class TestShuffle:
    WIDTH = 16

    def _ab(self):
        a = list(range(self.WIDTH))
        b = list(range(100, 100 + self.WIDTH))
        return a, b

    def test_interleave(self):
        a, b = self._ab()
        lo = shuffle(a, b, ShuffleMode.INTERLEAVE_LO)
        hi = shuffle(a, b, ShuffleMode.INTERLEAVE_HI)
        full = lo + hi
        assert full[0::2] == a and full[1::2] == b

    def test_prune_inverts_interleave(self):
        a, b = self._ab()
        lo = shuffle(a, b, ShuffleMode.INTERLEAVE_LO)
        hi = shuffle(a, b, ShuffleMode.INTERLEAVE_HI)
        evens = shuffle(lo, hi, ShuffleMode.ODD_PRUNE)
        odds = shuffle(lo, hi, ShuffleMode.EVEN_PRUNE)
        assert evens == a and odds == b

    def test_bitrev(self):
        a, b = self._ab()
        concat = a + b
        bits = clog2(2 * self.WIDTH)
        lo = shuffle(a, b, ShuffleMode.BITREV_LO)
        hi = shuffle(a, b, ShuffleMode.BITREV_HI)
        expected = [concat[bit_reverse(i, bits)]
                    for i in range(2 * self.WIDTH)]
        assert lo + hi == expected

    def test_cshift(self):
        a, b = self._ab()
        concat = a + b
        lo = shuffle(a, b, ShuffleMode.CSHIFT_LO, slice_words=4)
        hi = shuffle(a, b, ShuffleMode.CSHIFT_HI, slice_words=4)
        expected = [concat[(i - 4) % (2 * self.WIDTH)]
                    for i in range(2 * self.WIDTH)]
        assert lo + hi == expected

    @given(st.sampled_from(list(ShuffleMode)),
           st.lists(int32s, min_size=8, max_size=8),
           st.lists(int32s, min_size=8, max_size=8))
    def test_shuffle_is_permutation_of_inputs(self, mode, a, b):
        out = shuffle(a, b, mode, slice_words=2)
        assert len(out) == 8
        pool = a + b
        for value in out:
            assert value in pool

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            shuffle([1, 2], [1], ShuffleMode.EVEN_PRUNE)
