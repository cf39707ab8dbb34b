"""Staging DMA against a word-by-word oracle.

``Dma.to_spm`` / ``Dma.from_spm`` check each span once and move the data
as one slice copy; with ``order=`` (a gather) they read their addresses
in one pass. Every transfer here runs twice on identical platforms — once
through the DMA, once through an oracle written from the memories'
single-word ports (``read_word`` / ``write_word``) — and memory contents,
event deltas and cycles must match, in both directions, contiguous and
gathered.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AddressError, ConfigurationError
from repro.core.events import Ev
from repro.kernels import KernelRunner
from repro.soc.platform import BiosignalSoC

_SOC = BiosignalSoC()
_SOC.with_accelerators()
WPB = _SOC.sram.words_per_bank
SPM_SIZE = _SOC.vwr2a.spm.n_words
SRAM_SIZE = _SOC.sram.n_words
_RNG = random.Random(11)
SRAM_WORDS = [
    _RNG.randint(-2**31, 2**31 - 1) for _ in range(_SOC.sram.n_words)
]
SPM_WORDS = [_RNG.randint(-2**31, 2**31 - 1) for _ in range(SPM_SIZE)]
del _SOC, _RNG
#: Random-transfer examples (``FUZZ_EXAMPLES`` raises it for the long
#: profile, as for the generated-program fuzzers).
EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "25"))


def _platform() -> BiosignalSoC:
    """A platform whose SRAM and SPM hold distinct seeded int32 words."""
    soc = BiosignalSoC()
    soc.with_accelerators()
    soc.sram.poke_words(0, SRAM_WORDS)
    soc.vwr2a.spm.poke_words(0, SPM_WORDS)
    return soc


def _oracle_cycles(soc, n_words: int) -> int:
    """The transfer's DMA/bus charge, as ``Dma`` defines it."""
    if n_words == 0:
        return 0
    dma = soc.vwr2a.dma
    soc.events.add(Ev.DMA_SETUP)
    soc.events.add(Ev.DMA_BEAT, n_words)
    return dma.setup_cycles + dma.bus.burst_cycles(n_words)


def _oracle_to_spm(soc, src_words, dst_word: int) -> int:
    spm = soc.vwr2a.spm
    for offset, addr in enumerate(src_words):
        spm.write_word(dst_word + offset, soc.sram.read_word(addr))
    return _oracle_cycles(soc, len(src_words))


def _oracle_from_spm(soc, src_words, dst_word: int) -> int:
    spm = soc.vwr2a.spm
    for offset, addr in enumerate(src_words):
        soc.sram.write_word(dst_word + offset, spm.read_word(addr))
    return _oracle_cycles(soc, len(src_words))


def _transfer(direction, contiguous, src, dst, n_or_order):
    """(DMA call, oracle call) for one transfer on a platform."""
    if contiguous:
        words = list(range(src, src + n_or_order))
    else:
        words = [src + index for index in n_or_order]
    order = None if contiguous else n_or_order
    if direction == "in":
        def dma(soc):
            return soc.vwr2a.dma.to_spm(soc.sram, src, dst, len(words), order)
        return dma, lambda soc: _oracle_to_spm(soc, words, dst)

    def dma(soc):
        return soc.vwr2a.dma.from_spm(soc.sram, src, dst, len(words), order)
    return dma, lambda soc: _oracle_from_spm(soc, words, dst)


def _state(soc) -> tuple:
    return (
        soc.sram.peek_words(0, soc.sram.n_words),
        soc.vwr2a.spm.snapshot(),
        soc.events.snapshot(),
    )


def assert_matches_oracle(direction, contiguous, src, dst, n_or_order):
    dma, oracle = _transfer(direction, contiguous, src, dst, n_or_order)
    fast, slow = _platform(), _platform()
    cycles = dma(fast)
    expected = oracle(slow)
    assert cycles == expected
    fast_sram, fast_spm, fast_events = _state(fast)
    slow_sram, slow_spm, slow_events = _state(slow)
    assert fast_events == slow_events
    assert fast_spm == slow_spm
    assert fast_sram == slow_sram


@pytest.mark.parametrize("direction", ["in", "out"])
@pytest.mark.parametrize("src, dst, n", [
    pytest.param(5, 130, 300, id="within-a-bank"),
    pytest.param(WPB - 37, 0, 100, id="sram-bank-boundary"),
    pytest.param(0, 7, 0, id="zero-length"),
    pytest.param(0, 0, 1, id="one-word"),
])
def test_contiguous_transfer_matches_word_by_word(direction, src, dst, n):
    if direction == "out":
        # SPM -> SRAM: the span that straddles a bank is the destination.
        src, dst = dst, src
    assert_matches_oracle(direction, True, src, dst, n)


@pytest.mark.parametrize("direction", ["in", "out"])
@pytest.mark.parametrize("base, order", [
    pytest.param(64, list(reversed(range(200))), id="reversed"),
    pytest.param(WPB - 8, [15, 0, 3, 3, 9, 15, 1], id="repeats-across-banks"),
    pytest.param(3, [], id="zero-length"),
])
def test_gather_matches_word_by_word(direction, base, order):
    if direction == "in":
        assert_matches_oracle(direction, False, base, 256, order)
    else:
        # SPM -> SRAM: the gather reads the SPM, the write straddles banks.
        assert_matches_oracle(direction, False, 100, WPB - 4, order)


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(
    direction=st.sampled_from(["in", "out"]),
    contiguous=st.booleans(),
    src=st.integers(0, 2 * WPB),
    dst=st.integers(0, SPM_SIZE - 64),
    order=st.lists(st.integers(0, 63), max_size=64),
)
def test_random_transfers_match_word_by_word(
    direction, contiguous, src, dst, order
):
    n_or_order = len(order) if contiguous else order
    if direction == "out":
        src, dst = dst, src
    assert_matches_oracle(direction, contiguous, src, dst, n_or_order)


@pytest.mark.parametrize("direction", ["in", "out"])
@pytest.mark.parametrize("order", [
    pytest.param(list(reversed(range(200))), id="reversed"),
    pytest.param([15, 0, 3, 3, 9, 15, 1], id="repeats"),
    pytest.param([7], id="one-word"),
    pytest.param([], id="zero-length"),
])
def test_tuple_gather_matches_list_gather(direction, order):
    """A tuple order (planned once and kept) moves the same words and
    charges the same events as the same order given as a list, on every
    repeat."""
    src, dst = (WPB - 8, 256) if direction == "in" else (100, WPB - 4)
    for _ in range(2):
        for given in (list(order), tuple(order)):
            assert_matches_oracle(direction, False, src, dst, given)


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(
    direction=st.sampled_from(["in", "out"]),
    src=st.integers(0, 2 * WPB),
    dst=st.integers(0, SPM_SIZE - 64),
    order=st.lists(st.integers(0, 63), max_size=64),
)
def test_random_tuple_gathers_match_word_by_word(direction, src, dst, order):
    if direction == "out":
        src, dst = dst, src
    assert_matches_oracle(direction, False, src, dst, tuple(order))


@pytest.mark.parametrize("direction", ["in", "out"])
def test_tuple_gather_past_the_memory_names_the_first_bad_address(
    direction,
):
    order = (2, 9, 5, 12, 0)
    if direction == "in":   # the gather reads the SRAM past its end
        src, dst, name, size = SRAM_SIZE - 10, 0, "SRAM", SRAM_SIZE
    else:                   # the gather reads the SPM past its end
        src, dst, name, size = SPM_SIZE - 10, 40, "SPM", SPM_SIZE
    dma, oracle = _transfer(direction, False, src, dst, order)
    fast, slow = _platform(), _platform()
    for _ in range(2):
        message = _errors(lambda: dma(fast))
        assert message == _errors(lambda: oracle(slow))
    assert message.startswith(
        f"{name} word address {size + 2} out of range"
    )


def _errors(call) -> str:
    with pytest.raises(AddressError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("direction", ["in", "out"])
@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("case", [
    "spm-out-of-range", "spm-negative", "sram-gated",
])
def test_failing_span_names_the_first_bad_address(direction, contiguous, case):
    spm_at, sram_at, n = 0, 40, 10
    if case == "spm-out-of-range":
        spm_at = SPM_SIZE - 4
    elif case == "spm-negative":
        spm_at = -3
    src, dst = (sram_at, spm_at) if direction == "in" else (spm_at, sram_at)
    if case == "sram-gated":
        src, dst = (WPB - 3, 0) if direction == "in" else (0, WPB - 3)
    n_or_order = n if contiguous else list(range(n))
    dma, oracle = _transfer(direction, contiguous, src, dst, n_or_order)
    fast, slow = _platform(), _platform()
    if case == "sram-gated":
        for soc in (fast, slow):
            soc.sram.set_bank_power(1, False)
    message = _errors(lambda: dma(fast))
    assert message == _errors(lambda: oracle(slow))
    first_bad = {
        "spm-out-of-range": f"SPM word address {SPM_SIZE} out of range",
        "spm-negative": "SPM word address -3 out of range",
        "sram-gated": f"SRAM bank 1 is power-gated; address {WPB} ",
    }[case]
    assert message.startswith(first_bad)


@pytest.mark.parametrize("direction", ["in", "out"])
def test_negative_length_transfer_raises(direction):
    soc = BiosignalSoC()
    soc.with_accelerators()
    before = soc.events.snapshot()
    transfer = soc.dma_to_vwr2a if direction == "in" else soc.dma_from_vwr2a
    with pytest.raises(AddressError, match="negative transfer length -5"):
        transfer(0, 0, -5)
    assert soc.events.snapshot() == before


@pytest.mark.parametrize("direction", ["in", "out"])
def test_gather_order_must_cover_the_transfer(direction):
    soc = BiosignalSoC()
    soc.with_accelerators()
    before = soc.events.snapshot()
    transfer = soc.dma_to_vwr2a if direction == "in" else soc.dma_from_vwr2a
    with pytest.raises(AddressError, match="gather order of 3 words for a "
                                           "4-word transfer"):
        transfer(0, 0, 4, order=[2, 1, 0])
    assert soc.events.snapshot() == before


def _stage(runner, direction, order):
    """Stage four words in or out; returns the DMA cycles."""
    if direction == "in":
        return runner.stage_in([5, -6, 7, 8], 0, order=order)
    return runner.stage_out(0, 4, order=order)[1]


@pytest.mark.parametrize("direction", ["in", "out"])
def test_gathers_take_the_one_soc_route(direction):
    gather = [3, 0, 2, 3]
    # Gated accelerator domain: a gather is refused like a contiguous
    # transfer, before any word moves or any event is charged.
    errors = []
    for order in (None, gather):
        runner = KernelRunner()
        runner.soc.without_accelerators()
        before = runner.soc.events.snapshot()
        with pytest.raises(ConfigurationError) as info:
            _stage(runner, direction, order)
        errors.append(str(info.value))
        assert runner.soc.events.snapshot() == before
        assert runner.staging_cycles == {"in": 0, "out": 0}
    assert errors[0] == errors[1]
    # Powered: a gather raises the DMA-done flag and the CPU sleeps
    # through it, like a contiguous transfer.
    for order in (None, gather):
        runner = KernelRunner()
        soc = runner.soc
        sleep = soc.cpu.sleep_cycles
        assert not soc.vwr2a.synchronizer.irq_pending
        cycles = _stage(runner, direction, order)
        assert cycles > 0
        assert soc.vwr2a.synchronizer.irq_pending
        assert soc.cpu.sleep_cycles == sleep + cycles


class TestRunnerAllocator:
    def test_negative_allocation_is_refused(self):
        runner = KernelRunner()
        with pytest.raises(ConfigurationError, match="negative size"):
            runner.sram_alloc(-1)
        assert runner.sram_alloc(0) == 0

    def test_negative_stage_out_is_refused(self):
        runner = KernelRunner()
        before = runner.soc.events.snapshot()
        with pytest.raises(ConfigurationError, match="negative size"):
            runner.stage_out(0, -3)
        assert runner.soc.events.snapshot() == before
        assert runner.staging_cycles == {"in": 0, "out": 0}
        assert runner.sram_alloc(4) == 0
