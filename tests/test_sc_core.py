"""Stream generation and gate-level arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arsc.sc_core
from arsc.sc_core import (
    ALTERNATE_TAPS,
    MAXIMAL_TAPS,
    BitStream,
    LfsrConfig,
    MultiplierCheck,
    UnsignedFixed,
    and_multiply,
    cbsc_multiply,
    lfsr_states_array,
    prefix_ones,
    prefix_ones_table,
    sng_conventional,
    sng_deterministic,
    stream_to_binary,
    unary_gen,
    verify_multiplier,
)


def lfsr_step(state: int, cfg: LfsrConfig) -> int:
    """The register one cycle on, bit by bit: the XOR of the tap bits shifts in.
    The oracle of ``lfsr_states_array``'s next-state table."""
    feedback = 0
    for tap in cfg.taps:
        feedback ^= (state >> (tap - 1)) & 1
    return ((state << 1) | feedback) & ((1 << cfg.width) - 1)


def lfsr_states(cfg: LfsrConfig, count: int) -> list[int]:
    """``count`` successive ``lfsr_step`` states, starting from the seed."""
    states = [cfg.seed]
    while len(states) < count:
        states.append(lfsr_step(states[-1], cfg))
    return states[:count]


def _seed_configs(width: int) -> list[LfsrConfig]:
    """Both tap sets at the seed classes the tests use: seed 1, the top state, and
    seeds folded as verify-mul folds them."""
    size = 1 << width
    seeds = {1, size - 1, (1000 - 1) % (size - 1) + 1, ((1000 ^ 0x5A5A5A) - 1) % (size - 1) + 1}
    return [LfsrConfig(width, taps, seed) for taps in (MAXIMAL_TAPS[width], ALTERNATE_TAPS[width])
            for seed in sorted(seeds)]


class TestLfsr:
    def test_width3_full_cycle_enumerated(self):
        # hand-enumerated 7-state cycle for taps (3, 2), seed 1
        cfg = LfsrConfig(3)
        assert lfsr_states(cfg, 8) == [1, 2, 5, 3, 7, 6, 4, 1]

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            LfsrConfig(3, seed=0)

    @pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS))
    def test_maximal_period(self, width):
        cfg = LfsrConfig(width)
        state = 1
        for _ in range((1 << width) - 1):
            state = lfsr_step(state, cfg)
        assert state == 1

    @pytest.mark.parametrize("width", sorted(ALTERNATE_TAPS))
    def test_alternate_taps_maximal_period(self, width):
        cfg = LfsrConfig(width, ALTERNATE_TAPS[width])
        state = 1
        for _ in range((1 << width) - 1):
            state = lfsr_step(state, cfg)
        assert state == 1

    def test_any_state_returns_after_period(self):
        cfg = LfsrConfig(5)
        for start in (1, 7, 19, 31):
            state = start
            for _ in range((1 << 5) - 1):
                state = lfsr_step(state, cfg)
            assert state == start

    @pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS))
    def test_states_array_matches_scalar_walk(self, width):
        # the seed classes the tests use, and taps that are not primitive
        size = 1 << width
        cfgs = _seed_configs(width)
        cfgs += [LfsrConfig(width, taps, seed) for taps, seed in [((3, 2, 1), 7), ((4,), 5),
                                                                  ((6, 3), 1)] if taps[0] == width]
        for cfg in cfgs:
            for count in (0, 1, 5, size + 3):
                got = lfsr_states_array(cfg, count)
                assert got.dtype == np.intp, cfg
                assert got.tolist() == lfsr_states(cfg, count), (cfg, count)

    def test_bad_configs(self):
        with pytest.raises(ValueError):
            LfsrConfig(2)
        with pytest.raises(ValueError):
            LfsrConfig(11)  # widths 3..10, those verify-mul runs
        with pytest.raises(ValueError):
            LfsrConfig(4, taps=(3, 2))  # missing the degree itself
        with pytest.raises(ValueError):
            LfsrConfig(4, seed=16)


# bit i of a stream is bit i of its word, so a word literal lists the bits last first
class TestBitStream:
    def test_length_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BitStream(3, 0)
        with pytest.raises(ValueError):
            BitStream(1, 0)

    def test_word_within_length(self):
        with pytest.raises(ValueError, match="^stream word has bits beyond the stated length$"):
            BitStream(4, 16)


class TestUnsignedFixed:
    def test_width_at_least_one(self):
        with pytest.raises(ValueError, match="^width must be >= 1, got 0$"):
            UnsignedFixed(0, 0)

    def test_raw_at_most_unit(self):
        assert UnsignedFixed(3, 8).raw == 8  # 1.0, legal for scaled weights
        with pytest.raises(ValueError, match="^raw 9 out of range for 3-bit magnitude$"):
            UnsignedFixed(3, 9)


class TestConventionalSng:
    def test_zero_gives_all_zeros(self):
        s = sng_conventional(UnsignedFixed(3, 0), 8, LfsrConfig(3))
        assert s.word == 0

    def test_max_raw_has_single_zero(self):
        # seed-1 states are 1..7 plus one wrap; 0 never appears so the
        # comparator misses only the single state equal to 2**n - 1
        s = sng_conventional(UnsignedFixed(3, 7), 8, LfsrConfig(3))
        assert s.word == 0b11101111
        assert s.popcount == 7

    def test_fixed_seed_mid_value(self):
        s = sng_conventional(UnsignedFixed(3, 4), 8, LfsrConfig(3))
        assert abs(s.popcount / 8 - 0.5) <= 1 / 8

    def test_deterministic(self):
        cfg = LfsrConfig(6, seed=11)
        x = UnsignedFixed(6, 23)
        assert sng_conventional(x, 64, cfg) == sng_conventional(x, 64, cfg)

    def test_errors(self):
        with pytest.raises(ValueError, match="^stream length must be a power of two >= 2, got 6$"):
            sng_conventional(UnsignedFixed(3, 1), 6, LfsrConfig(3))
        with pytest.raises(ValueError):
            sng_conventional(UnsignedFixed(4, 1), 8, LfsrConfig(3))
        # length 2, the shortest power of two accepted: the seed 1 is below 2, state 2 is not
        assert sng_conventional(UnsignedFixed(3, 2), 2, LfsrConfig(3)) == BitStream(2, 0b01)

    @pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS))
    def test_comparator_over_stepped_states(self, width):
        # bit i is 1 iff the stepper's i-th state is below x, for every x, also past
        # one period: a stream of length 2**(n+2) spans more than four periods
        size = 1 << width
        for cfg in _seed_configs(width):
            for length in (2, size, 4 * size):
                at = [0] * size  # at[s]: the stream bits where the state is s
                for i, state in enumerate(lfsr_states(cfg, length)):
                    at[state] |= 1 << i
                word = 0  # the bits whose state is below x
                for x in range(size):
                    got = sng_conventional(UnsignedFixed(width, x), length, cfg)
                    assert got == BitStream(length, word), (cfg, length, x)
                    word |= at[x]


class TestDeterministicSng:
    def test_placement_example_n3(self):
        assert sng_deterministic(UnsignedFixed(3, 5)).word == 0b01011101

    def test_placement_example_n2(self):
        assert sng_deterministic(UnsignedFixed(2, 3)).word == 0b0111

    def test_zero(self):
        assert sng_deterministic(UnsignedFixed(4, 0)).word == 0

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            sng_deterministic(UnsignedFixed(3, 8))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structure_exhaustive(self, n):
        # popcount equals the operand, final bit is zero, and input bit
        # x_{n-i} sits exactly at 1-indexed positions 2**(i-1) + k*2**i
        size = 1 << n
        for raw in range(size):
            s = sng_deterministic(UnsignedFixed(n, raw))
            assert s.popcount == raw
            assert (s.word >> (size - 1)) & 1 == 0
            for i in range(1, n + 1):
                bit = (raw >> (n - i)) & 1
                pos = 1 << (i - 1)
                while pos <= size:
                    assert (s.word >> (pos - 1)) & 1 == bit
                    pos += 1 << i

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=60)
    def test_popcount_property(self, n, data):
        raw = data.draw(st.integers(0, (1 << n) - 1))
        assert sng_deterministic(UnsignedFixed(n, raw)).popcount == raw


class TestUnaryGen:
    def test_shapes(self):
        assert unary_gen(0, 8).word == 0
        assert unary_gen(8, 8).word == 0xFF
        assert unary_gen(3, 8).word == 0b00000111

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unary_gen(9, 8)
        with pytest.raises(ValueError):
            unary_gen(-1, 8)


class TestGates:
    def test_and_identity_and_annihilator(self):
        a = BitStream(4, 0b0101)
        ones = BitStream(4, 0b1111)
        zeros = BitStream(4, 0)
        assert and_multiply(a, ones) == a
        assert and_multiply(a, zeros) == zeros

    def test_and_example(self):
        a = BitStream(4, 0b0101)
        b = BitStream(4, 0b0011)
        assert and_multiply(a, b).word == 0b0001

    def test_and_errors(self):
        a = BitStream(2, 0b01)
        with pytest.raises(ValueError):
            and_multiply(a, BitStream(4, 0b0101))

    def test_counter_readout(self):
        assert stream_to_binary(BitStream(4, 0b1101)) == 3
        assert stream_to_binary(BitStream(4, 0)) == 0


class TestCbscMultiply:
    def test_example_n3(self):
        # prefix 1,0,1,1 of the x=5 stream
        assert cbsc_multiply(UnsignedFixed(3, 5), 4) == (3, 4)

    def test_zero_weight(self):
        assert cbsc_multiply(UnsignedFixed(3, 5), 0) == (0, 0)

    def test_unit_weight_recovers_operand(self):
        for n in (3, 6, 8):
            for raw in (0, 1, (1 << n) - 1, (1 << n) // 3):
                assert cbsc_multiply(UnsignedFixed(n, raw), 1 << n).product == raw

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError, match=r"^scaled weight 9 out of range 0\.\.8$"):
            cbsc_multiply(UnsignedFixed(3, 5), 9)

    def test_unit_operand_refused(self):
        # raw = 2**n is legal for a weight, but no stream encodes 1.0
        with pytest.raises(ValueError, match=r"^operand must be < 1\.0$"):
            cbsc_multiply(UnsignedFixed(3, 8), 0)

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=100)
    def test_gate_level_identity(self, n, data):
        raw = data.draw(st.integers(0, (1 << n) - 1))
        w = data.draw(st.integers(0, 1 << n))
        x = UnsignedFixed(n, raw)
        gate = stream_to_binary(and_multiply(sng_deterministic(x), unary_gen(w, 1 << n)))
        assert cbsc_multiply(x, w).product == gate

    @pytest.mark.parametrize("n", range(3, 9))
    def test_monotonicity_exhaustive(self, n):
        size = 1 << n
        for x in range(size):
            prev = -1
            for w in range(size + 1):
                p = prefix_ones(x, n, w)
                assert p >= prev
                prev = p
        for w in range(size + 1):
            prev = -1
            for x in range(size):
                p = prefix_ones(x, n, w)
                assert p >= prev
                prev = p

    @pytest.mark.parametrize("n", range(3, 11))
    def test_array_form_matches_scalar_exhaustive(self, n):
        size = 1 << n
        got = prefix_ones_table(n, np.arange(size + 1))
        want = [[prefix_ones(x, n, w) for w in range(size + 1)] for x in range(size)]
        assert got.tolist() == want

    @pytest.mark.parametrize("n", [14])
    def test_table_dtype_holds_every_count(self, n):
        # int16 up to width 14, so the top rows never wrap
        counts = [0, 1, 3, (1 << n) - 1, 1 << n]
        raws = [0, 1, (1 << n) // 3, (1 << n) - 2, (1 << n) - 1]
        table = prefix_ones_table(n, np.array(counts))
        assert table.shape == (1 << n, len(counts)) and table.dtype == np.int16
        assert table[raws].tolist() == [[prefix_ones(x, n, w) for w in counts] for x in raws]

    @pytest.mark.parametrize("n", [15, 16])
    def test_table_refuses_widths_above_14(self, n):
        # a count of 2**15 or more would wrap int16
        with pytest.raises(ValueError, match=f"width {n} above 14"):
            prefix_ones_table(n, np.array([0, 1 << n]))


def deterministic_streams(width: int) -> np.ndarray:
    """``sng_deterministic`` of every raw value 0..2**width-1 at once.

    Row x, column c-1 of the ``(2**width, 2**width)`` int16 result holds the
    bit emitted at cycle c: x_{width-1-ctz(c)}, and 0 on the last cycle,
    where ctz(c) = width. The width+1 distinct columns are built once and
    gathered by ctz with one ``np.take``.
    """
    size = 1 << width
    cycle = np.arange(1, size + 1)
    ctz = np.log2(cycle & -cycle).astype(np.intp)  # exact: cycle & -cycle is 2**ctz
    columns = np.zeros((size, width + 1), dtype=np.int16)
    columns[:, :width] = (np.arange(size)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    return np.take(columns, ctz, axis=1)


def conventional_and_counts(cfg_x: LfsrConfig, cfg_w: LfsrConfig) -> np.ndarray:
    """AND-popcounts of two ``sng_conventional`` streams for every operand pair.

    Entry [x, w] of the ``(2**n, 2**n)`` int32 result equals
    ``stream_to_binary(and_multiply(sng_conventional(x, 2**n, cfg_x),
    sng_conventional(w, 2**n, cfg_w)))``, i.e. #{i : sx_i < x and sw_i < w}
    over the first 2**n states of each LFSR. It is the 2D prefix sum of the
    occupancy grid of (sx_i, sw_i), shifted by one so the bounds are strict;
    int32 holds every count up to 2**10 (the widest LFSR).
    """
    if cfg_x.width != cfg_w.width:
        raise ValueError(f"LFSR widths differ: {cfg_x.width} vs {cfg_w.width}")
    size = 1 << cfg_x.width
    sx, sw = lfsr_states_array(cfg_x, size), lfsr_states_array(cfg_w, size)
    grid = np.zeros((size + 1, size + 1), dtype=np.int32)
    np.add.at(grid, (sx + 1, sw + 1), 1)
    for v in range(1, size):  # np.cumsum down axis 0 would stride through memory
        grid[v] += grid[v - 1]
    return grid.cumsum(axis=1, out=grid)[:size, :size]


def _full_array_check(n, cfg_x, cfg_w, product=None):
    """verify_multiplier's record from whole (2**n, 2**n + 1) int64 arrays, for the
    product table ``product`` (default ``prefix_ones_table``)."""
    size = 1 << n
    gate = np.zeros((size, size + 1), dtype=np.int64)
    np.cumsum(deterministic_streams(n), axis=1, out=gate[:, 1:])
    if product is None:
        product = prefix_ones_table(n, np.arange(size + 1))
    product = product.astype(np.int64)
    xw = np.multiply.outer(np.arange(size), np.arange(size + 1))
    cbsc = np.abs(product * size - xw)
    conv = np.abs(conventional_and_counts(cfg_x, cfg_w) * size - xw[:, :size])
    return MultiplierCheck(product.size, int(np.count_nonzero(product != gate)),
                           int(cbsc.max()), int(cbsc.sum()), int(conv.sum()))


def _folded_configs(n, seed):
    """The two LFSR configs verify-mul builds for width n from ``seed``."""
    size = 1 << n
    return (LfsrConfig(n, seed=(seed - 1) % (size - 1) + 1),
            LfsrConfig(n, ALTERNATE_TAPS[n], seed=((seed ^ 0x5A5A5A) - 1) % (size - 1) + 1))


def _scalar_and_counts(cfg_x, cfg_w):
    """AND-popcounts of every pair of scalar ``sng_conventional`` streams."""
    size = 1 << cfg_x.width
    sx = [sng_conventional(UnsignedFixed(cfg_x.width, x), size, cfg_x) for x in range(size)]
    sw = [sng_conventional(UnsignedFixed(cfg_w.width, w), size, cfg_w) for w in range(size)]
    return [[stream_to_binary(and_multiply(a, b)) for b in sw] for a in sx]


class TestArrayBuilders:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_deterministic_streams_match_scalar(self, n):
        streams = deterministic_streams(n)
        assert streams.shape == (1 << n, 1 << n)
        for x, row in enumerate(streams):
            word = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            assert word == sng_deterministic(UnsignedFixed(n, x)).word, (n, x)

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("seed", [1, 2, 1000])
    def test_conventional_counts_match_scalar(self, n, seed):
        # the seed folded into each register's nonzero range as verify-mul does;
        # seeds 2 and 1000 start both generators away from seed 1's states
        cfg_x, cfg_w = _folded_configs(n, seed)
        assert conventional_and_counts(cfg_x, cfg_w).tolist() == _scalar_and_counts(cfg_x, cfg_w)

    @pytest.mark.parametrize("taps,seed_x,seed_w", [((3, 2, 1), 7, 3), ((4,), 5, 9),
                                                    ((6, 3), 1, 40)])
    def test_conventional_counts_with_repeated_states(self, taps, seed_x, seed_w):
        # taps that are not primitive revisit states within 2**n cycles: (3, 2, 1)
        # holds state 7 forever, (4,) rotates, x**6 + x**3 + 1 has period 9
        n = taps[0]
        cfg_x, cfg_w = LfsrConfig(n, taps, seed_x), LfsrConfig(n, taps, seed_w)
        assert max(np.bincount(lfsr_states(cfg_x, 1 << n))) > 2
        counts = conventional_and_counts(cfg_x, cfg_w)
        assert counts.dtype == np.int32 and counts.tolist() == _scalar_and_counts(cfg_x, cfg_w)

    def test_conventional_counts_width_mismatch(self):
        with pytest.raises(ValueError):
            conventional_and_counts(LfsrConfig(4), LfsrConfig(5))


def _edited_table_mismatches(monkeypatch, edit, n=10):
    """Mismatches verify_multiplier finds at width n when ``edit`` changes its product
    table in place; the whole record must equal the oracle's on the same table."""

    def edited(width, count):
        table = prefix_ones_table(width, count)
        edit(table)
        return table

    monkeypatch.setattr(arsc.sc_core, "prefix_ones_table", edited)
    cfgs = _folded_configs(n, 1)
    got = verify_multiplier(*cfgs)
    assert got == _full_array_check(n, *cfgs, product=edited(n, np.arange((1 << n) + 1)))
    return got.mismatches


class TestVerifyMultiplier:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_full_array_oracle(self, n):
        for seed in (1, 2, 7, 0, -5, 123456):
            cfgs = _folded_configs(n, seed)
            assert verify_multiplier(*cfgs) == _full_array_check(n, *cfgs), seed

    @pytest.mark.parametrize("rows", [1, 2, 8, 1 << 11])
    def test_block_rows_do_not_change_records(self, monkeypatch, rows):
        want = [_full_array_check(n, *_folded_configs(n, 7)) for n in (3, 6, 10)]
        monkeypatch.setattr(arsc.sc_core, "VERIFY_ROWS", rows)
        assert [verify_multiplier(*_folded_configs(n, 7)) for n in (3, 6, 10)] == want

    @pytest.mark.parametrize("rows", [1, 2, 64])
    @pytest.mark.parametrize("taps,seed_x,seed_w", [((3, 2, 1), 7, 3), ((4,), 5, 9),
                                                    ((6, 3), 1, 40)])
    def test_repeated_states_span_chunks(self, monkeypatch, rows, taps, seed_x, seed_w):
        # (3, 2, 1) holds state 7 forever, so all 8 samples fall in the last block
        n = taps[0]
        cfg_x, cfg_w = LfsrConfig(n, taps, seed_x), LfsrConfig(n, taps, seed_w)
        monkeypatch.setattr(arsc.sc_core, "VERIFY_ROWS", rows)
        assert verify_multiplier(cfg_x, cfg_w) == _full_array_check(n, cfg_x, cfg_w)

    @pytest.mark.parametrize("x,w", [(0, 0), (5, 9), (64, 1024), (1023, 0), (1023, 1024)])
    def test_each_perturbed_entry_counted_once(self, monkeypatch, x, w):
        # first and last rows and columns, inside and across block edges
        real = arsc.sc_core.prefix_ones_table

        def perturbed(width, count):
            out = real(width, count)
            out[x, w] += 1
            return out

        monkeypatch.setattr(arsc.sc_core, "prefix_ones_table", perturbed)
        assert verify_multiplier(*_folded_configs(10, 1)).mismatches == 1

    # the product table is checked by its per-cycle increments and its w = 0 column;
    # each edit below must still be counted entry by entry, as the oracle counts it

    @pytest.mark.parametrize("n", [3, 10])
    def test_exact_table_sums_no_row(self, monkeypatch, n):
        # the gate counts are summed only for rows whose increments fail the check:
        # an exact table sums no row, and a block with none skips the sum
        summed, cumsum = [], np.cumsum

        def spy(a, *args, **kwargs):
            summed.append(len(a))
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", spy)
        assert verify_multiplier(*_folded_configs(n, 1)).mismatches == 0
        assert not any(summed)

    @pytest.mark.parametrize("x", [0, 77, 1023])
    def test_whole_row_offset(self, monkeypatch, x):
        # every increment still equals the emitted bit; only P[x, 0] != 0 shows the row
        def edit(table):
            table[x] += 1

        assert _edited_table_mismatches(monkeypatch, edit) == 1025

    @pytest.mark.parametrize("k", [1, 2, 511, 512, 1024])
    def test_step_from_w_on(self, monkeypatch, k):
        def edit(table):
            table[77, k:] += 1

        assert _edited_table_mismatches(monkeypatch, edit) == 1025 - k

    @pytest.mark.parametrize("a,b", [(3, 4), (3, 700), (0, 1024)])
    def test_two_perturbations_in_one_row(self, monkeypatch, a, b):
        def edit(table):
            table[300, a] += 1
            table[300, b] -= 1

        assert _edited_table_mismatches(monkeypatch, edit) == 2

    def test_wrapping_rows(self, monkeypatch):
        # entries near +-32767, where the int16 increments wrap: row 600 wraps
        # negative from w = 100 on, row 601 alternates 32767 and -32768 (increments
        # +-1 after wrapping), row 602 is offset so that its w = 0 entry alone shows it
        def edit(table):
            table[600, 100:] += 32767
            table[601, 1::2], table[601, 2::2] = 32767, -32768
            table[602] += 32760

        assert _edited_table_mismatches(monkeypatch, edit) == (1025 - 100) + 1024 + 1025

    @pytest.mark.parametrize("rows", [1, 64, 1 << 11])
    def test_error_rows_past_int32(self, monkeypatch, rows):
        # the first and the last row err by about 2**25 per entry, so each of their error
        # sums passes 2**31 and wraps if its block is summed in int32 rows
        monkeypatch.setattr(arsc.sc_core, "VERIFY_ROWS", rows)

        def edit(table):
            table[0] += 30000
            table[1023] -= 30000

        def errors(edit):
            table = prefix_ones_table(10, np.arange(1025)).astype(np.int64)
            edit(table)
            return np.abs(table * 1024 - np.multiply.outer(np.arange(1024), np.arange(1025)))

        assert (errors(edit)[[0, 1023]].sum(axis=1) > 1 << 31).all()
        assert _edited_table_mismatches(monkeypatch, edit) == 2 * 1025

        # row 0 at 2048 errs by 2**21 at every w, and the rest of its block by far less:
        # the guard's top * (2**10 + 1) = 2**31 + 2**21 lies in [2**31, 2**32), and so
        # does row 0's sum. A guard at 2**32, or at top * (2**10 - 1), sums it in int32
        # and wraps. 2**10 + 1 is odd and above 1, so top * (2**10 + 1) is never 2**31
        # itself, and "<=" in place of "<" picks the same type
        def row0(table):
            table[0] = 2048

        err = errors(row0)
        assert err[0].tolist() == [1 << 21] * 1025 and err[1:].max() < 1 << 12
        assert 1 << 31 < int(err[0].sum()) == (1 << 31) + (1 << 21) < 1 << 32
        assert _edited_table_mismatches(monkeypatch, row0) == 1025

    @pytest.mark.parametrize("shift", [1, -1])
    def test_rows_of_streams_one_cycle_off(self, monkeypatch, shift):
        # each row counts its own stream one cycle late or early, so its increments
        # equal the stream's bits at the neighbouring cycle, not at their own
        rows = [1, 300, 1023]

        def edit(table):
            moved = np.roll(deterministic_streams(10)[rows], shift, axis=1)
            table[rows, 1:] = np.cumsum(moved, axis=1)

        assert _edited_table_mismatches(monkeypatch, edit) > 0

    @pytest.mark.parametrize("rows", [1, 2, 8, 1 << 11])
    def test_edits_in_first_and_last_blocks(self, monkeypatch, rows):
        monkeypatch.setattr(arsc.sc_core, "VERIFY_ROWS", rows)

        def edit(table):
            table[0] += 1
            table[1, 1:] -= 1
            table[1022, 1023] += 1
            table[1023, 600:] += 1

        assert _edited_table_mismatches(monkeypatch, edit) == 1025 + 1024 + 1 + 425

    def test_bad_widths_refused(self):
        with pytest.raises(ValueError, match="LFSR widths 4, 5 differ"):
            verify_multiplier(LfsrConfig(4), LfsrConfig(5))
