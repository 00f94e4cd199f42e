"""Bit I/O and exp-Golomb codes: exact codewords, round trips, error paths."""

import numpy as np
import pytest

from nbv import entropy
from nbv.entropy import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    _ITEM_MAX,
    BitReader,
    BitWriter,
    StreamError,
    _peek,
    read_ue_codes,
    se_to_ue,
    ue_decode,
    ue_encode,
    ue_lengths,
    ue_to_se,
    write_ue_codes,
)


def bits_of(data: bytes, n: int) -> str:
    return "".join(f"{b:08b}" for b in data)[:n]


def ue_bits(v: int) -> str:
    w = BitWriter()
    ue_encode(w, v)
    return bits_of(w.to_bytes(), w.bit_position)


def se_bits(v: int) -> str:
    return ue_bits(se_to_ue(v))


class TestBitWriter:
    def test_msb_first_packing(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bits(0b0110, 4)
        assert w.to_bytes() == bytes([0b10110110])

    def test_bit_position_tracks_writes(self):
        w = BitWriter()
        assert w.bit_position == 0
        w.write_bits(1, 1)
        assert w.bit_position == 1
        w.write_bits(0x1FFFF, 17)
        assert w.bit_position == 18

    def test_partial_byte_zero_padded_in_copy(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        assert w.to_bytes() == bytes([0b10100000])
        # to_bytes does not disturb the writer
        w.write_bits(0b11, 2)
        assert w.to_bytes() == bytes([0b10111000])

    def test_byte_align_pads_with_zeros(self):
        w = BitWriter()
        w.write_bits(1, 1)
        assert w.byte_align() == 7
        assert w.byte_align() == 0
        assert w.to_bytes() == bytes([0x80])

    def test_write_bytes_requires_alignment(self):
        w = BitWriter()
        w.write_bits(1, 3)
        with pytest.raises(StreamError):
            w.write_bytes(b"\x00")
        w.byte_align()
        w.write_bytes(b"\xab")
        assert w.to_bytes()[-1] == 0xAB

    def test_value_must_fit_bit_count(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(2, 1)
        with pytest.raises(ValueError):
            w.write_bits(-1, 8)
        with pytest.raises(ValueError):
            w.write_bits(0, 33)
        w.write_bits(0xFFFFFFFF, 32)
        assert w.to_bytes() == b"\xff\xff\xff\xff"


class TestBitReader:
    def test_reads_back_what_was_written(self):
        w = BitWriter()
        fields = [(0b1, 1), (0b0110, 4), (0xABCD, 16), (0xFFFFFFFF, 32), (0, 7)]
        for v, n in fields:
            w.write_bits(v, n)
        r = BitReader(w.to_bytes())
        for v, n in fields:
            assert r.read_bits(n) == v

    def test_read_past_end_raises(self):
        r = BitReader(b"\x00")
        r.read_bits(8)
        with pytest.raises(StreamError):
            r.read_bits(1)

    def test_read_bytes_requires_alignment(self):
        r = BitReader(b"\x12\x34")
        r.read_bits(3)
        with pytest.raises(StreamError):
            r.read_bytes(1)
        r.byte_align()
        assert r.read_bytes(1) == b"\x34"

    def test_bits_remaining(self):
        r = BitReader(b"\x00\x00")
        assert r.bits_remaining == 16
        r.read_bits(5)
        assert r.bits_remaining == 11


class TestUnsignedExpGolomb:
    def test_known_codewords(self):
        assert ue_bits(0) == "1"
        assert ue_bits(1) == "010"
        assert ue_bits(2) == "011"
        assert ue_bits(3) == "00100"
        assert ue_bits(4) == "00101"
        assert ue_bits(5) == "00110"
        assert ue_bits(6) == "00111"
        assert ue_bits(7) == "0001000"

    def test_length_formula(self):
        values = [0, 1, 2, 3, 7, 8, 100, 1 << 15, (1 << 16) - 1]
        for v, n in zip(values, ue_lengths(values).tolist()):
            assert n == 2 * (v + 1).bit_length() - 1 == len(ue_bits(v))

    def test_round_trip_exhaustive_16bit(self):
        w = BitWriter()
        for v in range(65536):
            ue_encode(w, v)
        r = BitReader(w.to_bytes())
        for v in range(65536):
            assert ue_decode(r) == v

    def test_prefix_free_concatenation(self):
        values = [0, 5, 1, 255, 0, 0, 70000, 3, 2, 1, 0, 999999]
        w = BitWriter()
        for v in values:
            ue_encode(w, v)
        r = BitReader(w.to_bytes())
        assert [ue_decode(r) for _ in values] == values

    def test_negative_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            ue_encode(w, -1)

    def test_32_zero_prefix_is_stream_error(self):
        r = BitReader(bytes(8))
        with pytest.raises(StreamError):
            ue_decode(r)

    def test_31_zero_prefix_still_decodes(self):
        w = BitWriter()
        w.write_bits(0, 31)
        w.write_bits(1, 1)
        w.write_bits(0, 31)
        r = BitReader(w.to_bytes())
        assert ue_decode(r) == (1 << 31) - 1


class TestSignedExpGolomb:
    def test_signed_to_unsigned_mapping(self):
        # 0 -> 0, positive v -> 2v-1, negative v -> -2v
        assert se_bits(0) == ue_bits(0)
        assert se_bits(1) == ue_bits(1)
        assert se_bits(-1) == ue_bits(2)
        assert se_bits(2) == ue_bits(3)
        assert se_bits(-2) == ue_bits(4)
        assert se_bits(3) == ue_bits(5)

    def test_length_matches_encoding(self):
        values = [-40000, -512, -3, -1, 0, 1, 2, 511, 32767]
        lengths = ue_lengths(se_to_ue(np.array(values)))
        assert lengths.tolist() == [len(se_bits(v)) for v in values]

    def test_round_trip_exhaustive_16bit(self):
        w = BitWriter()
        for v in range(-32768, 32768):
            ue_encode(w, se_to_ue(v))
        r = BitReader(w.to_bytes())
        for v in range(-32768, 32768):
            assert ue_to_se(ue_decode(r)) == v

    def test_mixed_stream_round_trip(self):
        values = [0, -1, 1, -32768, 32767, 12, -500]
        w = BitWriter()
        for v in values:
            ue_encode(w, se_to_ue(v))
            ue_encode(w, abs(v))
        r = BitReader(w.to_bytes())
        for v in values:
            assert ue_to_se(ue_decode(r)) == v
            assert ue_decode(r) == abs(v)


# 0, every 2^k - 2 (the longest code of each length) and 2^32 - 2, whose
# code has a 31-zero prefix
EDGE_VALUES = [0] + [(1 << k) - 2 for k in range(2, 33)]


def mixed_values(seed, n=3000):
    """Random ue values of every code length, short ones most often."""
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 1 << rng.integers(1, 33, n), dtype=np.int64)
    return [int(x) for x in v] + EDGE_VALUES


def read_all(r, n):
    """n ue values through the chunked bulk reader, one code per item."""
    got = []

    def walk(chunk):
        take = min(n - len(got), len(chunk.values))
        got.extend(chunk.values[:take].tolist())
        return take, len(got) == n

    read_ue_codes(r, walk)
    return got


class TestBulkCodes:
    """The bulk writer and reader against ue_encode and ue_decode."""

    def test_lengths_match_scalar(self):
        values = mixed_values(0)
        assert ue_lengths(values).tolist() == [len(ue_bits(v)) for v in values]

    @pytest.mark.parametrize("offset", range(8))
    def test_packing_equals_scalar_loop(self, offset):
        values = mixed_values(offset)
        scalar, bulk = BitWriter(), BitWriter()
        for w in (scalar, bulk):
            w.write_bits(0b1011011, 7)
            w.write_bits(0, offset)
        for v in values:
            ue_encode(scalar, v)
        written = write_ue_codes(bulk, values)
        assert written == sum(len(ue_bits(v)) for v in values)
        assert bulk.bit_position == scalar.bit_position
        assert bulk.to_bytes() == scalar.to_bytes()
        # the writer goes on from where the packed codes stopped
        for w in (scalar, bulk):
            w.write_bits(0b101, 3)
        assert bulk.to_bytes() == scalar.to_bytes()

    def test_packing_rejects_out_of_range(self):
        for bad in ([-1], [0, 0xFFFFFFFF]):
            with pytest.raises(ValueError):
                write_ue_codes(BitWriter(), bad)

    @pytest.mark.parametrize("offset", range(8))
    def test_reading_equals_ue_decode(self, offset):
        # about 80 kbit of codes: chunks grow from the smallest to the cap,
        # so codes straddle chunk ends of every size
        values = mixed_values(10 + offset)
        w = BitWriter()
        w.write_bits(0, offset)
        write_ue_codes(w, values)
        assert w.bit_position > _CHUNK_MAX
        data = w.to_bytes()
        r = BitReader(data)
        r.read_bits(offset)
        assert read_all(r, len(values)) == values
        assert r.bit_position == w.bit_position
        scalar = BitReader(data)
        scalar.read_bits(offset)
        assert [ue_decode(scalar) for _ in values] == values

    def test_every_window_holds_the_codes_that_fit(self):
        values = mixed_values(20, 200)
        w = BitWriter()
        w.write_bits(0, 5)
        for v in values:
            ue_encode(w, v)
        ends = np.cumsum([len(ue_bits(v)) for v in values])
        r = BitReader(w.to_bytes())
        r.read_bits(5)
        for size in list(range(1, 80)) + [500, 4099, _CHUNK_MAX]:
            chunk = _peek(r._data, r.bit_position, size)
            # the window ends at a byte boundary; codes ending before it fit
            fit = int(np.searchsorted(ends, (5 + size + 7) // 8 * 8 - 5, "right"))
            assert chunk.values.tolist() == values[:fit]
            assert chunk.ends.tolist() == ends[:fit].tolist()
        assert r.bit_position == 5  # peeking does not move the reader

    def test_32_zero_prefix_is_stream_error(self):
        w = BitWriter()
        write_ue_codes(w, [3, 0])
        w.write_bits(0, 32)
        w.write_bits(0xFFFFFFFF, 32)
        r = BitReader(w.to_bytes())
        chunk = _peek(r._data, r.bit_position, 1000)
        assert chunk.values.tolist() == [3, 0]
        assert chunk.error == "malformed exp-Golomb prefix"
        with pytest.raises(StreamError):
            read_all(BitReader(w.to_bytes()), 3)

    def test_31_zero_prefix_still_decodes(self):
        w = BitWriter()
        write_ue_codes(w, [(1 << 32) - 2, 5])
        assert w.bit_position == 63 + 5
        assert read_all(BitReader(w.to_bytes()), 2) == [(1 << 32) - 2, 5]

    def test_every_truncation_is_stream_error(self):
        values = [0, 7, 1 << 20, 3, 0, 0, 12, (1 << 32) - 2, 1, 64]
        w = BitWriter()
        write_ue_codes(w, values)
        data = w.to_bytes()
        for cut in range(len(data)):
            with pytest.raises(StreamError):
                read_all(BitReader(data[:cut]), len(values))
        assert read_all(BitReader(data), len(values)) == values

    def test_unused_codes_are_carried_not_peeked_again(self, monkeypatch):
        # a walk of three-code items leaves up to two codes per chunk
        values = mixed_values(30)[:3030]
        w = BitWriter()
        w.write_bits(0, 3)
        write_ue_codes(w, values)
        windows = []
        real_peek = entropy._peek

        def peek(data, pos, max_bits):
            chunk = real_peek(data, pos, max_bits)
            windows.append((pos, pos + (int(chunk.ends[-1]) if len(chunk.ends) else 0)))
            return chunk

        monkeypatch.setattr(entropy, "_peek", peek)
        got, left = [], []

        def walk(chunk):
            held = chunk.values.tolist()
            assert held[:len(left)] == left  # the unused codes come first
            take = len(held) - len(held) % 3
            got.extend(held[:take])
            left[:] = held[take:]
            return take, len(got) == len(values)

        r = BitReader(w.to_bytes())
        r.read_bits(3)
        read_ue_codes(r, walk)
        assert got == values and r.bit_position == w.bit_position
        # each window starts after the last whole code of the one before
        assert windows[0][0] == 3 and len(windows) > 3
        assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))

    def test_chunks_start_small(self):
        sizes = []

        def walk(chunk):
            sizes.append(len(chunk.values))
            return 0, True

        w = BitWriter()
        write_ue_codes(w, [0] * 10_000)
        read_ue_codes(BitReader(w.to_bytes()), walk)
        assert sizes == [_CHUNK_MIN]  # one bit per ue(0)

    @staticmethod
    def windows_seen(monkeypatch, walk, n_codes=200_000):
        """The window sizes read_ue_codes peeks for walk over n_codes
        ue(0) codes, and the error it ends in, or None."""
        sizes = []
        real_peek = entropy._peek

        def peek(data, pos, max_bits):
            sizes.append(max_bits)
            return real_peek(data, pos, max_bits)

        monkeypatch.setattr(entropy, "_peek", peek)
        w = BitWriter()
        write_ue_codes(w, np.zeros(n_codes, dtype=np.int64))
        try:
            read_ue_codes(BitReader(w.to_bytes()), walk)
        except StreamError as e:
            return sizes, str(e)
        return sizes, None

    def test_a_walk_that_uses_nothing_meets_the_item_cap(self, monkeypatch):
        sizes, error = self.windows_seen(monkeypatch, lambda chunk: (0, False))
        assert sizes == [1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16]
        assert _ITEM_MAX == 1 << 16
        assert error == "syntax item longer than the chunk cap"

    def test_a_walk_that_uses_codes_stays_within_the_ramp_cap(self, monkeypatch):
        read = []

        def walk(chunk):
            read.append(len(chunk.values))
            return len(chunk.values), sum(read) == 200_000

        sizes, error = self.windows_seen(monkeypatch, walk)
        assert error is None and len(sizes) > 6
        assert sizes[:4] == [1 << 10, 1 << 12, 1 << 14, _CHUNK_MAX]
        assert max(sizes) == _CHUNK_MAX

    def test_one_item_window_then_the_ramp_cap_again(self, monkeypatch):
        # items of 60,000 one-bit codes: the chunk with the first
        # _CHUNK_MAX window holds 54,272 codes, no whole item
        used = []

        def walk(chunk):
            take = len(chunk.values) // 60_000 * 60_000
            used.append(take)
            return take, sum(used) == 180_000

        sizes, error = self.windows_seen(monkeypatch, walk, 180_000)
        assert error is None
        assert used == [0, 0, 0, 0, 60_000, 60_000, 60_000]
        assert sizes == [1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16, 1 << 15, 1 << 15]

    def test_signed_mapping_on_ints_and_arrays(self):
        values = list(range(-300, 301)) + [-(1 << 31) + 1, (1 << 31) - 1]
        codes = [se_to_ue(v) for v in values]
        assert np.array_equal(se_to_ue(np.array(values)), codes)
        assert [ue_to_se(c) for c in codes] == values
        assert np.array_equal(ue_to_se(np.array(codes)), values)
