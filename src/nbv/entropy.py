"""Bit-exact bit I/O and exponential-Golomb codes.

Bit order is MSB-first within each byte. Zero padding to a byte boundary
happens only through explicit byte_align() calls at unit boundaries, so a
stream is a deterministic function of the write calls that produced it.

Header and region fields are coded one call at a time (ue_encode,
ue_decode and the se pair). A frame's block payloads, which are nothing but
exp-Golomb codes, are coded in bulk with numpy: write_ue_codes packs an
array of code numbers in one call, and read_ue_codes feeds the codes at a
reader's position to a structure walk, peeking windows of at most
_ITEM_MAX bits, each bit once.
Both produce and consume exactly the bits of the one-at-a-time calls; the
wire layout does not depend on which path wrote or reads it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class StreamError(Exception):
    """Malformed or truncated bitstream."""


class BitWriter:
    """Accumulates bits MSB-first into a growing byte buffer."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits, right-aligned
        self._nacc = 0  # number of pending bits, 0..7

    @property
    def bit_position(self) -> int:
        return len(self._buf) * 8 + self._nacc

    def write_bits(self, value: int, n: int) -> None:
        """Write the n low bits of value, most significant first."""
        if not 0 <= n <= 32:
            raise ValueError(f"bit count out of range: {n}")
        if value < 0 or (n < 32 and value >> n) or value >> 32:
            raise ValueError(f"value {value} does not fit in {n} bits")
        acc = (self._acc << n) | value
        nacc = self._nacc + n
        while nacc >= 8:
            nacc -= 8
            self._buf.append((acc >> nacc) & 0xFF)
        self._acc = acc & ((1 << nacc) - 1)
        self._nacc = nacc

    def write_bit_array(self, bits: np.ndarray) -> None:
        """Write an array of 0/1 values, first element first."""
        n = len(bits)
        packed = np.packbits(bits).tobytes()
        self._write_int(int.from_bytes(packed, "big") >> (-n % 8), n)

    def copy_bits(self, data: bytes, start: int, n: int) -> None:
        """Write the n bits of data that begin at bit start, as they are."""
        end = start + n
        if not 0 <= start <= end <= len(data) * 8:
            raise ValueError(f"bits {start}..{end} outside {len(data)} bytes")
        window = int.from_bytes(data[start >> 3:(end + 7) >> 3], "big")
        self._write_int((window >> (-end % 8)) & ((1 << n) - 1), n)

    def _write_int(self, value: int, n: int) -> None:
        """Write an integer of at most n bits as n bits, in bulk."""
        acc = (self._acc << n) | value
        nacc = self._nacc + n
        self._buf += (acc >> (nacc & 7)).to_bytes(nacc >> 3, "big")
        self._acc = acc & ((1 << (nacc & 7)) - 1)
        self._nacc = nacc & 7

    def byte_align(self) -> int:
        """Pad with zero bits to the next byte boundary; returns bits added."""
        pad = (-self._nacc) % 8
        if pad:
            self.write_bits(0, pad)
        return pad

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes; the writer must be byte-aligned."""
        if self._nacc:
            raise StreamError("writer not byte-aligned")
        self._buf.extend(data)

    def to_bytes(self) -> bytes:
        """Current contents; a trailing partial byte is zero-padded in the copy."""
        out = bytearray(self._buf)
        if self._nacc:
            out.append((self._acc << (8 - self._nacc)) & 0xFF)
        return bytes(out)


class BitReader:
    """Reads bits MSB-first from a byte buffer; reading past the end raises."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._nbits = len(data) * 8
        self._pos = 0

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def _take(self, n: int) -> int:
        """Move past the next n bits; returns them as one integer, MSB-first."""
        pos = self._pos
        if pos + n > self._nbits:
            raise StreamError("read past end of stream")
        self._pos = pos + n
        window = int.from_bytes(self._data[pos >> 3:(pos + n + 7) >> 3], "big")
        return (window >> (-(pos + n) % 8)) & ((1 << n) - 1)

    def read_bits(self, n: int) -> int:
        if not 0 <= n <= 32:
            raise ValueError(f"bit count out of range: {n}")
        return self._take(n)

    def read_bit_array(self, n: int) -> np.ndarray:
        """Read n bits as an array of 0/1 values, as write_bit_array wrote them."""
        packed = (self._take(n) << (-n % 8)).to_bytes((n + 7) >> 3, "big")
        return np.unpackbits(np.frombuffer(packed, np.uint8))[:n]

    def skip(self, n: int) -> None:
        """Move forward n bits."""
        if n < 0 or self._pos + n > self._nbits:
            raise StreamError("read past end of stream")
        self._pos += n

    def byte_align(self) -> int:
        """Skip to the next byte boundary; returns bits skipped."""
        pad = (-self._pos) % 8
        if pad:
            self.read_bits(pad)
        return pad

    def read_bytes(self, n: int) -> bytes:
        """Read raw bytes; the reader must be byte-aligned."""
        if self._pos & 7:
            raise StreamError("reader not byte-aligned")
        if n < 0 or self._pos + 8 * n > self._nbits:
            raise StreamError("read past end of stream")
        start = self._pos >> 3
        self._pos += 8 * n
        return bytes(self._data[start:start + n])


# Exp-Golomb codes. An unsigned value v maps to the codeword for v + 1:
# (bitlength - 1) zero bits, then the value itself including its leading 1.
# A prefix of 32 or more zeros cannot come from a valid encoder.

_UE_MAX = 0xFFFFFFFE
_MAX_ZEROS = 31


def ue_length(v: int) -> int:
    """Coded length in bits of ue(v)."""
    if v < 0 or v > _UE_MAX:
        raise ValueError(f"ue value out of range: {v}")
    return 2 * (v + 1).bit_length() - 1


def ue_lengths(values) -> np.ndarray:
    """Coded length in bits of ue(v) for each v of an integer array in range."""
    # frexp's exponent is the bit length of v + 1, exact below 2^53
    _, bit_length = np.frexp(np.asarray(values, dtype=np.int64) + 1.0)
    return 2 * bit_length.astype(np.int64) - 1


def ue_encode(w: BitWriter, v: int) -> None:
    if v < 0 or v > _UE_MAX:
        raise ValueError(f"ue value out of range: {v}")
    code = v + 1
    k = code.bit_length()
    w.write_bits(0, k - 1)
    w.write_bits(code, k)


def ue_decode(r: BitReader) -> int:
    # nine bytes from the reader's byte hold at least 65 bits from its
    # position, more than the longest code
    pos = r.bit_position
    window = r._data[pos >> 3:(pos >> 3) + 9]
    avail = 8 * len(window) - (pos & 7)
    bits = int.from_bytes(window, "big") & ((1 << avail) - 1)
    zeros = avail - bits.bit_length()
    if zeros > _MAX_ZEROS:
        raise StreamError("malformed exp-Golomb prefix")
    length = 2 * zeros + 1
    r.skip(length)  # past the end of the stream is a StreamError
    return (bits >> (avail - length)) - 1


def se_to_ue(v):
    """The ue code number of a signed value: 0, 1, -1, 2, -2 ... -> 0, 1, 2,
    3, 4 ...; works on ints and on integer arrays."""
    return 2 * abs(v) - (v > 0)


def ue_to_se(code):
    """Inverse of se_to_ue, on ints and on integer arrays."""
    return ((code + 1) >> 1) * (2 * (code & 1) - 1)


def se_length(v: int) -> int:
    """Coded length in bits of se(v)."""
    return ue_length(se_to_ue(v))


def se_encode(w: BitWriter, v: int) -> None:
    ue_encode(w, se_to_ue(v))


def se_decode(r: BitReader) -> int:
    return ue_to_se(ue_decode(r))


# Bulk codes. The writer packs about _CHUNK_MAX bits per numpy pass. The
# reader peeks windows of _CHUNK_MIN bits, each _RAMP times the last up to
# _CHUNK_MAX, so its scratch memory is bounded whatever the size of a frame,
# a small frame is read in one small window, and a large one in few: besides
# its work per bit, each window costs a fixed run of numpy calls, so the
# last window's overshoot past a frame's end is worth fewer windows. A frame
# payload's syntax item is a whole coded block, at most 127 + 24 x 2,189 =
# 52,663 bits (a mode symbol and two 63-bit vector codes, and 24 legal
# tiles), which can outgrow _CHUNK_MAX: a chunk whose _CHUNK_MAX window
# holds no whole item gets one window of _ITEM_MAX bits. Raising _CHUNK_MAX
# instead would widen every window of a large frame, and its scratch.

_CHUNK_MIN = 1 << 10
_CHUNK_MAX = 1 << 15
_ITEM_MAX = 1 << 16
_RAMP = 4
_BAD = 2 * _MAX_ZEROS + 1  # the byte automaton's malformed-prefix state


def _code_tables() -> tuple[list[bytes], np.ndarray]:
    """The byte automaton peek_ue_codes runs over a window.

    A state says where a byte's first bit falls in the chain of codes: 0 at
    a code start, z in 1..31 after z prefix zeros, 31 + m with m suffix
    bits still to come, _BAD after 32 zeros (a malformed prefix, which
    holds), and _BAD + k with k bits to pass over before the first code
    starts, for a window that starts inside a byte. Returns, per state, the
    state after each byte value (as a bytes row) and the (state, byte) mask
    of the byte's bits at which a code starts, most significant bit first.
    """
    state = np.repeat(np.arange(_BAD + 8), 256)
    byte = np.tile(np.arange(256), _BAD + 8)
    starts = np.zeros_like(state)
    for i in range(7, -1, -1):
        one = (byte >> i) & 1 == 1
        starts |= (state == 0) << i
        prefix = state <= _MAX_ZEROS
        state = np.where(
            prefix,
            np.where(one, np.where(state == 0, 0, state + _MAX_ZEROS),
                     np.where(state == _MAX_ZEROS, _BAD, state + 1)),
            # the suffix and the skip count down to a code start
            np.where(state == _BAD, _BAD,
                     np.where((state == _MAX_ZEROS + 1) | (state == _BAD + 1),
                              0, state - 1)))
    rows = state.reshape(-1, 256).astype(np.uint8)
    return [row.tobytes() for row in rows], starts.reshape(-1, 256).astype(np.uint8)


_NEXT_STATE, _CODE_STARTS = _code_tables()


def write_ue_codes(w: BitWriter, values) -> int:
    """Write ue(v) for each v of an integer array, in order; returns bits written."""
    v = np.asarray(values, dtype=np.int64).reshape(-1)
    if not v.size:
        return 0
    if v.min() < 0 or v.max() > _UE_MAX:
        raise ValueError("ue value out of range")
    lengths = ue_lengths(v)
    ends = np.cumsum(lengths)
    cuts = np.searchsorted(ends, np.arange(_CHUNK_MAX, ends[-1], _CHUNK_MAX))
    for lo, hi in zip((0, *cuts), (*cuts, v.size)):
        # the codeword of v is v + 1 right-aligned in ue_length(v) bits;
        # bit b of the slice is bit (end of its code - 1 - b) of that value
        n = lengths[lo:hi]
        shifts = (np.repeat(ends[lo:hi], n)
                  - np.arange(ends[lo] - n[0] + 1, ends[hi - 1] + 1))
        bits = (np.repeat(v[lo:hi] + 1, n) >> shifts) & 1
        w.write_bit_array(bits.astype(np.uint8))
    return int(ends[-1])


class UeChunk(NamedTuple):
    """The exp-Golomb codes that lie wholly in a window of a stream."""

    values: np.ndarray  # int64 ue values, in stream order
    ends: np.ndarray  # int64 bit offset after each code, from the window start
    error: str | None  # why no further code can follow, or None if more bits may


def peek_ue_codes(r: BitReader, max_bits: int) -> UeChunk:
    """The chain of ue codes that starts at r's position and lies wholly in
    its next max_bits bits, without moving r. The chain stops at the first
    code that runs past the window or has a prefix of 32 or more zeros.

    The window runs to the end of the byte that holds its last bit. One
    table step a byte finds where each byte's first bit falls in the chain
    (_code_tables), so the cost is linear in the window whatever its codes;
    the code starts and values then come from numpy passes over the bits.
    read_ue_codes peeks windows of _CHUNK_MIN to _ITEM_MAX bits, and every
    syntax item of a frame payload, a whole block of at most 52,663 bits,
    fits in one.
    """
    return _peek(r._data, r.bit_position, max_bits)


def _peek(data: bytes, pos: int, max_bits: int) -> UeChunk:
    first, skew = pos >> 3, pos & 7
    stop = min(len(data), first + (skew + max_bits + 7) // 8)
    size = stop - first
    n = 8 * size
    # eight zero bytes past the window give every code a 64-bit view below
    raw = np.zeros(size + 8, dtype=np.uint8)
    raw[:size] = np.frombuffer(data, dtype=np.uint8, count=size, offset=first)
    rows = _NEXT_STATE
    s = entry = _BAD + skew if skew else 0
    after = bytes([s := rows[s][b] for b in data[first:stop]])
    entering = np.frombuffer(bytes([entry]) + after[:-1], dtype=np.uint8)
    starts = np.flatnonzero(np.unpackbits(_CODE_STARTS[entering, raw[:size]]).view(bool))
    # a code ends where the next one starts; the last one ends at the
    # window's end only if the state there is a code start
    ends = starts[1:]
    if s == 0 and len(starts):
        ends = np.append(ends, n)
    starts = starts[:len(ends)]
    error = None
    if s == _BAD:
        error = "malformed exp-Golomb prefix"
    elif stop == len(data):
        error = "read past end of stream"
    # v + 1 is the zeros + 1 bits from the leading 1: shift them to the top
    # of the big-endian 64 bits from the byte that holds it, then down
    zeros = (ends - starts - 1) >> 1
    lead = starts + zeros
    windows = np.ndarray((size + 1,), dtype=">u8", buffer=raw, strides=(1,))
    values = windows.astype(np.uint64)[lead >> 3]
    values <<= (lead & 7).astype(np.uint64)
    values >>= (63 - zeros).astype(np.uint64)
    values = values.view(np.int64)
    values -= 1
    return UeChunk(values, ends - skew, error)


def read_ue_codes(r: BitReader, walk) -> None:
    """Feed the ue codes at r's position to a structure walk, chunk by chunk.

    walk(chunk) takes a UeChunk and returns (used, done): how many codes it
    consumed, whole syntax items only, and whether its structure is
    complete. r moves past the used codes. While the walk is not done, the
    next chunk holds the codes it left unused, then the whole codes of the
    next window past them, and the walk resumes where it stopped.

    Window policy: the first window is _CHUNK_MIN bits and each next one
    _RAMP times the last, up to _CHUNK_MAX; a chunk whose _CHUNK_MAX
    window holds no whole item gets one window of _ITEM_MAX bits, and the
    windows after a used one are _CHUNK_MAX again. Each bit is peeked once,
    and the last window runs at most _ITEM_MAX bits past the walk's end, so
    the cost is linear in the bits read. An item of at most _ITEM_MAX bits
    always fits; a frame payload's items, whole blocks, take at most
    52,663. StreamError when the walk needs a code that no further bits
    can complete, and when a chunk with a window of _ITEM_MAX bits holds
    no whole item.
    """
    size = _CHUNK_MIN
    values = ends = np.empty(0, dtype=np.int64)  # codes peeked, not used
    while True:
        held = int(ends[-1]) if len(ends) else 0
        chunk = _peek(r._data, r.bit_position + held, size)
        if held:
            chunk = UeChunk(np.concatenate((values, chunk.values)),
                            np.concatenate((ends, held + chunk.ends)), chunk.error)
        used, done = walk(chunk)
        spent = int(chunk.ends[used - 1]) if used else 0
        r.skip(spent)
        if done:
            return
        if chunk.error is not None:
            raise StreamError(chunk.error)
        if not used and size == _ITEM_MAX:
            raise StreamError("syntax item longer than the chunk cap")
        values, ends = chunk.values[used:], chunk.ends[used:] - spent
        size = (_ITEM_MAX if not used and size == _CHUNK_MAX
                else min(_RAMP * size, _CHUNK_MAX))
