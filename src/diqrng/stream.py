"""The round stream and the bit stream: chunked draws, the sampling kernel and packed bits.

Every Monte Carlo path draws its rounds here, ``CHUNK_ROUNDS`` at a time, in
one fixed order: ``draw_cells`` draws each round's input cell and
``draw_codes`` turns cells into round codes with ``Scratch.measure``, the one
kernel.  The bits a run releases travel as ``PackedBits``, whose pieces are
blocks of the same ``CHUNK_ROUNDS`` bits.  ``as_bits``, ``bit_blocks`` and
``bit_counts`` read packed bits, 0/1 arrays and '0'/'1' text alike, and
``parse_bits`` is the one rule for that text.

Round and trial counts are checked by ``check_count`` against ``MAX_ROUNDS``,
the most an int64 tally can count.  This module imports nothing else from
the package.
"""

from __future__ import annotations

import copy
import numbers
from typing import Iterable, Iterator, Sequence

import numpy as np

CHUNK_ROUNDS = 1 << 16      # rounds per chunk of every full-length Monte Carlo draw
DRAW_VALUES = 1 << 13       # int64 values per piece of a chunked integer draw: 64 KB
MAX_ROUNDS = int(np.iinfo(np.int64).max)    # the most rounds or trials an int64 tally can count


def check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_rng(rng) -> None:
    """Reject an rng without the ``random`` method that every round's uniform comes from."""
    if not callable(getattr(rng, "random", None)):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")


def check_count(name: str, value, low: int = 0) -> None:
    """Reject a round or trial count that is not an integer in [low, ``MAX_ROUNDS``]."""
    check_integer(name, value)
    if not low <= value <= MAX_ROUNDS:
        raise ValueError(f"{name} must lie in [{low}, {MAX_ROUNDS}], got {value}")


def chunk_slices(n: int, size: int = CHUNK_ROUNDS) -> Iterator[slice]:
    """Consecutive slices of at most ``size`` rounds covering range(n)."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------

def count_bits(blocks: Iterable[np.ndarray]) -> tuple[int, int]:
    """The number of ones and of adjacent unequal pairs in consecutive blocks of 0/1 values."""
    ones = changes = 0
    last = None
    for block in blocks:
        if last is not None:
            changes += int(last != block[0])
        ones += int(np.count_nonzero(block))
        changes += int(np.count_nonzero(np.diff(block)))
        last = int(block[-1])
    return ones, changes


def bit_array(bits) -> np.ndarray:
    """0/1 values as a 1-D uint8 array; any other value, or an array that is not 1-D, raises ValueError."""
    arr = np.asarray(bits)
    if arr.dtype != np.uint8:
        if arr.dtype != np.bool_ and not ((arr == 0) | (arr == 1)).all():
            raise ValueError("bits must be 0/1 valued")
        arr = arr.astype(np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0/1 valued")
    return arr


def parse_bits(text: str | bytes) -> np.ndarray:
    """'0'/'1' text as a 1-D uint8 array of its bits; any other character raises ValueError.

    A character outside ASCII becomes '?' in a string, so it is rejected
    like any other, and the array has one value per character.
    """
    data = text.encode("ascii", "replace") if isinstance(text, str) else text
    bits = np.frombuffer(data, dtype=np.uint8) - ord("0")     # every other byte wraps past 1
    if bits.size and bits.max() > 1:
        raise ValueError("bit strings may contain only '0' and '1'")
    return bits


class PackedBits:
    """Bits appended piece by piece and held packed, one bit each, with each piece's count.

    Every piece but the last holds ``CHUNK_ROUNDS`` bits, so a piece
    unpacked is a block and the bits never need to be unpacked all at once.
    The pieces are read-only: ``append`` replaces a short last piece rather
    than writing to it.  ``drop`` gives a sealed copy that refuses
    ``append``, so its bits never change.  Two ``PackedBits`` are equal when
    they hold the same bits.
    """

    __hash__ = None     # equal by content, so not hashable

    def __init__(self, bits: np.ndarray | None = None) -> None:
        self._pieces: list[tuple[np.ndarray, int]] | tuple[tuple[np.ndarray, int], ...] = []
        self._counts = None     # ``counts()``, kept until the next ``append``
        self.size = 0
        if bits is not None:
            self.append(bits)

    def append(self, bits) -> None:
        """Append 0/1 values (see ``bit_array``), filling a short last piece first; sealed bits raise ValueError."""
        if isinstance(self._pieces, tuple):
            raise ValueError("sealed bits take no more bits")
        bits = bit_array(bits)
        self.size += bits.size
        self._counts = None
        if self._pieces and self._pieces[-1][1] < CHUNK_ROUNDS:
            packed, count = self._pieces.pop()
            bits = np.concatenate([np.unpackbits(packed, count=count), bits])
        for piece in chunk_slices(bits.size):
            packed = np.packbits(bits[piece])
            packed.setflags(write=False)
            self._pieces.append((packed, piece.stop - piece.start))

    def drop(self, n: int = 0) -> PackedBits:
        """A sealed copy of these bits past the first n (none by default); an n past the end drops every bit.

        It shares the pieces past n when n is a multiple of ``CHUNK_ROUNDS``
        and packs the bits past n anew otherwise.  A negative n raises ValueError.
        """
        if n < 0:
            raise ValueError(f"drop takes n >= 0 bits, got {n}")
        first, skip = divmod(min(n, self.size), CHUNK_ROUNDS)
        rest = PackedBits()
        if skip:
            for packed, count in self._pieces[first:]:
                rest.append(np.unpackbits(packed, count=count)[skip:])
                skip = 0
        else:
            rest._pieces, rest.size = self._pieces[first:], self.size - first * CHUNK_ROUNDS
        rest._pieces = tuple(rest._pieces)
        return rest

    def blocks(self) -> Iterator[np.ndarray]:
        """The bits in order, one unpacked piece per uint8 block; only the last may be short."""
        return (np.unpackbits(packed, count=count) for packed, count in self._pieces)

    def counts(self) -> tuple[int, int]:
        """The number of ones and of adjacent unequal pairs, from one pass over the blocks."""
        if self._counts is None:
            self._counts = count_bits(self.blocks())
        return self._counts

    def unpack(self, n: int | None = None) -> np.ndarray:
        """The first n bits, all of them by default, as one exact-size uint8 array; n must lie in [0, size]."""
        if n is not None and not 0 <= n <= self.size:
            raise ValueError(f"unpack takes n in [0, {self.size}] bits, got {n}")
        bits = np.empty(self.size if n is None else n, dtype=np.uint8)
        for start, block in zip(range(0, bits.size, CHUNK_ROUNDS), self.blocks()):
            bits[start : start + block.size] = block[: bits.size - start]
        return bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedBits):
            return NotImplemented
        return self.size == other.size and all(map(np.array_equal, self.blocks(), other.blocks()))


def as_bits(bits) -> np.ndarray | PackedBits:
    """``PackedBits`` as they are; '0'/'1' text by ``parse_bits`` and 0/1 values by ``bit_array``, as a 1-D uint8 array."""
    if isinstance(bits, PackedBits):
        return bits
    if isinstance(bits, str):
        return parse_bits(bits)
    return bit_array(bits)


def bit_blocks(bits: np.ndarray | PackedBits) -> Iterator[np.ndarray]:
    """The bits of an ``as_bits`` result in order, as uint8 blocks of ``CHUNK_ROUNDS`` bits.

    Only the last block may be shorter.
    """
    if isinstance(bits, PackedBits):
        return bits.blocks()
    return (bits[piece] for piece in chunk_slices(bits.size))


def bit_counts(bits: np.ndarray | PackedBits) -> tuple[int, int]:
    """The number of ones and of adjacent unequal pairs of an ``as_bits`` result, counted block by block.

    ``PackedBits`` keep their counts, so the entropy and the battery of the
    same packed bits count them once.
    """
    return bits.counts() if isinstance(bits, PackedBits) else count_bits(bit_blocks(bits))


# ---------------------------------------------------------------------------
# the draw loop
# ---------------------------------------------------------------------------

def skip_ahead(rng: np.random.Generator, n: int, low: int, high: int) -> np.random.Generator:
    """A copy of ``rng`` left where ``rng.integers(low, high, size=n)`` would leave it.

    The n draws are made and discarded piece by piece on the copy, as in
    ``add_integers``; ``rng`` itself does not move.  The copy then yields
    the block of draws that follows those n.
    """
    ahead = copy.deepcopy(rng)
    for piece in chunk_slices(n, DRAW_VALUES):
        ahead.integers(low, high, size=piece.stop - piece.start)
    return ahead


def add_integers(out: np.ndarray, rng: np.random.Generator, low: int, high: int, scale: int = 1) -> None:
    """``out += scale * rng.integers(low, high, size=out.size)``, with the same draws and end state.

    ``Generator.integers`` cannot write into a buffer, so the values are
    drawn ``DRAW_VALUES`` at a time.  A 64 KB piece stays under glibc's
    default 128 KB trim threshold: each freed piece is reused by the next
    one instead of being returned to the system and faulted back in.
    """
    for piece in chunk_slices(out.size, DRAW_VALUES):
        draw = rng.integers(low, high, size=piece.stop - piece.start)
        draw *= scale
        out[piece] += draw


def _streams(n: int, rng: np.random.Generator, ranges: Sequence) -> list[np.random.Generator]:
    """``rng``, then a copy of it moved past each drawing range's n values in turn."""
    streams = [rng]
    for low, high, _ in ranges:
        if high - low > 1:
            streams.append(skip_ahead(streams[-1], n, low, high))
    return streams


def _cells(n: int, ranges: Sequence, streams: list[np.random.Generator], out: np.ndarray) -> Iterator[np.ndarray]:
    """The cells of ``draw_cells``, each drawing range of ``ranges`` drawn from its stream of ``streams`` in turn."""
    fixed = sum(low * scale for low, high, scale in ranges if high - low == 1)
    drawn = [(low, high, scale) for low, high, scale in ranges if high - low > 1]
    for piece in chunk_slices(n, out.size):
        cell = out[: piece.stop - piece.start]
        cell.fill(fixed)
        for (low, high, scale), stream in zip(drawn, streams):
            add_integers(cell, stream, low, high, scale)
        yield cell


def draw_cells(n: int, rng: np.random.Generator, ranges: Sequence, out: np.ndarray) -> Iterator[np.ndarray]:
    """n cells in pieces of ``out.size``, each written into the head of ``out`` and overwritten by the next.

    The draw order of every Monte Carlo path.  A cell is the sum of ``scale *
    integers(low, high)`` over the (low, high, scale) ranges.  Each range
    draws all its n values, the first from ``rng`` and each later one from a
    copy of ``rng`` moved past the ranges before it; a Generator draws the
    same values in pieces as in one call.  A one-value range draws nothing,
    and no copy is moved past the last range that draws.
    """
    last = max((i for i, (low, high, _) in enumerate(ranges) if high - low > 1), default=0)
    return _cells(n, ranges, _streams(n, rng, ranges[:last]), out)


def draw_codes(n: int, rng: np.random.Generator, ranges: Sequence, threshold: np.ndarray) -> Iterator[np.ndarray]:
    """The round codes of n rounds from ``Scratch.measure``, ``DRAW_VALUES`` at a time in one reused buffer.

    The cells are drawn as ``draw_cells`` draws them from a copy of ``rng``,
    and the uniforms from ``rng`` moved past every cell draw, each range
    walked once: the one-call order.  ``rng`` is checked, and moved past the
    cell draws, before the first code is drawn.
    """
    check_rng(rng)
    scratch = Scratch(max(1, min(n, DRAW_VALUES)))
    streams = _streams(n, copy.deepcopy(rng), ranges)
    rng.bit_generator.state = streams[-1].bit_generator.state
    return (scratch.measure(cell, threshold, cell, rng)[0] for cell in _cells(n, ranges, streams, scratch.code))


def gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[index] along the first axis, written into the head of the reused buffer ``out``.

    Every index is in range.  ``mode="clip"`` keeps ``np.take`` from filling
    a hidden copy of ``out`` first, as its default ``mode="raise"`` does.
    """
    return np.take(values, index, axis=0, out=out[: index.size], mode="clip")


class Scratch:
    """One chunk's buffers, allocated once per call and reused by every chunk, and the one sampling kernel."""

    def __init__(self, rounds: int):
        size = min(rounds, CHUNK_ROUNDS)
        self.code = np.empty(size, dtype=np.int64)      # a chunk's cells, then its round codes
        self.index = np.empty(size, dtype=np.int64)     # threshold indices, when they are not the cells
        self.threshold = np.empty(size)
        self.uniform = np.empty(size)
        self.hit = np.empty(size, dtype=bool)
        self.branch = np.empty(size, dtype=np.uint8)

    def measure(
        self, cell: np.ndarray, threshold: np.ndarray, index: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw each round's branch and turn ``cell`` into the round codes (steps + 1)*cell + branch.

        The branch is the number of steps whose threshold[step, index] a fresh
        uniform from ``rng`` reaches: with one step, 1 - Pr[b = 1], it is the
        bit b of ``protocols.DevicePair``.  Returns (code, branch), the branch as uint8.
        """
        u = rng.random(out=self.uniform[: cell.size])
        branch = self.branch[: cell.size]
        np.greater_equal(u, gather(threshold[0], index, self.threshold), out=branch.view(bool))
        for row in threshold[1:]:
            branch += np.greater_equal(u, gather(row, index, self.threshold), out=self.hit[: cell.size])
        cell *= len(threshold) + 1
        cell += branch
        return cell, branch
