"""Deterministic derivation of independent random streams.

Every stochastic routine in the package takes an explicit generator, and
parallel or repeated work derives its generator from a root seed plus a
content path.  The derivation rule is:

    stream(root, *path) = PCG64(SeedSequence(root, spawn_key=encode(path)))

where ``encode`` maps each path element to a 64-bit word: integers are used
as-is (offset into the non-negative range), strings are hashed with SHA-256
and truncated.  Two streams with different paths are statistically
independent, and the mapping is stable across processes and platforms, so
parallel and serial executions of the same experiment consume identical
random numbers.

``streams(root, *path)`` is the batched form: a part of its path may be an
integer array, one stream per entry, and it yields ``stream(root, *row)``
for each row, bit for bit.  It runs numpy's ``SeedSequence`` mixing as uint32
array arithmetic over many rows at once and hands each row's seed words to
``PCG64`` through a minimal ``ISeedSequence``.  ``tests/test_seeding.py`` pins
both against numpy itself, so a numpy that changes either fails there
before it moves an output.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

_WORD = 1 << 63

CHUNK_ROWS = 1024  # rows whose seed words are derived in one batch

# numpy's SeedSequence: pool size, hash constants and shift.
_POOL = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _encode(part: int | str) -> int:
    if isinstance(part, bool):
        raise TypeError("boolean seed-path elements are ambiguous")
    if isinstance(part, int):
        if part < -_WORD or part >= _WORD:
            raise ValueError(f"seed-path integer out of range: {part}")
        return part + _WORD if part < 0 else part
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream addressed by ``path`` under ``root``."""
    seq = np.random.SeedSequence(entropy=root, spawn_key=tuple(_encode(p) for p in path))
    return np.random.Generator(np.random.PCG64(seq))


def _words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative integer, least
    significant first; zero is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of SeedSequence's hash constant, which
    starts at ``init`` and is multiplied by ``mult`` after each use."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value[..., j]`` at the hash constant
    ``consts[j]``; ``consts`` holds one more entry, the constant after the
    last use."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> _XSHIFT)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of each row of an
    ``(rows, words)`` uint32 matrix of assembled entropy, as ``(rows, 4)``
    uint64: the pool mixing and the state generation, each step one array
    operation over the rows."""
    rows, n = entropy.shape
    extra = max(n - _POOL, 0)
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + extra * _POOL + 1)
    pool = np.zeros((rows, _POOL), dtype=np.uint32)  # entropy shorter than the pool mixes 0s
    pool[:, : min(n, _POOL)] = entropy[:, :_POOL]
    pool = _hashmix(pool, a[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):  # mix every pool word into every other one
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a[k : k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, n):  # then each remaining entropy word into every pool word
        pool = _mix(pool, _hashmix(entropy[:, src, None], a[k : k + _POOL + 1]))
        k += _POOL
    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # paired little-end first.
    state = _hashmix(np.tile(pool, 2), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1))
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The four PCG64 seed words of one row, derived in a batch."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("batched seed words serve only PCG64's generate_state(4, uint64)")
        return self.words


def streams(root: int, *path: int | str | np.ndarray) -> Iterator[np.random.Generator]:
    """``stream(root, *row)`` for each row of ``path``, in order and bit for bit.

    Each part of ``path`` is a string, an int, or a 1-D integer array with
    entries in ``[0, 2**32)``: the arrays, all of one length, are columns,
    one row per index, and a path of scalars alone is one row.  Seed words
    are derived ``CHUNK_ROWS`` rows at a time and each generator is built when
    it is asked for, so memory stays bounded however many rows there are.
    """
    if root < 0:
        raise ValueError(f"root seed must be non-negative, not {root}")
    words = _words(root)
    if path:  # SeedSequence pads a root shorter than its pool with 0s before a spawn key
        words += [0] * (_POOL - len(words))
    columns, sizes = {}, {}  # entropy word -> its array part; part index -> length
    for index, part in enumerate(path):
        if not isinstance(part, np.ndarray):
            words += _words(_encode(part))
            continue
        # One uint32 word per entry: a cast would wrap any other into another stream.
        if part.ndim != 1 or part.dtype.kind not in "iu":
            raise ValueError(f"seed-path part {index}: {part.ndim}-D {part.dtype}, not 1-D ints")
        if part.size and not (part.min() >= 0 and part.max() <= _MASK32):
            raise ValueError(f"seed-path part {index} has entries outside [0, 2**32)")
        columns[len(words)], sizes[index] = part, part.size
        words.append(0)
    if len(set(sizes.values())) > 1:
        raise ValueError(f"seed-path array parts differ in length (part: length): {sizes}")
    rows = next(iter(sizes.values()), 1)
    template = np.array(words, dtype=np.uint32)

    def generators() -> Iterator[np.random.Generator]:
        for start in range(0, rows, CHUNK_ROWS):
            entropy = np.tile(template, (min(CHUNK_ROWS, rows - start), 1))
            for word, part in columns.items():
                entropy[:, word] = part[start : start + CHUNK_ROWS]
            for seed in _seed_state(entropy):
                yield np.random.Generator(np.random.PCG64(_SeedWords(seed)))

    return generators()
