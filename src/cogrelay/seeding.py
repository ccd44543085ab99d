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

``streams(root, paths)`` is the batched form of the same rule: it yields
``stream(root, *path)`` for each path, bit for bit, and moves no stream.  It
runs numpy's ``SeedSequence`` pool mixing and ``generate_state`` as uint32
array arithmetic over many paths at once, and hands each path's four seed
words to ``PCG64`` through a minimal ``ISeedSequence``.  It thus relies on
numpy's ``SeedSequence`` algorithm and on the ``ISeedSequence`` interface;
``tests/test_seeding.py`` pins both against numpy itself, so a numpy that
changes either fails there before it moves an output.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

_WORD = 1 << 63

CHUNK_ROWS = 256  # paths whose seed words are derived in one batch

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


def _words(n: int) -> tuple[int, ...]:
    """SeedSequence's uint32 words of a non-negative integer, least
    significant first; zero is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return tuple(words)


@functools.lru_cache(maxsize=4096)
def _string_words(part: str) -> tuple[int, ...]:
    return _words(_encode(part))


def _path_words(path: Sequence[int | str]) -> list[int]:
    words: list[int] = []
    for part in path:
        if type(part) is int and 0 <= part <= _MASK32:  # one word, the common case
            words.append(part)
        else:
            words += _string_words(part) if isinstance(part, str) else _words(_encode(part))
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
    """The four PCG64 seed words of one path, derived in a batch."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("batched seed words serve only PCG64's generate_state(4, uint64)")
        return self.words


def streams(
    root: int, paths: Iterable[Sequence[int | str]]
) -> Iterator[np.random.Generator]:
    """``stream(root, *path)`` for each of ``paths``, in order and bit for bit.

    The seed words of ``CHUNK_ROWS`` paths at a time are derived in one
    batch, and each generator is built only when it is asked for, so memory
    stays bounded however many paths there are.
    """
    if root < 0:
        raise ValueError(f"root seed must be non-negative, not {root}")
    root_words = list(_words(root))
    # SeedSequence pads a root shorter than its pool with 0s before a spawn key.
    padded = root_words + [0] * (_POOL - len(root_words))
    paths = iter(paths)
    while chunk := list(itertools.islice(paths, CHUNK_ROWS)):
        entropy = [padded + _path_words(path) if path else root_words for path in chunk]
        groups: dict[int, list[int]] = {}  # rows by entropy length
        for row, words in enumerate(entropy):
            groups.setdefault(len(words), []).append(row)
        seeds = np.empty((len(chunk), 4), dtype=np.uint64)
        for rows in groups.values():
            seeds[rows] = _seed_state(np.array([entropy[r] for r in rows], dtype=np.uint32))
        for words in seeds:
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))
