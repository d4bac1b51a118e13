"""Seeded draws: numpy-compatible SeedSequence and PCG64, bit for bit.

`seed_words` is numpy's `SeedSequence(entropy).generate_state(n, uint64)`
and `PCG64(seed)` draws what `numpy.random.default_rng(seed)` draws for
`random()` and `integers(low, high)` with high - low <= 2**32 (NumPy 2.x).
The specifications are O'Neill's PCG paper (HMC-CS-2014-0905) and numpy's
`bit_generator.pyx`, `pcg64.h` and `distributions.c`; tests/test_rng.py
checks the streams against numpy itself.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Union

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words32(entropy: Union[int, Sequence[int]]) -> List[int]:
    """Each int split into little-endian 32-bit words (0 gives one word)."""
    if not isinstance(entropy, int):
        return [w for value in entropy for w in _words32(value)]
    if entropy < 0:
        raise ValueError("expected non-negative integer")
    words = [entropy & _M32]
    entropy >>= 32
    while entropy:
        words.append(entropy & _M32)
        entropy >>= 32
    return words


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix: xor, step the running constant, multiply, fold."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def seed_words(entropy: Union[int, Sequence[int]], n: int) -> List[int]:
    """The first n uint64 words of SeedSequence(entropy).generate_state."""
    words = _words32(entropy)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]) for i in range(2 * n)]
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(n)]


class PCG64:
    """PCG64 (128-bit LCG, XSL-RR output) seeded as numpy.random.default_rng."""

    def __init__(self, seed: Union[int, Sequence[int]]) -> None:
        w0, w1, w2, w3 = seed_words(seed, 4)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + (w0 << 64 | w1)) & _M128
        self._next64()
        self._half = None  # high half of a 64-bit output kept by next32

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of one output."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        """Uniform int in [low, high): Lemire's rejection over 32-bit draws."""
        n = high - low
        if not 0 < n <= 1 << 32:
            raise ValueError("integers needs 0 < high - low <= 2**32")
        if n == 1:
            return low
        if n == 1 << 32:
            return low + self._next32()
        m = self._next32() * n
        if m & _M32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)
