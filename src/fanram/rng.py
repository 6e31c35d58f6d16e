"""Fixed 64-bit mixing generator, reproducible bit-for-bit everywhere.

The generator is SplitMix64.  State advances by the golden-ratio constant
0x9E3779B97F4A7C15 modulo 2^64; each output is the new state mixed by two
xor-shift multiplies:

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z ^= z >> 27; z *= 0x94D049BB133111EB  (mod 2^64)
    z ^= z >> 31

Floats in [0, 1) take the top 53 bits of an output divided by 2^53.
Everything downstream that says "seeded" draws from this stream, so equal
seeds give byte-identical results on any platform.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53
