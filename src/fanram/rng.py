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

SplitMix64 is the reference, one draw per call.  bits_below computes the
same draws _BLOCK at a time.  Draw k's state is seed + (k+1)*gamma mod
2^64, so it depends on k alone, and a block of draws can be mixed at
once: lane j of one int, bits 128j .. 128j+127, holds draw j's 64-bit
value with 64 zero bits above it.  Each mixing step is then one big-int
operation on the whole block.  A right shift pulls the next lane's low
bits into the top of this one, so before each multiply it is masked back
to 64 bits.  A lane below 2^64 times a 64-bit constant stays below
2^128, so no product carries into the next lane, and a mask keeps its
low 64 bits.

The threshold is exact.  next_float() is (z >> 11) / 2^53 and p * 2^53 is
an exact float, so next_float() < p iff z >> 11 < T with T =
ceil(p * 2^53).  After the last xor-shift and the shift by 11, a lane
holds z >> 11 in bits 0..52, zeros in bits 53..85, and bits pulled from
the next lane above those, so these two shifts need no mask.  Adding
2^53 - T to every lane sets a lane's bit 53 iff its draw is not below p;
the sum stays below 2^54, so nothing carries further.  Bit 53 of lane j
is bit 5 of byte 16j + 6, which one bytes slice reads for the whole
block.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


_BLOCK = 512
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")  # 1 in every lane
_L64 = _MASK * _ONES
# lane j: the state increment of draw j, (j+1) * gamma mod 2^64
_OFFSETS = int.from_bytes(
    b"".join((j * _GAMMA & _MASK).to_bytes(16, "little") for j in range(1, _BLOCK + 1)),
    "little",
)
# added to every lane, it turns a block's states into the next block's
_STEP = (_BLOCK * _GAMMA & _MASK) * _ONES
# byte 6 of a lane -> b"1" if its bit 5 (lane bit 53) is clear, else b"0"
_DIGIT = (b"1" * 32 + b"0" * 32) * 4


def bits_below(seed: int, count: int, p: float) -> int:
    """The int whose bit k, for k < count, is set iff draw k (counting from
    0) of SplitMix64(seed) has next_float() below p; needs 0 <= p <= 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    lift = ((1 << 53) - math.ceil(p * 2.0**53)) * _ONES
    state = ((seed & _MASK) * _ONES + _OFFSETS) & _L64
    blocks = []
    for _ in range(-(-count // _BLOCK)):
        z = (state ^ state >> 30 & _L64) * _MIX1 & _L64
        z = (z ^ z >> 27 & _L64) * _MIX2 & _L64
        u = ((z ^ z >> 31) >> 11) + lift
        blocks.append(u.to_bytes(16 * _BLOCK, "little")[6::16].translate(_DIGIT))
        state = (state + _STEP) & _L64
    return int(b"0" + b"".join(blocks)[:count][::-1], 2)
