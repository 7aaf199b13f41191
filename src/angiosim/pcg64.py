"""numpy's default_rng(seed).uniform, bit for bit, from integer numpy alone.

default_rng(seed) is PCG64 (M. E. O'Neill, HMC-CS-2014-0905) seeded through
SeedSequence. PCG64's state is a 128-bit LCG, s -> M s + inc mod 2**128, so the
state j steps on from s is A_j s + C_j with A_j = M**j and
C_j = inc (M**(j-1) + ... + 1) (F. Brown, "Random number generation with arbitrary
strides", Trans. Am. Nucl. Soc. 71, 1994). A Generator keeps (A_j, C_j) for
j = 1..BLOCK as uint64 word arrays and draws a block of states at once from them:
the 64x64-bit products that need their high words are taken on 32-bit limbs, the
others wrap. Each state gives one 64-bit output by XSL-RR, and numpy's double is
its top 53 bits times 2**-53.

Importing numpy's random module also imports secrets, hashlib and OpenSSL: about
5 MB of a random run's peak memory and 10 ms of its start-up. This module imports
numpy alone. Only integer operations and exact scalings make the bits, so they are
the same on every SIMD level.
"""
import operator

import numpy as np

__all__ = ["Generator"]

BLOCK = 8192  # states per block: the table and a block's temporaries stay near 1 MB
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's state and increment after PCG64(SeedSequence(seed)): the pool is mixed
    from the seed's 32-bit little-endian words, four 64-bit words are generated from
    it, and pcg_setseq_128_srandom takes the first two as the state and the last two
    as the stream."""
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    # a step from state 0 (to inc), the seed state added, one more step
    return ((inc + (s0 << 64 | s1)) * _MULT + inc) & _M128, inc


def _affine(a_lo, a_hi, x: int, c_lo=None, c_hi=None):
    """Low and high words of a_j x + c_j mod 2**128, for uint64 word arrays of a (and
    of c, which defaults to 0) and a 128-bit Python int x. The Python ints that meet
    the arrays fit in uint64, so every operation stays in uint64 and wraps."""
    x_lo, x_hi = x & _M64, x >> 64
    b0, b1 = x_lo & _M32, x_lo >> 32
    a0 = a_lo & _M32
    a1 = a_lo >> 32
    # the high word of a_lo * x_lo, from its four 32-bit limb products
    p01 = a0 * b1
    p10 = a1 * b0
    mid = a0 * b0
    mid >>= 32
    mid += p01 & _M32
    mid += p10 & _M32
    mid >>= 32
    hi = a1 * b1
    hi += mid
    hi += p01 >> 32
    hi += p10 >> 32
    # the products that wrap: the low word, and the cross terms of the high word
    hi += a_lo * x_hi
    hi += a_hi * x_lo
    lo = a_lo * x_lo
    if c_lo is not None:
        lo += c_lo
        hi += c_hi
        hi += lo < c_lo  # the carry out of the low word
    return lo, hi


class Generator:
    """numpy's default_rng(seed) for an int seed >= 0, with its uniform method.
    Each call carries the stream on from the last, as numpy's does."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        self._state, inc = _seed_state(seed)
        # (A_j, C_j) for j = 1..len: the words of the affine map j steps on
        self._table = tuple(np.array([w], dtype=np.uint64)
                            for w in (_MULT & _M64, _MULT >> 64, inc & _M64, inc >> 64))

    def _grow(self, n: int) -> None:
        """Double the table until it holds min(n, BLOCK) steps: entry k + j is entry
        j's map after entry k's."""
        a_lo, a_hi, c_lo, c_hi = self._table
        while len(a_lo) < min(n, BLOCK):
            k = len(a_lo) - 1
            a_k = int(a_hi[k]) << 64 | int(a_lo[k])
            c_k = int(c_hi[k]) << 64 | int(c_lo[k])
            new_a = _affine(a_lo, a_hi, a_k)
            new_c = _affine(a_lo, a_hi, c_k, c_lo, c_hi)
            a_lo, a_hi = (np.concatenate(p) for p in zip((a_lo, a_hi), new_a))
            c_lo, c_hi = (np.concatenate(p) for p in zip((c_lo, c_hi), new_c))
        self._table = a_lo, a_hi, c_lo, c_hi

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Doubles in [low, high) shaped like size, as numpy's Generator.uniform draws
        them: low + (high - low) * ((x >> 11) * 2**-53) for each output x in order."""
        out = np.empty(size)
        flat = out.reshape(-1)
        self._grow(flat.size)
        span = high - low
        for start in range(0, flat.size, BLOCK):
            dst = flat[start:start + BLOCK]
            a_lo, a_hi, c_lo, c_hi = (w[:len(dst)] for w in self._table)
            lo, hi = _affine(a_lo, a_hi, self._state, c_lo, c_hi)
            self._state = int(hi[-1]) << 64 | int(lo[-1])
            # XSL-RR: the xor of the words, rotated right by the state's top 6 bits
            rot = hi >> 58
            lo ^= hi
            hi = lo << 1
            hi <<= rot ^ 63
            lo >>= rot
            lo |= hi
            lo >>= 11
            np.multiply(lo, 2.0 ** -53, out=dst)
            dst *= span
            dst += low
        return out
