"""numpy's `default_rng(seed).uniform` stream, bit for bit, without numpy.random.

The verifier draws a few hundred sample characters, too few to pay for the
numpy.random import (about 6 MB of RSS and 20 ms per process).  numpy's
`SeedSequence` hashes the seed into four 32-bit words and expands them into
the state and increment of O'Neill's PCG64 (XSL-RR, HMC-CS-2014-0905).
"""

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix of 32-bit words, with its running constant."""
    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


class PCG64:
    """`np.random.default_rng(seed)`, for its `uniform` draws only."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
        for src, dst in [(s, d) for s in range(max(4, len(entropy))) for d in range(4)]:
            if src != dst:  # the pool's own words first, then the entropy past it
                word = hashmix(pool[src] if src < 4 else entropy[src])
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * word) & _M32
                pool[dst] = mixed ^ mixed >> 16
        hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
        words = [hashmix(pool[i % 4]) for i in range(8)]
        u = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]  # generate_state(4, uint64)
        self.inc = (u[2] << 65 | u[3] << 1 | 1) & _M128
        self.state = ((self.inc + (u[0] << 64 | u[1])) * _MULT + self.inc) & _M128

    def uniform(self, low, high, size=None):
        """One draw in [low, high), or a list of `size` draws."""
        if size is not None:
            return [self.uniform(low, high) for _ in range(size)]
        self.state = (self.state * _MULT + self.inc) & _M128
        x, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return low + (high - low) * ((x >> 11) * 2.0**-53)
