"""numpy's seeded PCG64 stream, seeded and drawn in plain Python integers.

:func:`seeded` gives the PCG64 state and increment of
``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(key,)))``
bit for bit, and :func:`doubles` its first ``random()`` values, so that
neither a sweep's starts (``adaptive.initial_strategy``) nor verify's
compiled streams (``_native.stream``) load ``numpy.random``, whose
``secrets`` import loads OpenSSL.  A draw steps the state, ``state *
MULT + inc`` modulo 2^128, then takes the XSL-RR output of the new state;
a ``random()`` value is that output's top 53 bits times 2^-53.
"""

from __future__ import annotations

from .game import _stream_argument

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seeded(seed, key):
    """The ``(state, inc)`` of the PCG64 of ``SeedSequence(entropy=seed,
    spawn_key=(key,))``, before its first draw; :class:`DomainError` for a
    seed or key that is not a non-negative integer."""
    seed, key = _stream_argument("seed", seed), _stream_argument("key", key)
    # SeedSequence's entropy: the seed's little-endian 32-bit words, padded
    # to the pool's 4 words because a spawn key follows, then the key's.
    words = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    words += [key >> s & M32 for s in range(0, max(key.bit_length(), 1), 32)]
    # mix_entropy: hash the first 4 words into the pool, then mix every pool
    # word into every other and each further word into every pool word.
    h = 0x43B0D7E5
    for i in range(4):
        w = words[i] ^ h
        h = h * 0x931E8875 & M32
        w = w * h & M32
        words[i] = w ^ w >> 16
    for src in range(len(words)):
        for dst in range(4):
            if src != dst:
                w = words[src] ^ h
                h = h * 0x931E8875 & M32
                w = w * h & M32
                w = (0xCA01F9DD * words[dst] - 0x4973F715 * (w ^ w >> 16)) & M32
                words[dst] = w ^ w >> 16
    # generate_state(4, uint64): the pool cycled to 8 hashed words, read as
    # 4 little-endian 64-bit words
    h, out = 0x8B51F9DD, []
    for w in words[:4] * 2:
        w ^= h
        h = h * 0x58F38DED & M32
        w = w * h & M32
        out.append(w ^ w >> 16)
    u = [out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6)]
    # PCG64 seeding: from state 0, step, add the initial state, step again
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & M128
    state = ((inc + (u[0] << 64 | u[1])) * MULT + inc) & M128
    return state, inc


def doubles(seed, key, n):
    """The first ``n`` ``random()`` values of the stream of :func:`seeded`,
    as a list of floats."""
    state, inc = seeded(seed, key)
    out = []
    for _ in range(n):  # each draw steps, then takes the XSL-RR output
        state = (state * MULT + inc) & M128
        x, rot = (state >> 64 ^ state) & M64, state >> 122
        out.append((((x >> rot | x << (64 - rot)) & M64) >> 11) * 2.0**-53)
    return out
