"""Deterministic, named random-number streams.

Every stochastic component of the simulator (fading on each link, MAC
backoffs of each device, traffic arrivals, CSI noise, ...) draws from its own
stream, derived from a single experiment seed and a stable string name.  This
has two consequences that matter for experiments:

* runs are bit-reproducible given the seed, and
* adding a new random consumer does not perturb the draws seen by existing
  components (streams are independent, not interleaved).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import numpy as np


def _stable_hash(name: str) -> int:
    """A platform-independent 64-bit hash of ``name`` (``hash()`` is salted)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ----------------------------------------------------------------------
# Batched stream seeding
# ----------------------------------------------------------------------
# ``SeedSequence`` construction dominates the cost of creating a stream
# (~15 µs each), and the medium's link rows create O(radios) fading
# streams per new transmitter.  The mixing algorithm behind
# ``SeedSequence.generate_state`` (O'Neill's seed_seq hash) is simple 32-bit
# arithmetic, so we replicate it *vectorized across stream names* and hand the
# resulting state words to ``PCG64`` through a tiny ``ISeedSequence`` shim —
# the bit generator then seeds itself through its normal C path.  The
# replication is verified against ``numpy.random.SeedSequence`` at first use
# (per process); on any mismatch the batch API silently falls back to the
# one-at-a-time reference path, so stream values can never drift.
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_POOL_SIZE = 4

#: Tri-state: None = unverified, True = replication verified, False = the
#: installed numpy disagrees with the replication (use the reference path).
_FAST_SEEDING_OK: Optional[bool] = None


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Minimal ``ISeedSequence`` handing precomputed state words to PCG64.

    A *real* subclass (not an ABC ``register``): the ``isinstance`` check in
    the ``PCG64`` constructor resolves through the MRO in nanoseconds, where
    a virtual subclass pays the ABC registry path on every construction.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:  # pragma: no cover - guard
            raise ValueError("precomputed seed words serve PCG64 only")
        return self._words


def _entropy_words(value: int) -> List[int]:
    """``value`` as little-endian uint32 words (numpy's int coercion)."""
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _batch_seed_words(entropy: int, hashes: Sequence[int]) -> np.ndarray:
    """State words of ``SeedSequence(entropy, spawn_key=(h,))`` for many ``h``.

    Returns an ``(len(hashes), 4)`` uint64 array, vectorizing the seed_seq
    pool mixing across all spawn keys at once.  Every hash must need exactly
    two uint32 words (i.e. ``h >= 2**32``); the caller routes rarer shapes to
    the reference path.
    """
    hs = np.asarray(hashes, dtype=np.uint64)
    m = hs.shape[0]
    run = _entropy_words(entropy)
    if len(run) < _POOL_SIZE:
        # numpy zero-pads the run entropy to the pool size whenever a spawn
        # key is present, so spawn words never alias entropy words.
        run = run + [0] * (_POOL_SIZE - len(run))
    assembled = [np.full(m, w, dtype=np.uint32) for w in run]
    assembled.append((hs & np.uint64(_MASK32)).astype(np.uint32))
    assembled.append((hs >> np.uint64(32)).astype(np.uint32))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(assembled[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(assembled)):
        for i_dst in range(_POOL_SIZE):
            # hashmix advances its constant per (src, dst) pair, exactly as
            # the reference implementation does — it cannot be hoisted.
            pool[i_dst] = mix(pool[i_dst], hashmix(assembled[i_src]))

    hash_const = _INIT_B
    out32 = np.empty((8, m), dtype=np.uint64)
    src = 0
    for k in range(8):
        value = pool[src]
        src = (src + 1) % _POOL_SIZE
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out32[k] = (value ^ (value >> _XSHIFT)).astype(np.uint64)
    words = np.empty((m, 4), dtype=np.uint64)
    for i in range(4):
        words[:, i] = out32[2 * i] | (out32[2 * i + 1] << np.uint64(32))
    return words


def _verify_fast_seeding() -> bool:
    """One-time self check of the batched replication against numpy."""
    probes = [
        (0, [2**32, 2**64 - 1]),
        (7, [0x9E3779B97F4A7C15, 0xD1B54A32D192ED03]),
        (2**63 - 1, [0x123456789ABCDEF0, 2**32 + 1]),
        (123456789, [_stable_hash("fading/A->B"), _stable_hash("shadowing/A|B")]),
    ]
    try:
        for entropy, hashes in probes:
            words = _batch_seed_words(entropy, hashes)
            for j, h in enumerate(hashes):
                seq = np.random.SeedSequence(entropy=entropy, spawn_key=(h,))
                if list(map(int, seq.generate_state(4, np.uint64))) != [
                    int(w) for w in words[j]
                ]:
                    return False
                ref = np.random.PCG64(seq).state["state"]
                fast = np.random.PCG64(_SeedWords(words[j])).state["state"]
                if ref != fast:
                    return False
    except Exception:  # pragma: no cover - any surprise disables the fast path
        return False
    return True


def _fast_seeding_ok() -> bool:
    global _FAST_SEEDING_OK
    if _FAST_SEEDING_OK is None:
        _FAST_SEEDING_OK = _verify_fast_seeding()
    return _FAST_SEEDING_OK


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.stream("fading/A->F")
    >>> b = streams.stream("mac/zigbee-1")
    >>> a is streams.stream("fading/A->F")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(_stable_hash(name),))
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator

    def stream_many(self, names: Sequence[str]) -> List[np.random.Generator]:
        """Return generators for ``names``, batch-seeding the missing ones.

        Bitwise-identical to calling :meth:`stream` per name, but amortizes
        ``SeedSequence`` construction across all cache misses (~4× cheaper per
        stream).  Names whose stable hash fits in 32 bits (probability
        ``2**-32`` each) and negative seeds take the reference path.
        """
        streams = self._streams
        missing = [n for n in names if n not in streams]
        if len(missing) >= 2 and self.seed >= 0 and _fast_seeding_ok():
            hashes = [_stable_hash(n) for n in missing]
            batch = [(n, h) for n, h in zip(missing, hashes) if h >= 2**32]
            if batch:
                words = _batch_seed_words(self.seed, [h for _, h in batch])
                pcg64 = np.random.PCG64
                generator = np.random.Generator
                seed_words = _SeedWords
                for j, (n, _) in enumerate(batch):
                    streams[n] = generator(pcg64(seed_words(words[j])))
        out = []
        append = out.append
        stream = self.stream
        for n in names:
            g = streams.get(n)
            append(g if g is not None else stream(n))
        return out

    def fork(self, salt: str) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per repetition).

        The child seed is produced by SeedSequence mixing of (parent seed,
        hash("fork/" + salt)) rather than an affine combination: the old
        ``seed * 1000003 + hash(salt)`` scheme was invertible per-salt, so
        distinct (seed, salt) pairs could collide exactly (e.g. a fork of
        seed 0 collided with a root ``RandomStreams`` whose seed was
        ``_stable_hash(salt) % 2**63``), correlating supposedly independent
        repetitions.  The "fork/" prefix also keeps fork-derived entropy
        disjoint from the ``stream(name)`` spawn-key namespace.
        """
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(_stable_hash("fork/" + salt),)
        )
        return RandomStreams(seed=int(seq.generate_state(1, np.uint64)[0]) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStreams(seed={self.seed}, streams={len(self._streams)})"
