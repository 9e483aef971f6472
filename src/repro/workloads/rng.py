"""Bulk, bit-exact reproduction of CPython's ``random.Random`` stream.

The vectorized trace generators must produce *byte-identical* arrays to
the original one-instruction-at-a-time loops, and those loops draw from a
caller-provided ``random.Random``.  This module lets the generators pull
thousands of draws per numpy call while consuming the underlying
Mersenne-Twister word stream in exactly the order the scalar code would:

* :meth:`BulkRandom.random` returns the next *k* doubles, each built from
  two 32-bit words with MT19937's ``genrand_res53`` formula — the same
  values ``rng.random()`` would return, in the same order;
* :meth:`BulkRandom.randrange` replays CPython's
  ``_randbelow_with_getrandbits`` rejection loop (draw ``n.bit_length()``
  bits per attempt, retry while the value is >= ``n``), consuming exactly
  as many words as *k* scalar ``rng.randrange(n)`` calls would;
* :meth:`BulkRandom.randrange_var` does the same for a *sequence* of
  bounds (Sattolo shuffles draw ``randrange(i)`` for descending ``i``);
* :meth:`BulkRandom.peek_words` exposes the upcoming tempered words
  *without* committing them — the vectorized emitters decode a peeked
  window into instruction blocks and then commit exactly the words
  consumed via :meth:`BulkRandom.advance_words`.

State is captured from the ``random.Random`` at construction and written
back by :meth:`sync`, so bulk and scalar draws can be freely interleaved
across phase boundaries: after ``sync()`` the original object continues
the stream exactly where the bulk draws left off.

Word generation stays in CPython's C core: ``getrandbits(32 * k)`` on a
scratch ``random.Random`` positioned at the captured state draws exactly
*k* words, least significant first, which one ``int.to_bytes`` turns
into a word array.  Positioning the scratch generator is one
``setstate``, so the fixed cost of a peek or commit is a few
microseconds and decode windows can stay small.
"""

from __future__ import annotations

import array
import random

import numpy as np

#: ``genrand_res53``: (a*2**26 + b) / 2**53 with a=word>>5, b=word>>6.
_RES53_SCALE = 1.0 / 9007199254740992.0
_RES53_SHIFT = np.uint64(67108864)

#: words committed per ``getrandbits`` call in :meth:`BulkRandom.advance_words`
_ADVANCE_WORDS = 4096


def _words(rng: random.Random, count: int) -> np.ndarray:
    """Draw ``count`` tempered 32-bit words from ``rng`` (read-only
    ``uint32``; shifts by ``np.uint64`` amounts widen them for the
    53-bit mantissa arithmetic)."""
    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4")


class BulkRandom:
    """Vectorized view over a ``random.Random``'s Mersenne-Twister stream."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        #: the stream position: a ``random.Random.getstate()`` tuple
        self._state = rng.getstate()
        self._scratch = random.Random(0)

    # -- word plumbing ------------------------------------------------------

    def _at_state(self) -> random.Random:
        """The scratch generator, positioned at the current stream state."""
        self._scratch.setstate(self._state)
        return self._scratch

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` tempered 32-bit words; consumption committed."""
        scratch = self._at_state()
        out = _words(scratch, count)
        self._state = scratch.getstate()
        return out

    def peek_words(self, count: int) -> np.ndarray:
        """The next ``count`` tempered words *without* committing them."""
        if count <= 0:
            return np.empty(0, dtype=np.uint32)
        return _words(self._at_state(), count)

    def advance_words(self, count: int) -> None:
        """Commit ``count`` words previously observed via peeking."""
        if count <= 0:
            return
        scratch = self._at_state()
        # in bounded pieces: each draw builds a ``4 * words``-byte int
        for done in range(0, count, _ADVANCE_WORDS):
            scratch.getrandbits(32 * min(_ADVANCE_WORDS, count - done))
        self._state = scratch.getstate()

    # -- draw primitives ----------------------------------------------------

    def random(self, k: int) -> np.ndarray:
        """The next ``k`` values of ``rng.random()`` as a float64 array."""
        if k <= 0:
            return np.empty(0, dtype=np.float64)
        words = self._take(2 * k)
        a = words[0::2] >> np.uint64(5)
        b = words[1::2] >> np.uint64(6)
        return (a * _RES53_SHIFT + b) * _RES53_SCALE

    def randrange(self, n: int, k: int) -> np.ndarray:
        """The next ``k`` values of ``rng.randrange(n)`` as int64.

        Replays the ``getrandbits``-rejection loop over the word stream:
        each attempt shifts one word down to ``n.bit_length()`` bits and
        rejects values ``>= n``, so word consumption matches the scalar
        calls exactly.
        """
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        if n <= 0:
            raise ValueError("empty range for randrange()")
        if int(n).bit_length() > 32:
            # getrandbits(>32) consumes several words per attempt; no
            # generator draws bounds that large, so keep the fast path.
            raise NotImplementedError("randrange bounds beyond 32 bits")
        shift = np.uint64(32 - int(n).bit_length())
        scratch = self._at_state()
        accepted: list = []
        have = 0
        consumed = 0
        while have < k:
            deficit = k - have
            # acceptance probability is n / 2**bits > 0.5, so a modest
            # overshoot nearly always finishes in one round.
            chunk = max(64, deficit + (deficit >> 2) + 8)
            cand = _words(scratch, chunk) >> shift
            ok = np.flatnonzero(cand < n)
            if have + ok.size >= k:
                last = ok[k - have - 1]
                accepted.append(cand[ok[: k - have]])
                consumed += int(last) + 1
                have = k
            else:
                accepted.append(cand[ok])
                consumed += chunk
                have += ok.size
        self.advance_words(consumed)
        return np.concatenate(accepted).astype(np.int64)

    def randrange_var(self, bounds) -> array.array:
        """``rng.randrange(n)`` for each ``n`` in ``bounds`` (varying), as
        a compact ``array.array`` of int64 whose items index as Python
        ints — the per-item consumer (a Sattolo shuffle) stays fast."""
        out = array.array("q")
        append = out.append
        scratch = self._at_state()
        buf: list = []
        bi = 0
        consumed = 0
        for n in bounds:
            n = int(n)
            if n <= 0 or n.bit_length() > 32:
                raise ValueError(f"unsupported randrange bound {n}")
            shift = 32 - n.bit_length()
            while True:
                if bi == len(buf):
                    buf = _words(scratch, 1024).tolist()
                    bi = 0
                word = buf[bi]
                bi += 1
                consumed += 1
                r = word >> shift
                if r < n:
                    append(r)
                    break
        self.advance_words(consumed)
        return out

    # -- state round trip ---------------------------------------------------

    def sync(self) -> None:
        """Write the advanced state back into the wrapped ``Random``."""
        self._rng.setstate(self._state)
