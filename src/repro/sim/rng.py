"""Deterministic random-number fabric.

Every stochastic component of the library (each protocol run, each adversary,
each trial of an experiment) draws from its own independent NumPy generator.
Streams are spawned from a single root :class:`numpy.random.SeedSequence`, so

* a run is exactly reproducible from ``(seed,)``;
* components cannot accidentally share a stream (which would correlate the
  adversary's coins with the honest nodes' coins and break the oblivious-
  adversary model); and
* trials can be spawned in parallel-safe fashion (SeedSequence spawning is
  collision-resistant by construction).

:func:`bounded_integers` is the block engines' channel draw: the values and
stream consumption of ``Generator.integers`` at a fraction of its cost when
the bound is a power of two (DESIGN.md section 6.5).
:func:`bounded_integer_rows` makes several such draws back to back from one
generator in one raw-word fill (the arena's per-node channel and coin
chunks), and :func:`skip_bounded_integers` consumes a draw without
producing it, by PCG64 jump-ahead when the draw is raw words.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterable, List

import numpy as np

__all__ = [
    "RandomFabric",
    "bounded_integer_rows",
    "bounded_integers",
    "derive_seed",
    "skip_bounded_integers",
]

#: Output dtypes ``Generator.integers`` fills one 32-bit word per value for
#: (bounds up to 2**31); narrower dtypes split words into 8/16-bit pieces.
_WORD_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))
#: A uint32 view of raw outputs lists each low half first only on
#: little-endian hosts, matching the order ``integers`` consumes them in.
_LOW_HALF_FIRST = sys.byteorder == "little"


def _raw_words(bg, highs, count: int, dtype) -> bool:
    """True when ``count`` values of ``integers(0, high, dtype=dtype)``, for
    each ``high`` of ``highs`` in turn, are exactly the top bits of the next
    ``count // 2`` raw PCG64 outputs each: every bound is a power of two in
    ``[2, 2**31]``, the count is even, the dtype takes one 32-bit word per
    value, no half word is buffered, the bit generator is PCG64 and the host
    little-endian.  An even raw-word draw leaves no half word buffered, so
    the generator state is read once for the whole sequence."""
    return (
        count % 2 == 0
        and dtype in _WORD_DTYPES
        and all(2 <= high <= 2**31 and (high & (high - 1)) == 0 for high in highs)
        and type(bg) is np.random.PCG64
        and _LOW_HALF_FIRST
        and bg.state["has_uint32"] == 0
    )


def bounded_integers(rng: np.random.Generator, high: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` exactly as ``out[...] = rng.integers(0, high,
    size=out.shape, dtype=out.dtype)`` would, and return it.

    The generator ends in the same effective state as after that call.
    ``integers`` takes one 32-bit word per value, the low half of each
    PCG64 output first, and for ``high = 2**k`` Lemire's bounded-integer
    method never rejects and returns the word's top ``k`` bits.  So when the
    bound is such a power of two, the count is even, no half word is
    buffered, the bit generator is PCG64 and the host little-endian, the
    values are the raw outputs shifted right — one ``random_raw`` call and
    one shift straight into ``out``.  Every other case (``high == 1`` included, which consumes
    nothing) calls ``integers`` itself.

    One difference stays invisible: the fast path leaves the generator's
    ``uinteger`` field as it was, where ``integers`` would overwrite it.
    Both leave ``has_uint32 == 0``, and numpy never reads ``uinteger`` then.
    """
    high = int(high)
    bg = rng.bit_generator
    if _raw_words(bg, (high,), out.size, out.dtype):
        words = bg.random_raw(out.size // 2).view(np.uint32).reshape(out.shape)
        # shifting into a same-width unsigned view skips the ufunc's cast
        target = out.view(np.uint32) if out.dtype == np.int32 else out
        np.right_shift(words, 32 - (high.bit_length() - 1), out=target)
    else:
        out[...] = rng.integers(0, high, size=out.shape, dtype=out.dtype)
    return out


def bounded_integer_rows(
    rng: np.random.Generator, highs, out: np.ndarray
) -> np.ndarray:
    """Fill each row ``out[i]`` of a C-contiguous ``(len(highs), k)`` array
    exactly as consecutive calls ``bounded_integers(rng, highs[i], out[i])``
    would, in row order, and return ``out``.

    When every row is raw words (:func:`_raw_words`, asked once for the
    whole sequence), one ``random_raw`` call yields the words of every row,
    and one shift takes each row's top bits by its own bound.  Otherwise the
    rows are drawn one :func:`bounded_integers` call each.  As there, only
    the unread ``uinteger`` field can differ from the state the calls leave.
    """
    highs = [int(high) for high in highs]
    bg = rng.bit_generator
    if _raw_words(bg, highs, out.shape[1], out.dtype):
        words = bg.random_raw(out.size // 2).view(np.uint32).reshape(out.shape)
        shifts = np.array([33 - high.bit_length() for high in highs], dtype=np.uint32)
        target = out.view(np.uint32) if out.dtype == np.int32 else out
        np.right_shift(words, shifts[:, None], out=target)
    else:
        for high, row in zip(highs, out):
            bounded_integers(rng, high, row)
    return out


def skip_bounded_integers(rng: np.random.Generator, high: int, count: int) -> None:
    """Consume the draw ``bounded_integers(rng, high, np.empty(count,
    np.int32))`` would make, without producing its values.

    When that draw is ``count // 2`` raw words (the fast path's conditions),
    PCG64 jumps ahead over them in O(log count) with
    ``bit_generator.advance``, which also clears the half-word buffer, as
    the draw leaves it.  ``high == 1`` consumes nothing, so nothing is
    done.  Every other case draws the values and discards them.  As with
    :func:`bounded_integers`, only the unread ``uinteger`` field can differ
    from the state the draw leaves.
    """
    high = int(high)
    count = int(count)
    bg = rng.bit_generator
    if high == 1:
        return
    if _raw_words(bg, (high,), count, np.dtype(np.int32)):
        bg.advance(count // 2)
    else:
        bounded_integers(rng, high, np.empty(count, dtype=np.int32))


def derive_seed(root: int, *labels: object) -> int:
    """Derive a stable 63-bit child seed from a root seed and a label path.

    The derivation hashes ``root`` together with the ``repr`` of each label, so
    ``derive_seed(7, "adversary")`` and ``derive_seed(7, "nodes")`` are
    independent for all practical purposes, and the mapping is stable across
    processes and Python versions (it does not use ``hash()``).

    Parameters
    ----------
    root:
        The experiment-level seed.
    labels:
        Any hashable/reprable path components, e.g. ``("trial", 3, "eve")``.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for label in labels:
        h.update(b"\x1f")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


class RandomFabric:
    """A hierarchy of independent, reproducible random generators.

    Example
    -------
    >>> fabric = RandomFabric(seed=42)
    >>> g1 = fabric.generator("nodes")
    >>> g2 = fabric.generator("adversary")
    >>> g1 is g2
    False
    >>> RandomFabric(42).generator("nodes").integers(1 << 30) == \\
    ...     RandomFabric(42).generator("nodes").integers(1 << 30)
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def generator(self, *labels: object) -> np.random.Generator:
        """Return the generator for a label path (same path -> same stream)."""
        return np.random.default_rng(derive_seed(self.seed, *labels))

    def child(self, *labels: object) -> "RandomFabric":
        """Return a sub-fabric rooted at a derived seed."""
        return RandomFabric(derive_seed(self.seed, *labels))

    def spawn(self, count: int, *labels: object) -> List[np.random.Generator]:
        """Return ``count`` independent generators under a common label path."""
        return [self.generator(*labels, i) for i in range(count)]

    def trial_seeds(self, count: int, *labels: object) -> Iterable[int]:
        """Yield ``count`` derived integer seeds (for spawning whole trials)."""
        return [derive_seed(self.seed, *labels, i) for i in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomFabric(seed={self.seed})"
