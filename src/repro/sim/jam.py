"""Sparse block representation of jamming.

``MultiCastAdv`` uses 2^j channels in phase j with unbounded j, so a dense
``(K, C)`` jam mask is not materializable (C reaches 2^25+ in late epochs even
for n = 16).  The fix is structural: Eve's *energy budget* bounds the number
of jammed channel-slots, so jamming is stored sparsely — a CSR-style layout of
``(slot, channel)`` pairs, row-major, channels sorted within each slot:

* ``indptr`` — ``(K+1,)`` int64; slot t's jammed channels live at
  ``channels[indptr[t]:indptr[t+1]]``;
* ``channels`` — sorted-within-row channel indices.

Memory is O(jammed channel-slots) <= O(budget), independent of C.  The layout
gives three O(1)-ish primitives the engine needs:

* ``total()``/``counts()`` for exact energy accounting,
* ``slice(t0, t1)`` (zero-copy) for the protocols' tail re-resolution, and
* ``lookup(rows, cols)`` (binary search on flat slot*C+channel keys) for the
  sparse channel-resolution path in :func:`repro.sim.channel.resolve_block`.

Dense boolean masks remain first-class: strategies may return either, and
:meth:`JamBlock.coerce` normalizes at the engine boundary.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["JamBlock"]


class JamBlock:
    """Jamming for ``K`` slots on ``C`` channels, stored sparsely."""

    __slots__ = ("K", "C", "indptr", "channels", "_flat_keys")

    def __init__(self, K: int, C: int, indptr: np.ndarray, channels: np.ndarray):
        self.K = int(K)
        self.C = int(C)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.channels = np.ascontiguousarray(channels, dtype=np.int64)
        self._flat_keys: Optional[np.ndarray] = None
        if self.indptr.shape != (self.K + 1,):
            raise ValueError(f"indptr must have shape ({self.K + 1},)")
        if self.indptr[0] != 0 or self.indptr[-1] != self.channels.shape[0]:
            raise ValueError("indptr endpoints inconsistent with channels array")

    # -- constructors ------------------------------------------------------------
    @classmethod
    def empty(cls, K: int, C: int) -> "JamBlock":
        """No jamming at all."""
        return cls(K, C, np.zeros(K + 1, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_dense(cls, mask: np.ndarray) -> "JamBlock":
        """Convert a ``(K, C)`` boolean mask (row-major nonzero order is
        already sorted-within-row)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("dense mask must be 2-D")
        K, C = mask.shape
        rows, cols = np.nonzero(mask)
        indptr = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=K), out=indptr[1:])
        return cls(K, C, indptr, cols)

    @classmethod
    def from_rows(
        cls,
        K: int,
        C: int,
        row_indices: np.ndarray,
        row_channels: Sequence[np.ndarray],
    ) -> "JamBlock":
        """Build from per-row channel arrays.

        ``row_indices`` are the (strictly increasing) slots that have any
        jamming; ``row_channels[k]`` are the channels jammed in
        ``row_indices[k]`` (need not be sorted; duplicates are an error
        upstream — Eve cannot jam one channel twice in one slot).
        """
        counts = np.zeros(K, dtype=np.int64)
        parts: List[np.ndarray] = []
        for r, chans in zip(row_indices, row_channels):
            arr = np.sort(np.asarray(chans, dtype=np.int64))
            counts[int(r)] = arr.shape[0]
            parts.append(arr)
        indptr = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        channels = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        return cls(K, C, indptr, channels)

    @classmethod
    def coerce(cls, jam: Union["JamBlock", np.ndarray]) -> "JamBlock":
        """Normalize a strategy's return value (dense array or JamBlock)."""
        if isinstance(jam, cls):
            return jam
        return cls.from_dense(np.asarray(jam, dtype=bool))

    @classmethod
    def stack(cls, blocks: Sequence["JamBlock"]) -> "JamBlock":
        """Concatenate blocks along the slot axis (all must share ``C``).

        This is how the batched execution layer builds one flat jam block out
        of ``B`` per-lane blocks of ``K`` slots each: row ``l*K + t`` of the
        stacked block is lane ``l``'s slot ``t``, so the flat resolution keys
        become ``lane*K*C + slot*C + channel`` with no per-lane dispatch.
        Zero-copy is impossible here (indptr must be re-based), but the cost
        is O(total nnz + total K).
        """
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one block to stack")
        C = blocks[0].C
        if any(b.C != C for b in blocks):
            raise ValueError("stacked blocks must share the channel count C")
        K = sum(b.K for b in blocks)
        indptr = np.zeros(K + 1, dtype=np.int64)
        pos = 0
        offset = 0
        for b in blocks:
            indptr[pos + 1 : pos + b.K + 1] = b.indptr[1:] + offset
            pos += b.K
            offset += b.total()
        channels = (
            np.concatenate([b.channels for b in blocks])
            if offset
            else np.empty(0, dtype=np.int64)
        )
        return cls(K, C, indptr, channels)

    # -- accounting ----------------------------------------------------------------
    def total(self) -> int:
        """Jammed channel-slots in the block (Eve's energy for the block)."""
        return int(self.indptr[-1])

    def counts(self) -> np.ndarray:
        """``(K,)`` jammed-channel count per slot."""
        return np.diff(self.indptr)

    # -- queries ---------------------------------------------------------------------
    def _keys(self) -> np.ndarray:
        if self._flat_keys is None:
            rows = np.repeat(np.arange(self.K, dtype=np.int64), self.counts())
            self._flat_keys = rows * self.C + self.channels
        return self._flat_keys

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorized membership: is channel ``cols[i]`` jammed in slot
        ``rows[i]``?  O(q log nnz)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return self.lookup_keys(rows * self.C + cols)

    def lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        """Membership for precomputed flat ``slot * C + channel`` keys."""
        if not self.total():
            return np.zeros(keys.shape, dtype=bool)
        flat = self._keys()
        idx = np.searchsorted(flat, keys)
        idx_clipped = np.minimum(idx, flat.shape[0] - 1)
        return flat[idx_clipped] == keys

    def slice(self, t0: int, t1: Optional[int] = None) -> "JamBlock":
        """Zero-copy row slice ``[t0, t1)`` (t1 defaults to K)."""
        t1 = self.K if t1 is None else int(t1)
        t0 = int(t0)
        if not 0 <= t0 <= t1 <= self.K:
            raise IndexError(f"slice [{t0}, {t1}) out of range for K={self.K}")
        lo, hi = int(self.indptr[t0]), int(self.indptr[t1])
        return JamBlock(
            t1 - t0,
            self.C,
            self.indptr[t0 : t1 + 1] - lo,
            self.channels[lo:hi],
        )

    def truncate_budget(self, limit: int) -> "JamBlock":
        """Keep only the first ``limit`` jammed channel-slots in time order
        (row-major) — the budget-exhaustion rule of the model."""
        limit = max(0, int(limit))
        if self.total() <= limit:
            return self
        return JamBlock(
            self.K,
            self.C,
            np.minimum(self.indptr, limit),
            self.channels[:limit],
        )

    def fold_rows(self, group: int) -> "JamBlock":
        """Regroup ``group`` consecutive rows into one row of ``group * C``
        virtual channels: old (row g·group + q, channel c) becomes
        (row g, channel q·C + c).

        This is the Fig. 5 physical-to-virtual relabeling (see
        :mod:`repro.core.limited`): with S = n/(2C) sub-slots per round,
        ``phys.fold_rows(S)`` is the jam mask on the n/2 virtual channels.
        Zero-copy on ``indptr``; O(nnz) on channels.  Row-major entry order is
        preserved, and within a new row the relabeled channels stay sorted
        because q·C + c is increasing in (q, c).
        """
        group = int(group)
        if group <= 0 or self.K % group:
            raise ValueError(f"K={self.K} not divisible by group={group}")
        if not self.total():
            return JamBlock.empty(self.K // group, self.C * group)
        rows = np.repeat(np.arange(self.K, dtype=np.int64), self.counts())
        new_channels = (rows % group) * self.C + self.channels
        return JamBlock(self.K // group, self.C * group, self.indptr[::group], new_channels)

    def to_dense(self) -> np.ndarray:
        """Materialize the ``(K, C)`` boolean mask (small C only)."""
        mask = np.zeros((self.K, self.C), dtype=bool)
        if self.total():
            rows = np.repeat(np.arange(self.K, dtype=np.int64), self.counts())
            mask[rows, self.channels] = True
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JamBlock(K={self.K}, C={self.C}, nnz={self.total()})"
