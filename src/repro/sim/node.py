"""Scalar per-node runtime — the readable reference implementation.

The vectorized engine (:mod:`repro.sim.engine` plus the protocol runners in
:mod:`repro.core`) is the fast path.  This module is the slow path: one Python
object per node, one slot per step, written to mirror the paper's pseudocode
line by line.  It exists so tests can cross-validate the two implementations
(same model, radically different code paths) on small instances.

A node protocol implements two callbacks:

* :meth:`NodeProtocol.begin_slot` — decide ``(channel, action)`` for this slot;
* :meth:`NodeProtocol.end_slot` — observe feedback (``FB_*``; ``FB_NONE``
  unless the node listened).

:class:`ScalarNetwork` drives n protocol objects and the adversary through the
shared channel-resolution kernel (:func:`repro.sim.channel.resolve_slot`), and
keeps the same energy books as the fast engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.channel import (
    ACT_IDLE,
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_NONE,
    resolve_slot,
)
from repro.sim.jam import JamBlock
from repro.sim.metrics import EnergyLedger

__all__ = ["NodeProtocol", "ScalarNetwork"]


class NodeProtocol(ABC):
    """Per-node protocol interface for the scalar runtime."""

    @abstractmethod
    def begin_slot(self, slot: int) -> Tuple[int, int]:
        """Return ``(channel, action)`` for this slot.

        ``channel`` is ignored when ``action`` is ``ACT_IDLE``.  A halted node
        should keep returning ``(0, ACT_IDLE)``.
        """

    @abstractmethod
    def end_slot(self, slot: int, feedback: int) -> None:
        """Observe the slot's outcome (``FB_NONE`` unless the node listened)."""

    @property
    @abstractmethod
    def halted(self) -> bool:
        """True once the node has terminated."""


class ScalarNetwork:
    """Slot-by-slot driver for :class:`NodeProtocol` objects.

    Parameters mirror :class:`repro.sim.engine.RadioNetwork`; the adversary is
    queried one slot at a time through the same oblivious interface.
    """

    def __init__(
        self,
        nodes: Sequence[NodeProtocol],
        adversary=None,
        *,
        max_slots: int = 1_000_000,
    ):
        self.nodes: List[NodeProtocol] = list(nodes)
        if len(self.nodes) < 2:
            raise ValueError("broadcast needs at least two nodes")
        self.adversary = adversary
        self.energy = EnergyLedger(len(self.nodes))
        self.max_slots = int(max_slots)
        #: True once :meth:`run` stopped at ``max_slots`` with nodes still
        #: active — the scalar analogue of the batched engine's per-lane
        #: overrun mask (callers report such runs truncated, not completed).
        self.overrun = False

    @property
    def clock(self) -> int:
        return self.energy.slots

    def step(self, num_channels: int) -> np.ndarray:
        """Simulate one slot on ``num_channels`` channels; return feedback.

        Supports both adversary families: oblivious jammers (the block API —
        Eve never sees node behaviour) and reactive jammers (the adaptive
        extension of :mod:`repro.adversary.reactive` — Eve senses which
        channels are busy *this slot* and reacts within it).

        A slot in which no node listens is not resolved: feedback reaches
        listeners only, so every entry is ``FB_NONE`` whatever the channels
        carry.  The adversary is still queried (and charged) every slot.
        """
        clock = self.clock
        decisions = [node.begin_slot(clock) for node in self.nodes]
        channels = np.array([ch for ch, _ in decisions], dtype=np.int64)
        actions = np.array([act for _, act in decisions], dtype=np.int8)
        listen = actions == ACT_LISTEN
        sending = (actions == ACT_SEND_MSG) | (actions == ACT_SEND_BEACON)
        if self.adversary is None:
            jam = None
        elif hasattr(self.adversary, "jam_slot"):
            busy = np.zeros(num_channels, dtype=bool)
            busy[channels[sending]] = True
            jam = np.asarray(self.adversary.jam_slot(clock, busy), dtype=bool)
            self.energy.charge_adversary(int(jam.sum()))
        else:
            block = JamBlock.coerce(self.adversary.jam_block(clock, 1, num_channels))
            jam = block.to_dense()[0]
            self.energy.charge_adversary(int(jam.sum()))
        if listen.any():
            if jam is None:
                jam = np.zeros(num_channels, dtype=bool)
            feedback = resolve_slot(channels, actions, jam)
        else:
            feedback = np.full(len(decisions), FB_NONE, dtype=np.int8)
        self.energy.charge_nodes(listen.astype(np.int64), sending.astype(np.int64))
        self.energy.advance(1)
        for node, fb in zip(self.nodes, feedback.tolist()):
            node.end_slot(clock, fb)
        return feedback

    def run(self, num_channels, until_all_halted: bool = True) -> int:
        """Run until every node halts (or ``max_slots``); return slots used.

        ``num_channels`` may be an int or a callable ``slot -> int`` for
        protocols whose channel count varies over time (``MultiCastAdv``).

        Hitting ``max_slots`` with nodes still active does not raise (one
        truncated execution should not abort a study), but it is never
        silent either: :attr:`overrun` flips to True, the way
        :meth:`repro.sim.engine.BatchNetwork.commit_counts_ragged` reports per-lane
        overruns.  Callers must treat such a run as truncated.
        """
        get_channels = num_channels if callable(num_channels) else (lambda _s: num_channels)
        while not all(node.halted for node in self.nodes):
            if self.clock >= self.max_slots:
                self.overrun = True
                break
            self.step(int(get_channels(self.clock)))
        return self.clock
