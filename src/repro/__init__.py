"""repro — Fast and Resource Competitive Broadcast in Multi-channel Radio Networks.

A full, from-scratch Python reproduction of Chen & Zheng (SPAA 2019,
arXiv:1904.06328): the synchronous multi-channel radio-network model with an
oblivious jamming adversary, the paper's five broadcast protocols
(``MultiCastCore``, ``MultiCast``, ``MultiCastAdv`` and their channel-limited
variants), a gallery of jamming strategies, classic baselines, and a parallel
Monte Carlo campaign engine (:mod:`repro.exp`, ``python -m repro sweep``)
that regenerates the paper's theorem-level claims with confidence intervals.
Trial batches run through a lane-batched execution engine
(:func:`repro.core.batch.run_broadcast_stream`, DESIGN.md sections 6 and 13)
that is bit-identical per trial to the scalar path and several times faster
on a single core.  The
adaptive-adversary arena (:mod:`repro.arena`, DESIGN.md section 7) probes the
paper's section-8 conjecture: reactive jammers (``sniper``, ``trailing``,
``reactive:<latency>``) run against every protocol on a vectorized,
window-stepped runtime via :func:`run_broadcast_adaptive`, and
:func:`run_broadcast` dispatches there automatically.

Quickstart::

    from repro import MultiCast, BlanketJammer, run_broadcast

    n = 64
    result = run_broadcast(
        MultiCast(n, a=0.02),
        n,
        adversary=BlanketJammer(budget=100_000, channels=0.5),
        seed=7,
    )
    print(result)                       # success, slots, max node cost, Eve's spend
    assert result.success
    assert result.max_cost < result.adversary_spend   # resource competitiveness

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.adversary import (
    Adversary,
    BlanketJammer,
    FractionalJammer,
    FrontLoadedJammer,
    NoJammer,
    ObliviousJammer,
    PeriodicBurstJammer,
    PhaseTargetedJammer,
    RandomJammer,
    ReactiveLatencyJammer,
    ReplayJammer,
    ScheduleJammer,
    SniperJammer,
    SweepJammer,
    TrailingJammer,
)
from repro.arena import ArenaNetwork, run_broadcast_adaptive
from repro.core import (
    BroadcastResult,
    MultiCast,
    MultiCastAdv,
    MultiCastAdvC,
    MultiCastC,
    MultiCastCore,
    multicast_adv_spans,
    multicast_core_spans,
    multicast_spans,
    phase_intervals,
    run_broadcast,
    run_broadcast_batch,
)
from repro.sim import BatchNetwork, RadioNetwork, RandomFabric, TraceRecorder

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "ArenaNetwork",
    "BatchNetwork",
    "BlanketJammer",
    "BroadcastResult",
    "FractionalJammer",
    "FrontLoadedJammer",
    "MultiCast",
    "MultiCastAdv",
    "MultiCastAdvC",
    "MultiCastC",
    "MultiCastCore",
    "NoJammer",
    "ObliviousJammer",
    "PeriodicBurstJammer",
    "PhaseTargetedJammer",
    "RadioNetwork",
    "RandomFabric",
    "RandomJammer",
    "ReactiveLatencyJammer",
    "ReplayJammer",
    "ScheduleJammer",
    "SniperJammer",
    "SweepJammer",
    "TrailingJammer",
    "TraceRecorder",
    "multicast_adv_spans",
    "multicast_core_spans",
    "multicast_spans",
    "phase_intervals",
    "run_broadcast",
    "run_broadcast_adaptive",
    "run_broadcast_batch",
    "__version__",
]
