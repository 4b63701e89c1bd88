"""Tests for the analysis harness (stats, fits, tables, theory, sweeps)."""

import math

import numpy as np
import pytest

from repro import BlanketJammer, MultiCastCore, run_broadcast
from repro.analysis import (
    Summary,
    fit_linear,
    fit_loglog_slope,
    render_table,
    run_trials,
    sweep,
    theory,
)
from repro.sim.rng import derive_seed


class TestSummary:
    def test_basic_stats(self):
        s = Summary.of([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.lo == 1.0 and s.hi == 4.0
        assert s.ci95 == pytest.approx(1.96 * s.std / 2.0)

    def test_single_value(self):
        s = Summary.of([7.0])
        assert s.mean == 7.0 and s.std == 0.0 and s.ci95 == 0.0

    def test_empty(self):
        s = Summary.of([])
        assert math.isnan(s.mean)


class TestFits:
    def test_linear_exact(self):
        fit = fit_linear([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_power_law_exact(self):
        x = np.array([1.0, 10.0, 100.0])
        fit = fit_loglog_slope(x, 5 * x**0.5)
        assert fit.exponent == pytest.approx(0.5)
        assert fit.scale == pytest.approx(5.0)

    def test_loglog_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [0, 1])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1])


class TestTables:
    def test_render_basic(self):
        out = render_table(["a", "bb"], [[1, 2.5], [30, 0.001]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_nan_rendering(self):
        out = render_table(["x"], [[float("nan")]])
        assert "—" in out


class TestTheory:
    def test_multicast_time_shape(self):
        T = np.array([0.0, 64_000.0])
        b = theory.multicast_time(T, 64)
        assert b[0] == pytest.approx(math.log2(64) ** 2)
        assert b[1] == pytest.approx(1000 + 36)

    def test_multicast_cost_sqrt(self):
        big = theory.multicast_cost(4_000_000, 64)
        small = theory.multicast_cost(1_000_000, 64)
        assert 1.8 < big / small < 2.4  # ~sqrt(4) with log drift

    def test_adv_time_alpha_dependence(self):
        """Larger alpha = worse T-dependence (smaller n^{1-2a} divisor)."""
        lo = theory.adv_time(1e6, 64, 0.05)
        hi = theory.adv_time(1e6, 64, 0.24)
        assert hi > lo

    def test_limited_time_inverse_c(self):
        t1 = theory.limited_time(1e6, 64, 1)
        t32 = theory.limited_time(1e6, 64, 32)
        assert t1 / t32 == pytest.approx(32.0)

    def test_normalize_to(self):
        pred = np.array([1.0, 2.0, 4.0])
        measured = np.array([10.0, 19.0, 40.0])
        scaled = theory.normalize_to(pred, measured)
        assert scaled[-1] == pytest.approx(40.0)
        assert scaled[0] == pytest.approx(10.0)


class TestTrialsAndSweeps:
    def test_run_trials_reproducible(self):
        mk = lambda: MultiCastCore(n=16, T=0, a=8192.0)
        b1 = run_trials(mk, 16, trials=3, base_seed=9)
        b2 = run_trials(mk, 16, trials=3, base_seed=9)
        np.testing.assert_array_equal(b1.slots, b2.slots)
        np.testing.assert_array_equal(b1.max_cost, b2.max_cost)

    def test_run_trials_independent_seeds(self):
        mk = lambda: MultiCastCore(n=16, T=0, a=8192.0)
        batch = run_trials(mk, 16, trials=4, base_seed=1)
        assert len(set(batch.max_cost.tolist())) > 1

    def test_batch_metrics(self):
        mk = lambda: MultiCastCore(n=16, T=0, a=8192.0)
        batch = run_trials(mk, 16, trials=3, base_seed=2)
        assert batch.success_rate == 1.0
        assert batch.violations == 0
        assert (batch.adversary_spend == 0).all()
        assert not np.isnan(batch.dissemination_slots).any()

    def test_adversary_factory_used(self):
        mk = lambda: MultiCastCore(n=16, T=1000, a=8192.0)
        batch = run_trials(
            mk,
            16,
            lambda seed: BlanketJammer(budget=1000, channels=1, seed=seed),
            trials=2,
            base_seed=3,
        )
        assert (batch.adversary_spend == 1000).all()

    def test_sweep_structure(self):
        sw = sweep(
            "a",
            [4096.0, 8192.0],
            lambda a: MultiCastCore(n=16, T=0, a=a),
            lambda a: 16,
            trials=2,
            base_seed=4,
        )
        assert len(sw) == 2
        np.testing.assert_array_equal(sw.values, [4096.0, 8192.0])
        # iteration length doubles with a
        assert sw.means("slots")[1] > sw.means("slots")[0]
        assert sw.success_rates.shape == (2,)


class TestBackends:
    """run_trials runs one lane stream, and every trial equals its
    per-trial run_broadcast oracle."""

    N = 16
    TRIALS = 5

    def _factory(self):
        return MultiCastCore(self.N, 2_000)

    def _adversary(self, seed):
        return BlanketJammer(1_500, channels=0.5, seed=seed)

    def _run(self, **kwargs):
        return run_trials(
            self._factory,
            self.N,
            self._adversary,
            trials=self.TRIALS,
            base_seed=9,
            label="backend-test",
            **kwargs,
        )

    def _oracle(self):
        """Per-trial run_broadcast over the same derived seeds."""
        return [
            run_broadcast(
                self._factory(),
                self.N,
                self._adversary(derive_seed(9, "backend-test", "eve", t)),
                seed=derive_seed(9, "backend-test", "net", t),
            )
            for t in range(self.TRIALS)
        ]

    @staticmethod
    def _assert_batches_equal(a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.slots == y.slots
            assert x.adversary_spend == y.adversary_spend
            np.testing.assert_array_equal(x.node_energy, y.node_energy)
            np.testing.assert_array_equal(x.informed_slot, y.informed_slot)
            np.testing.assert_array_equal(x.halt_slot, y.halt_slot)

    def test_batched_equals_scalar(self):
        self._assert_batches_equal(self._run().results, self._oracle())

    def test_lane_width_is_not_semantic(self):
        self._assert_batches_equal(
            self._run(lane_width=1).results, self._run(lane_width=64).results
        )

    def test_auto_uses_batched_for_serial_runs(self, monkeypatch):
        """A serial run is one lane stream over the whole trial list."""
        import repro.core.batch as batch

        calls = []
        stream = batch.run_broadcast_stream

        def spy(protocol, n, adversaries, seeds, **kwargs):
            calls.append(len(seeds))
            return stream(protocol, n, adversaries, seeds, **kwargs)

        monkeypatch.setattr(batch, "run_broadcast_stream", spy)
        self._assert_batches_equal(self._run().results, self._oracle())
        assert calls == [self.TRIALS]
