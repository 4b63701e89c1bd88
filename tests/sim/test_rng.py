"""Unit tests for the deterministic RNG fabric and the exact fast draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    RandomFabric,
    bounded_integer_rows,
    bounded_integers,
    derive_seed,
    skip_bounded_integers,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_root_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_label_order_matters(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "b", "a")

    def test_depth_matters(self):
        assert derive_seed(7, "a") != derive_seed(7, "a", "a")

    def test_integer_vs_string_labels_differ(self):
        # repr-based hashing distinguishes 1 from "1"
        assert derive_seed(7, 1) != derive_seed(7, "1")

    def test_range(self):
        for i in range(50):
            s = derive_seed(i, "x", i * 3)
            assert 0 <= s < 2**63

    def test_no_collisions_small_space(self):
        seeds = {derive_seed(0, "trial", i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestRandomFabric:
    def test_same_path_same_stream(self):
        a = RandomFabric(42).generator("nodes").integers(1 << 30, size=16)
        b = RandomFabric(42).generator("nodes").integers(1 << 30, size=16)
        assert (a == b).all()

    def test_different_paths_differ(self):
        a = RandomFabric(42).generator("nodes").integers(1 << 30, size=16)
        b = RandomFabric(42).generator("adversary").integers(1 << 30, size=16)
        assert (a != b).any()

    def test_child_fabric_independent(self):
        f = RandomFabric(42)
        child = f.child("sub")
        a = child.generator("x").integers(1 << 30, size=8)
        b = f.generator("x").integers(1 << 30, size=8)
        assert (a != b).any()

    def test_spawn_count_and_independence(self):
        gens = RandomFabric(1).spawn(5, "workers")
        draws = [g.integers(1 << 30, size=4) for g in gens]
        assert len(gens) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                assert (draws[i] != draws[j]).any()

    def test_trial_seeds_unique(self):
        seeds = RandomFabric(9).trial_seeds(100, "exp")
        assert len(set(seeds)) == 100

    def test_statistical_uniformity(self):
        # crude sanity: mean of uniforms near 0.5
        g = RandomFabric(3).generator("u")
        x = g.random(10_000)
        assert abs(x.mean() - 0.5) < 0.02


class TestBoundedIntegers:
    """``bounded_integers`` against ``Generator.integers``, the contract the
    block engines' bit-identity rests on (DESIGN.md section 6.5).

    Each case draws the same request both ways from twin generators and
    compares values, dtype and shape, then the *next* ``random()`` and
    ``integers()`` draws: equal follow-ups prove the stream was consumed
    identically.  The raw PCG64 state is compared too, except its
    ``uinteger`` field: the fast path leaves it untouched where ``integers``
    overwrites it, and numpy never reads it while ``has_uint32 == 0``.
    """

    HIGHS = [1, 2, 3, 4, 24, 32, 64, 2**20, 2**31]
    SHAPES = [(0,), (5, 0), (7,), (3, 5), (8,), (6, 4), (4, 3, 2)]

    @staticmethod
    def twins(seed=11, bit_generator=np.random.PCG64):
        return (
            np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)),
        )

    @staticmethod
    def assert_same_stream(ref_rng, fast_rng):
        def state(rng):  # repr: Philox states hold arrays
            raw = rng.bit_generator.state
            return repr({k: v for k, v in raw.items() if k != "uinteger"})

        assert state(ref_rng) == state(fast_rng)
        assert ref_rng.random() == fast_rng.random()
        # an odd-size follow-up reads a buffered half word if one was left
        np.testing.assert_array_equal(
            ref_rng.integers(0, 1000, size=3), fast_rng.integers(0, 1000, size=3)
        )
        assert ref_rng.random() == fast_rng.random()

    def check(self, ref_rng, fast_rng, high, shape, dtype):
        ref = ref_rng.integers(0, high, size=shape, dtype=dtype)
        out = np.empty(shape, dtype=dtype)
        assert bounded_integers(fast_rng, high, out) is out
        assert out.dtype == ref.dtype and out.shape == ref.shape
        np.testing.assert_array_equal(out, ref)
        self.assert_same_stream(ref_rng, fast_rng)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("high", HIGHS)
    def test_matches_integers(self, high, shape, dtype):
        self.check(*self.twins(), high, shape, dtype)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("high", HIGHS)
    def test_after_a_buffered_half_word(self, high, dtype):
        ref_rng, fast_rng = self.twins(seed=5)
        for g in (ref_rng, fast_rng):
            g.integers(0, 4, size=3, dtype=np.int32)  # odd count: half word left
            assert g.bit_generator.state["has_uint32"] == 1
        self.check(ref_rng, fast_rng, high, (6, 4), dtype)

    @pytest.mark.parametrize("high", [4, 24, 2**20])
    def test_non_contiguous_out(self, high):
        ref_rng, fast_rng = self.twins(seed=7)
        ref = ref_rng.integers(0, high, size=(4, 6), dtype=np.int32)
        base = np.full((8, 12), -1, dtype=np.int32)
        out = base[::2, ::2]
        assert not out.flags.c_contiguous
        bounded_integers(fast_rng, high, out)
        np.testing.assert_array_equal(out, ref)
        assert (base[1::2] == -1).all() and (base[:, 1::2] == -1).all()
        self.assert_same_stream(ref_rng, fast_rng)

    @pytest.mark.parametrize("high", [1, 4, 24])
    def test_philox_matches_integers(self, high):
        ref_rng, fast_rng = self.twins(seed=3, bit_generator=np.random.Philox)
        self.check(ref_rng, fast_rng, high, (6, 4), np.int32)

    @pytest.mark.parametrize(
        "bit_generator, high, shape, dtype, half_word, numpy_calls",
        [
            (np.random.PCG64, 4, (6, 4), np.int32, False, 0),  # the fast path
            (np.random.PCG64, 2**31, (2,), np.int64, False, 0),
            (np.random.Philox, 4, (6, 4), np.int32, False, 1),
            (np.random.PCG64, 1, (6, 4), np.int32, False, 1),
            (np.random.PCG64, 24, (6, 4), np.int32, False, 1),
            (np.random.PCG64, 4, (7,), np.int32, False, 1),  # odd count
            (np.random.PCG64, 4, (6, 4), np.int32, True, 1),
            (np.random.PCG64, 4, (6, 4), np.int16, False, 1),
        ],
    )
    def test_routing(self, bit_generator, high, shape, dtype, half_word, numpy_calls):
        class Spy:
            """Counts the ``integers`` calls made through it."""

            def __init__(self, rng):
                self.bit_generator = rng.bit_generator
                self.rng, self.calls = rng, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        ref_rng, fast_rng = self.twins(seed=9, bit_generator=bit_generator)
        if half_word:
            for g in (ref_rng, fast_rng):
                g.integers(0, 4, size=1, dtype=np.int32)
        spy = Spy(fast_rng)
        out = bounded_integers(spy, high, np.empty(shape, dtype=dtype))
        assert spy.calls == numpy_calls
        np.testing.assert_array_equal(
            out, ref_rng.integers(0, high, size=shape, dtype=dtype)
        )
        self.assert_same_stream(ref_rng, fast_rng)

    def test_numpy_high_bounds_still_raise(self):
        with pytest.raises(ValueError):
            bounded_integers(np.random.default_rng(0), 2**31 + 2, np.empty(4, np.int32))

    @given(
        seed=st.integers(0, 2**63 - 1),
        k=st.integers(0, 31),
        shape=st.lists(st.integers(0, 9), min_size=1, max_size=3),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_integers(self, seed, k, shape, dtype):
        self.check(*self.twins(seed=seed), 2**k, tuple(shape), dtype)


class TestInt32DrawsMatchInt64:
    """The dtype contract the Figs. 1/2 arena adapters rely on: they fill
    int32 chunk rows, while ``core/reference.py::PeriodDraws`` draws numpy's
    default int64.  For bounds up to 2**31 numpy takes one 32-bit word per
    value for both dtypes, so the values must be equal and the generator
    must end in the same state: the next 8 draws agree.  If a numpy release
    broke this, arena-vs-reference parity would break silently everywhere
    the parity suite does not reach."""

    HIGHS = [1, 2, 3, 6, 32, 64, 2**20, 2**31]
    COUNTS = [1, 2, 3, 811, 1967, 8192]

    @pytest.mark.parametrize("half_word", [False, True])
    @pytest.mark.parametrize("k", COUNTS)
    @pytest.mark.parametrize("high", HIGHS)
    def test_values_and_stream_position(self, high, k, half_word):
        wide_rng, narrow_rng = TestBoundedIntegers.twins(seed=17)
        if half_word:
            for g in (wide_rng, narrow_rng):
                g.integers(0, 4, size=1, dtype=np.int32)
                assert g.bit_generator.state["has_uint32"] == 1
        wide = wide_rng.integers(0, high, size=k)
        narrow = narrow_rng.integers(0, high, size=k, dtype=np.int32)
        assert wide.dtype == np.int64 and narrow.dtype == np.int32
        np.testing.assert_array_equal(narrow, wide)
        assert wide_rng.bit_generator.state == narrow_rng.bit_generator.state
        np.testing.assert_array_equal(
            wide_rng.integers(0, high, size=8), narrow_rng.integers(0, high, size=8)
        )


class TestSkipBoundedIntegers:
    """``skip_bounded_integers`` against the draw it stands for, the one the
    quiet MultiCastAdv step-I lanes skip (DESIGN.md sections 6.5 and 9.2).

    Twin generators: one draws ``bounded_integers(rng, high,
    np.empty(count, np.int32))``, the other skips the same request.  The
    states must match (``uinteger`` aside, as for ``bounded_integers``),
    and so must the next ``random()``, ``integers()`` and ``random_raw()``
    values.
    """

    HIGHS = [1, 2, 3, 4, 32, 2**20, 2**31]
    COUNTS = [0, 1, 7, 8, 64]

    twins = staticmethod(TestBoundedIntegers.twins)

    @staticmethod
    def assert_same_stream(ref_rng, fast_rng):
        TestBoundedIntegers.assert_same_stream(ref_rng, fast_rng)
        np.testing.assert_array_equal(
            ref_rng.bit_generator.random_raw(3), fast_rng.bit_generator.random_raw(3)
        )

    def check(self, ref_rng, fast_rng, high, count):
        bounded_integers(ref_rng, high, np.empty(count, dtype=np.int32))
        assert skip_bounded_integers(fast_rng, high, count) is None
        self.assert_same_stream(ref_rng, fast_rng)

    @pytest.mark.parametrize("half_word", [False, True])
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("high", HIGHS)
    def test_matches_the_draw(self, high, count, half_word):
        ref_rng, fast_rng = self.twins(seed=13)
        if half_word:
            for g in (ref_rng, fast_rng):
                g.integers(0, 4, size=1, dtype=np.int32)
                assert g.bit_generator.state["has_uint32"] == 1
        self.check(ref_rng, fast_rng, high, count)

    @pytest.mark.parametrize("count", [0, 7, 24])
    @pytest.mark.parametrize("high", [1, 4, 24])
    def test_philox_draws_and_discards(self, high, count):
        self.check(*self.twins(seed=3, bit_generator=np.random.Philox), high, count)

    @pytest.mark.parametrize(
        "bit_generator, high, count, half_word, route",
        [
            (np.random.PCG64, 4, 24, False, "advance"),
            (np.random.PCG64, 2, 2, False, "advance"),
            (np.random.PCG64, 2**31, 8, False, "advance"),
            (np.random.PCG64, 4, 0, False, "advance"),  # advance(0): a no-op
            (np.random.PCG64, 1, 24, False, "nothing"),
            (np.random.PCG64, 1, 7, True, "nothing"),
            (np.random.PCG64, 24, 24, False, "draw"),
            (np.random.PCG64, 4, 7, False, "draw"),  # odd count
            (np.random.PCG64, 4, 24, True, "draw"),  # buffered half word
            (np.random.Philox, 4, 24, False, "draw"),
        ],
    )
    def test_routing(self, bit_generator, high, count, half_word, route):
        """Which cases jump ahead, which consume nothing, which draw."""

        class Spy:
            """Counts the ``integers`` calls made through it."""

            def __init__(self, rng):
                self.bit_generator = rng.bit_generator
                self.rng, self.calls = rng, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        ref_rng, fast_rng = self.twins(seed=9, bit_generator=bit_generator)
        if half_word:
            for g in (ref_rng, fast_rng):
                g.integers(0, 4, size=1, dtype=np.int32)
        before = repr(fast_rng.bit_generator.state)
        spy = Spy(fast_rng)
        skip_bounded_integers(spy, high, count)
        assert spy.calls == (route == "draw")
        assert (repr(fast_rng.bit_generator.state) == before) == (
            route == "nothing" or count == 0
        )
        bounded_integers(ref_rng, high, np.empty(count, dtype=np.int32))
        self.assert_same_stream(ref_rng, fast_rng)

    def test_advance_is_a_jump(self):
        """2**62 values are skipped in O(log n): no value is ever drawn (a
        draw of that size could not even be allocated)."""
        ref_rng, fast_rng = self.twins(seed=21)
        ref_rng.bit_generator.advance(2**61)
        skip_bounded_integers(fast_rng, 8, 2**62)
        self.assert_same_stream(ref_rng, fast_rng)

    @given(
        seed=st.integers(0, 2**63 - 1),
        k=st.integers(0, 31),
        count=st.integers(0, 200),
        half_word=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_the_draw(self, seed, k, count, half_word):
        ref_rng, fast_rng = self.twins(seed=seed)
        if half_word:
            for g in (ref_rng, fast_rng):
                g.integers(0, 4, size=1, dtype=np.int32)
        self.check(ref_rng, fast_rng, 2**k, count)


class TestBoundedIntegerRows:
    """``bounded_integer_rows`` against the consecutive ``bounded_integers``
    calls it stands for: the Figs. 1/2 arena adapters fill each node's
    channel row and then its coin row with it (DESIGN.md section 7.2).

    Triplet generators: one makes the calls row by row, one draws each row
    with ``Generator.integers`` itself (so a fault in the exactness rule
    both paths ask cannot hide), the third makes one
    ``bounded_integer_rows`` call.  Values must match, and so must the
    generator state (``uinteger`` aside) and the next ``random()``,
    ``integers()`` and ``random_raw()`` draws.  Power-of-two and other
    bounds, even and odd counts, a buffered half word or none, PCG64 and
    Philox.
    """

    HIGHS = [(32, 64), (12, 64), (32, 6), (1, 4), (2, 2**31), (4, 8, 16)]
    COUNTS = [0, 1, 2, 7, 8, 811, 2572]

    twins = staticmethod(TestBoundedIntegers.twins)
    assert_same_stream = staticmethod(TestSkipBoundedIntegers.assert_same_stream)

    @staticmethod
    def triplets(seed, bit_generator=np.random.PCG64, half_word=False):
        rngs = [np.random.Generator(bit_generator(seed)) for _ in range(3)]
        if half_word:
            for g in rngs:
                g.integers(0, 4, size=1, dtype=np.int32)
                assert g.bit_generator.state.get("has_uint32") == 1
        return rngs

    def check(self, rngs, highs, count, dtype=np.int32):
        ref_rng, numpy_rng, fast_rng = rngs
        ref = np.empty((len(highs), count), dtype=dtype)
        for high, row in zip(highs, ref):
            bounded_integers(ref_rng, high, row)
        out = np.empty_like(ref)
        assert bounded_integer_rows(fast_rng, highs, out) is out
        np.testing.assert_array_equal(out, ref)
        for high, row in zip(highs, out):
            np.testing.assert_array_equal(
                row, numpy_rng.integers(0, high, size=count, dtype=dtype)
            )

        def state(rng):  # repr: Philox states hold arrays
            raw = rng.bit_generator.state
            return repr({k: v for k, v in raw.items() if k != "uinteger"})

        assert state(numpy_rng) == state(fast_rng)
        self.assert_same_stream(ref_rng, fast_rng)

    @pytest.mark.parametrize("half_word", [False, True])
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("highs", HIGHS)
    def test_matches_consecutive_calls(self, highs, count, half_word):
        self.check(self.triplets(19, half_word=half_word), highs, count)

    @pytest.mark.parametrize("count", [8, 811])
    @pytest.mark.parametrize("highs", [(32, 64), (12, 64)])
    def test_int64_rows(self, highs, count):
        self.check(self.triplets(23), highs, count, dtype=np.int64)

    @pytest.mark.parametrize("count", [0, 7, 24])
    @pytest.mark.parametrize("highs", [(32, 64), (12, 64)])
    def test_philox_matches_consecutive_calls(self, highs, count):
        self.check(self.triplets(3, bit_generator=np.random.Philox), highs, count)

    @pytest.mark.parametrize(
        "bit_generator, highs, count, half_word, numpy_calls",
        [
            (np.random.PCG64, (32, 64), 8192, False, 0),  # the one fill
            (np.random.PCG64, (32, 64), 811, False, 2),  # odd count
            (np.random.PCG64, (32, 64), 8192, True, 2),  # buffered half word
            (np.random.PCG64, (12, 64), 8192, False, 1),  # coin row raw
            (np.random.Philox, (32, 64), 8192, False, 2),
        ],
    )
    def test_routing(self, bit_generator, highs, count, half_word, numpy_calls):
        """No ``integers`` call when every row is raw words; otherwise one
        ``bounded_integers`` call per row, each routed on its own."""

        class Spy:
            """Counts the ``integers`` calls made through it."""

            def __init__(self, rng):
                self.bit_generator = rng.bit_generator
                self.rng, self.calls = rng, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        ref_rng, fast_rng = self.twins(seed=9, bit_generator=bit_generator)
        if half_word:
            for g in (ref_rng, fast_rng):
                g.integers(0, 4, size=1, dtype=np.int32)
        spy = Spy(fast_rng)
        out = np.empty((len(highs), count), dtype=np.int32)
        ref = np.empty_like(out)
        for high, row in zip(highs, ref):
            bounded_integers(ref_rng, high, row)
        bounded_integer_rows(spy, highs, out)
        np.testing.assert_array_equal(out, ref)
        assert spy.calls == numpy_calls
        self.assert_same_stream(ref_rng, fast_rng)
