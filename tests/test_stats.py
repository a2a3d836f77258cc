import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausspage import ensembles, stats
from gausspage.gstates import ConsistencyError
from gausspage.linalg import InvalidArgument, RngStream
from gausspage.stats import (
    draw_streams,
    histogram,
    ks_statistic,
    ks_statistic_one_sample,
    ks_two_sample_critical,
    mc_estimate,
)


def constant_sampler(value):
    return lambda gen, n: np.full(n, value)


def uniform_sampler(gen, n):
    return gen.random(n)


class TestMcEstimate:
    def test_constant(self):
        est = mc_estimate(constant_sampler(0.4), 100, seed=0)
        assert est.mean == pytest.approx(0.4, abs=1e-15)
        assert est.variance == pytest.approx(0.0, abs=1e-15)

    def test_uniform_moments(self):
        est = mc_estimate(uniform_sampler, 1_000_000, seed=1)
        assert abs(est.mean - 0.5) <= 3 * est.std_error
        var_se = est.variance_std_error()
        assert abs(est.variance - 1.0 / 12.0) <= 3 * var_se

    def test_deterministic(self):
        a = mc_estimate(uniform_sampler, 10_000, seed=2)
        b = mc_estimate(uniform_sampler, 10_000, seed=2)
        assert a == b

    def test_streaming_matches_two_pass(self):
        gen = np.random.default_rng(4)
        data = np.concatenate([gen.random(400_000), 1e6 * gen.random(300_000), 1e-6 * gen.random(300_000)])

        idx, lock = [0], threading.Lock()

        def replay(g, n):  # blocks run concurrently, so each takes the next n values in the order it asks
            with lock:
                start = idx[0]
                idx[0] += n
            return data[start : start + n]

        est = mc_estimate(replay, data.size, seed=0)
        assert idx == [data.size]
        assert est.mean == pytest.approx(np.mean(data), rel=1e-12)
        assert est.variance == pytest.approx(np.var(data, ddof=1), rel=1e-12)

    def test_rejects_tiny_runs(self):
        with pytest.raises(InvalidArgument):
            mc_estimate(uniform_sampler, 1, seed=0)

    @pytest.mark.parametrize("n", [1001, 1024, 3000])  # part of a block, one whole block, three blocks
    @pytest.mark.parametrize(
        "run", [uniform_sampler, lambda gen, n: ensembles.gaussian_entropies(6, 3, n, gen)], ids=["uniform", "gaussian"]
    )
    def test_estimate_is_the_two_pass_moments_of_the_drawn_samples(self, run, n):
        est = mc_estimate(run, n, 8)
        x = draw_streams(run, n, 8)
        d = x - np.mean(x)
        assert est.n == x.size == n
        assert est.mean == np.mean(x)
        assert est.variance == np.sum(d**2) / (n - 1)
        assert est.fourth_central == np.sum(d**4) / n


def serial_blocks(sampler, n, seed):
    """The samples of draw_streams drawn one block after another on this thread."""
    sizes = [min(stats._BLOCK, n - start) for start in range(0, n, stats._BLOCK)] or [0]
    return np.concatenate([sampler(RngStream(seed, b).generator(), size) for b, size in enumerate(sizes)])


class TestDrawStreams:
    @pytest.mark.parametrize("n", [0, 1, 1024, 1025, 3000])
    def test_blocks_are_concatenated_in_block_order(self, n):
        # block b draws samples [1024 b, 1024 (b + 1)) of the n in one call on RngStream(seed, b)
        calls = []

        def counting(gen, count):
            calls.append(count)
            return gen.random(count)

        expected = [RngStream(6, b).generator().random(min(1024, n - 1024 * b)) for b in range(max(1, -(-n // 1024)))]
        assert np.array_equal(draw_streams(counting, n, 6), np.concatenate(expected))
        assert sorted(calls) == sorted(len(x) for x in expected)

    def test_no_sample_still_calls_block_zero(self):
        # the sampler sees its arguments even when nothing is drawn, so it can refuse them
        calls = []

        def counting(gen, n):
            calls.append((gen.random(), n))
            return gen.random(n)

        assert draw_streams(counting, 0, 9).shape == (0,)
        assert calls == [(RngStream(9, 0).generator().random(), 0)]
        with pytest.raises(ensembles.ResourceLimit):
            draw_streams(bind(ensembles.haar_pure_entropies, 16, 8), 0, 9)

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidArgument):
            draw_streams(uniform_sampler, -1, 0)


# (sampler, N, N_A) of each batched sampler
BATCHED = [
    (ensembles.gaussian_entropies, 6, 3),
    (ensembles.hamiltonian_eigenstate_entropies, 5, 2),
    (ensembles.number_conserving_entropies, 6, 4),
    (ensembles.haar_pure_entropies, 6, 2),
]


def bind(sampler, N, N_A):
    return lambda gen, n: sampler(N, N_A, n, gen)


@pytest.fixture
def cores(monkeypatch):
    """``cores(k)``: blocks as on k cores, whatever this machine has, on a pool that ``stats._pool`` makes for them."""

    def use(k):
        monkeypatch.setattr(stats, "_cores", lambda: k)
        stats._pool.cache_clear()

    yield use
    if stats._pool.cache_info().currsize:
        stats._pool().shutdown()
    stats._pool.cache_clear()


class TestConcurrentBlocks:
    """Up to one block per core runs at a time; the samples are concatenated in block order."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("sampler, N, N_A", BATCHED)
    def test_same_bytes_on_any_core_count(self, sampler, N, N_A, k, cores):
        # 3000 samples: two whole blocks and a last one of 952
        cores(k)
        run = bind(sampler, N, N_A)
        assert np.array_equal(draw_streams(run, 3000, 7), serial_blocks(run, 3000, 7))

    @pytest.mark.parametrize("blocks", [3, 5])
    @pytest.mark.parametrize("failing", [{0}, {2}, {1, 2}])
    def test_the_lowest_failing_block_is_raised_once_every_block_has_ended(self, failing, blocks, cores):
        # three threads take blocks 0, 1 and 2, which run for 50, 300 and 100 ms; a failing block 2 fails at
        # once.  Blocks past a failed one never start, and a block 0 that fails first waits for blocks 1 and 2.
        cores(3)
        lock, busy, ended = threading.Lock(), [0], []
        block_of = {RngStream(1, b).generator().random(): b for b in range(blocks)}

        def sampler(gen, n):
            b = block_of[gen.random()]
            with lock:
                busy[0] += 1
            try:
                time.sleep((0.05, 0.3)[b] if b < 2 else 0.0 if b in failing else 0.1)
                if b in failing:
                    raise ConsistencyError(f"block {b}")
                return np.zeros(n)
            finally:
                with lock:
                    busy[0] -= 1
                    ended.append(b)

        with pytest.raises(ConsistencyError, match=f"block {min(failing)}"):
            mc_estimate(sampler, 1024 * blocks, 1)
        assert busy == [0] and sorted(ended) == [0, 1, 2]
        assert stats._pool().submit(lambda: None).result(timeout=10) is None  # no block thread is left busy

    def test_at_most_one_block_per_core(self, cores):
        cores(3)
        lock, state = threading.Lock(), {"busy": 0, "peak": 0, "calls": 0}
        first_round = threading.Barrier(3, timeout=20)  # the first three blocks run at once, or this times out

        def sampler(gen, n):
            with lock:
                state["busy"] += 1
                state["peak"] = max(state["peak"], state["busy"])
                state["calls"] += 1
                call = state["calls"]
            try:
                if call <= 3:
                    first_round.wait()
                time.sleep(0.01)
                return gen.random(n)
            finally:
                with lock:
                    state["busy"] -= 1

        x = draw_streams(sampler, 7 * 1024 - 5, 4)
        assert state["peak"] == 3 and state["calls"] == 7
        assert np.array_equal(x, serial_blocks(uniform_sampler, 7 * 1024 - 5, 4))

    def test_more_threads_than_cores(self, cores, monkeypatch):
        # 41 blocks of a batched sampler on eight threads of a two-core machine, with threads switched often
        cores(8)
        monkeypatch.setattr(stats, "_BLOCK", 100)
        run = bind(ensembles.hamiltonian_eigenstate_entropies, 5, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(1) as caller:
                threaded = caller.submit(draw_streams, run, 4100, 3).result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded, serial_blocks(run, 4100, 3))

    @pytest.mark.parametrize("below_a_sample", [False, True])
    def test_batches_in_flight_stay_within_the_bound(self, below_a_sample, cores, monkeypatch):
        # gaussian (10, 5) counts 5^2 = 25 words a sample and draws 18 gamma variates; on three cores a bound of
        # 5000 words gives batches of 1666 // 25 = 66 samples (1188 drawn words), and at most three blocks hold
        # one batch each at a time
        lock, held, peak = threading.Lock(), [0], [0]
        real_in_batches = ensembles._in_batches

        def release(size):
            with lock:
                held[0] -= size

        def in_batches(count, per_sample, draw, reduce):
            def held_draw(b):  # a batch's words are held from its draw until it is freed
                arrays = draw(b)
                with lock:
                    held[0] += sum(x.size for x in arrays)
                    peak[0] = max(peak[0], held[0])
                for x in arrays:
                    weakref.finalize(x, release, x.size)
                time.sleep(0.001)  # while the other blocks draw theirs
                return arrays

            return real_in_batches(count, per_sample, held_draw, reduce)

        cores(3)
        monkeypatch.setattr(ensembles, "_cores", lambda: 3)
        monkeypatch.setattr(stats, "_BLOCK", 100)  # 600 samples in six blocks
        monkeypatch.setattr(ensembles, "_BATCH_ELEMENTS", 50 if below_a_sample else 5000)
        run = bind(ensembles.gaussian_entropies, 10, 5)
        with monkeypatch.context() as m:
            m.setattr(ensembles, "_in_batches", in_batches)
            threaded = draw_streams(run, 600, 2)
        if below_a_sample:
            assert 18 <= peak[0] <= 3 * 18  # one sample per running block
        else:
            assert 66 * 18 <= peak[0] <= 5000
        assert held == [0]
        assert np.array_equal(threaded, serial_blocks(run, 600, 2))


class TestKs:
    def test_identical(self):
        a = np.array([0.1, 0.2, 0.7])
        assert ks_statistic(a, a.copy()) == 0.0

    def test_disjoint(self):
        assert ks_statistic(np.array([0.0, 1.0]), np.array([5.0, 6.0])) == 1.0

    def test_same_distribution_below_critical(self):
        gen = np.random.default_rng(5)
        a, b = gen.random(10_000), gen.random(10_000)
        assert ks_statistic(a, b) < 1.63 * np.sqrt(2.0 / 10_000)

    def test_critical_value_formula(self):
        assert ks_two_sample_critical(10_000, 10_000) == pytest.approx(
            1.6276 * np.sqrt(2.0 / 10_000), rel=1e-3
        )

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgument):
            ks_statistic(np.array([]), np.array([1.0]))

    @pytest.mark.parametrize("a, b", [([0.1, np.nan], [0.1, 0.2]), ([0.1, 0.2], [0.1, -np.inf])])
    def test_rejects_non_finite_samples(self, a, b):
        # a NaN sorts last and matches no searchsorted position, so the statistic would mean nothing
        with pytest.raises(InvalidArgument, match="finite"):
            ks_statistic(np.array(a), np.array(b))

    @pytest.mark.parametrize("samples, cdf", [([0.1, np.nan], [0.2, np.nan]), ([0.1, 0.2], [0.2, np.nan])])
    def test_one_sample_rejects_non_finite_input(self, samples, cdf):
        with pytest.raises(InvalidArgument, match="finite"):
            ks_statistic_one_sample(np.array(samples), np.array(cdf))


class TestHistogram:
    def test_single_sample(self):
        h = histogram(np.array([0.5]), 2, (0.0, 1.0))
        assert h.counts.tolist() in ([1, 0], [0, 1])
        assert h.total == 1

    def test_uniform_fill(self):
        gen = np.random.default_rng(6)
        h = histogram(gen.random(100_000), 10, (0.0, 1.0))
        bound = 3 * np.sqrt(100_000 * 0.1 * 0.9)
        assert np.all(np.abs(h.counts - 10_000) <= bound)

    def test_out_of_range_accounting(self):
        samples = np.array([-1.0, 0.5, 2.0, 0.25])
        h = histogram(samples, 4, (0.0, 1.0))
        assert h.underflow == 1
        assert h.overflow == 1
        assert h.counts.sum() + h.underflow + h.overflow == h.total == 4

    def test_rejects_empty_range(self):
        with pytest.raises(InvalidArgument):
            histogram(np.array([1.0]), 3, (2.0, 2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        # a NaN would fall in no bin and in neither out-of-range count, so the counts would not add up to total
        with pytest.raises(InvalidArgument, match="finite"):
            histogram(np.array([0.5, bad]), 2, (0.0, 1.0))


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=100, deadline=None)
def test_histogram_conservation_property(values, bins):
    h = histogram(np.array(values), bins, (-5.0, 5.0))
    assert h.counts.sum() + h.underflow + h.overflow == len(values)
