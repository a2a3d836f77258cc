import threading
import time
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
        a = mc_estimate(uniform_sampler, 10_000, seed=2, workers=4)
        b = mc_estimate(uniform_sampler, 10_000, seed=2, workers=4)
        assert a == b

    def test_worker_partition_fixed_by_stream(self):
        # stream w draws its n/workers samples from RngStream(seed, w), whatever the call order
        a = mc_estimate(uniform_sampler, 9999, seed=3, workers=3)
        assert a.n == 9999
        draws = np.concatenate([RngStream(3, w).generator().random(3333) for w in range(3)])
        assert a.mean == pytest.approx(np.mean(draws), rel=1e-14)
        assert a.variance == pytest.approx(np.var(draws, ddof=1), rel=1e-12)

    def test_streams_past_the_samples_are_not_visited(self):
        # with more workers than samples, streams past the n-th draw nothing: 10**12 of them cost nothing
        counts = []

        def counting(gen, n):
            counts.append(n)
            return gen.random(n)

        assert mc_estimate(counting, 10, seed=5, workers=10**12) == mc_estimate(uniform_sampler, 10, seed=5, workers=10)
        assert counts == [1] * 10

    def test_streaming_matches_two_pass(self):
        gen = np.random.default_rng(4)
        data = np.concatenate([gen.random(400_000), 1e6 * gen.random(300_000), 1e-6 * gen.random(300_000)])

        idx = [0]

        def replay(g, n):
            start = idx[0]
            idx[0] += n
            return data[start : start + n]

        est = mc_estimate(replay, data.size, seed=0, workers=1)
        assert est.mean == pytest.approx(np.mean(data), rel=1e-12)
        assert est.variance == pytest.approx(np.var(data, ddof=1), rel=1e-12)

    def test_rejects_tiny_runs(self):
        with pytest.raises(InvalidArgument):
            mc_estimate(uniform_sampler, 1, seed=0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "run", [uniform_sampler, lambda gen, n: ensembles.gaussian_entropies(6, 3, n, gen)], ids=["uniform", "gaussian"]
    )
    def test_estimate_is_the_two_pass_moments_of_the_drawn_samples(self, run, workers):
        est = mc_estimate(run, 1001, 8, workers)
        x = draw_streams(run, 1001, 8, workers)
        d = x - np.mean(x)
        assert est.n == x.size == 1001
        assert est.mean == np.mean(x)
        assert est.variance == np.sum(d**2) / 1000
        assert est.fourth_central == np.sum(d**4) / 1001


class TestDrawStreams:
    @pytest.mark.parametrize("n, workers", [(9999, 3), (10, 4), (7, 1), (3, 5)])
    def test_streams_are_concatenated_in_stream_order(self, n, workers):
        # stream w draws n//workers samples, plus one of the remainder, in one call on RngStream(seed, w)
        base, rem = divmod(n, workers)
        expected = [RngStream(6, w).generator().random(base + (w < rem)) for w in range(min(workers, n))]
        assert np.array_equal(draw_streams(uniform_sampler, n, 6, workers), np.concatenate(expected))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_sample_still_calls_stream_zero(self, workers):
        # the sampler sees its arguments even when nothing is drawn, so it can refuse them
        calls = []

        def counting(gen, n):
            calls.append((gen.random(), n))
            return gen.random(n)

        assert draw_streams(counting, 0, 9, workers).shape == (0,)
        assert calls == [(RngStream(9, 0).generator().random(), 0)]
        with pytest.raises(ensembles.ResourceLimit):
            draw_streams(bind(ensembles.haar_pure_entropies, 15, 5), 0, 9, workers)

    @pytest.mark.parametrize("n, workers", [(-1, 1), (10, 0)])
    def test_rejects_bad_counts(self, n, workers):
        with pytest.raises(InvalidArgument):
            draw_streams(uniform_sampler, n, 0, workers)


# (sampler, N, N_A) of each batched sampler; batches of 64 samples give each stream several batches
BATCHED = [
    (ensembles.gaussian_entropies, 6, 3),
    (ensembles.hamiltonian_eigenstate_entropies, 5, 2),
    (ensembles.number_conserving_entropies, 6, 4),
    (ensembles.haar_pure_entropies, 6, 2),
]


def bind(sampler, N, N_A):
    return lambda gen, n: sampler(N, N_A, n, gen)


@pytest.fixture
def three_cores(monkeypatch):
    """Streams as on three cores, whatever this machine has: the caller and two stream threads."""
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(stats, "_cores", lambda: 3)
    monkeypatch.setattr(stats, "_stream_pool", lambda: pool)
    yield pool
    pool.shutdown()


class TestConcurrentStreams:
    """Up to one stream per core runs at a time; the samples are concatenated in stream order."""

    @staticmethod
    def serial(monkeypatch, sampler, n, seed, workers):
        with monkeypatch.context() as m:
            m.setattr(stats, "_stream_pool", lambda: None)  # as on one core
            return mc_estimate(sampler, n, seed, workers)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("sampler, N, N_A", BATCHED)
    def test_stream_threads_match_one_thread(self, sampler, N, N_A, workers, three_cores, monkeypatch):
        # more streams than cores, with uneven counts: 1001 samples over 2, 3 or 5 streams
        monkeypatch.setattr(ensembles, "_BATCH", 64)
        run = bind(sampler, N, N_A)
        assert mc_estimate(run, 1001, 7, workers) == self.serial(monkeypatch, run, 1001, 7, workers)

    @pytest.mark.parametrize("workers", [3, 5])
    @pytest.mark.parametrize("failing", [{2}, {1, 2}])
    def test_the_lowest_failing_stream_is_raised_once_every_stream_has_ended(self, failing, workers, three_cores):
        # 11 samples over 3 or 5 streams; stream 2 fails at once, and the calling thread, which is most
        # often the one to take stream 0, is done long before stream 1.  Streams past a failed one never start.
        lock, busy, ended = threading.Lock(), [0], []
        stream_of = {RngStream(1, w).generator().random(): w for w in range(workers)}

        def sampler(gen, n):
            w = stream_of[gen.random()]
            with lock:
                busy[0] += 1
            try:
                time.sleep((0.05, 0.3)[w] if w < 2 else 0.0)
                if w in failing:
                    raise ConsistencyError(f"stream {w}")
                return np.zeros(n)
            finally:
                with lock:
                    busy[0] -= 1
                    ended.append(w)

        with pytest.raises(ConsistencyError, match=f"stream {min(failing)}"):
            mc_estimate(sampler, 11, 1, workers=workers)
        assert busy == [0] and sorted(ended) == [0, 1, 2]
        assert three_cores.submit(lambda: None).result(timeout=10) is None  # no stream thread is left busy

    def test_at_most_one_stream_per_core(self, monkeypatch):
        monkeypatch.setattr(stats, "_cores", lambda: 3)
        pool = ThreadPoolExecutor(8)  # more threads than cores: the count of streams in flight is what caps them
        monkeypatch.setattr(stats, "_stream_pool", lambda: pool)
        lock, state = threading.Lock(), {"busy": 0, "peak": 0, "calls": 0}
        first_round = threading.Barrier(3, timeout=20)  # the first three streams run at once, or this times out

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

        try:
            est = mc_estimate(sampler, 50, 4, workers=7)
            start = time.perf_counter()
            many = mc_estimate(sampler, 10, 5, workers=10**12)  # streams past the n-th are never started
            seconds = time.perf_counter() - start
        finally:
            pool.shutdown()
        assert state["peak"] == 3 and state["calls"] == 7 + 10
        assert est == self.serial(monkeypatch, uniform_sampler, 50, 4, 7)
        assert many == self.serial(monkeypatch, uniform_sampler, 10, 5, 10) and seconds < 10

    @pytest.mark.parametrize("below_a_sample", [False, True])
    def test_batches_in_flight_stay_within_the_bound(self, below_a_sample, three_cores, monkeypatch):
        # gaussian (6, 3) takes 72 words a sample; on three cores a bound of 5000 words gives batches of
        # 1666 // 72 = 23 samples (1656 words), and at most three streams hold one batch each at a time
        lock, held, peak = threading.Lock(), [0], [0]
        real_draw, real_reduce = ensembles._real_ginibre, ensembles._reduce_batch

        def draw(*args):  # a batch's words are held from its draw until it is reduced
            g = real_draw(*args)
            with lock:
                held[0] += g.size
                peak[0] = max(peak[0], held[0])
            time.sleep(0.001)  # while the other streams draw theirs
            return g

        def reduce_batch(out, inputs, reduce, pieces):
            try:
                real_reduce(out, inputs, reduce, pieces)
            finally:
                with lock:
                    held[0] -= sum(x.size for x in inputs)

        monkeypatch.setattr(ensembles, "_cores", lambda: 3)
        monkeypatch.setattr(ensembles, "_BATCH", 64)
        monkeypatch.setattr(ensembles, "_BATCH_ELEMENTS", 50 if below_a_sample else 5000)
        run = bind(ensembles.gaussian_entropies, 6, 3)
        with monkeypatch.context() as m:
            m.setattr(ensembles, "_real_ginibre", draw)
            m.setattr(ensembles, "_reduce_batch", reduce_batch)
            threaded = mc_estimate(run, 600, 2, workers=3)
        if below_a_sample:
            assert 72 <= peak[0] <= 3 * 72  # one sample per running stream
        else:
            assert 23 * 72 <= peak[0] <= 5000
        assert held == [0]
        assert threaded == self.serial(monkeypatch, run, 600, 2, 3)


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
