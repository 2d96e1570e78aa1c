"""Memory shape of one execution and of one test case's crash images.

The persistence domain keeps one dense buffer per execution (the
volatile view, plus a pre-image of each pending line), the pool hands
that buffer to its output image at close, and the single pass's crash
images are built one at a time, when the caller reads them.  These
tests pin that shape with :mod:`tracemalloc`: the peak of what the
measured step allocates, as a multiple of the pool size, on
``hashmap_tx`` with its 256 KiB pool.  A second dense copy anywhere on
these paths (two buffers in the domain, a copy at close, every crash
image built at once) moves the peak past the bound.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.crashgen import CrashImageGenerator
from repro.fuzz.executor import Executor
from repro.fuzz.rng import DeterministicRandom
from repro.pmdk.pool import DEFAULT_POOL_SIZE
from repro.workloads import get_workload

DATA = b"i 1 10\ni 2 20\ni 3 30\ni 4 40\ng 1\nr 2\n"


def factory():
    return get_workload("hashmap_tx")


def traced_peak(step) -> int:
    """Peak bytes ``step()`` allocates, its result included."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def image():
    image = factory().create_image()
    assert len(image) == DEFAULT_POOL_SIZE == 256 * 1024
    return image


def test_warm_hit_execution_peaks_below_one_and_a_half_pools(image):
    executor = Executor(factory)
    executor.run(image, DATA)  # miss: fills the warm-open cache
    executor.run(image, DATA)  # first hit: the entry is frozen by now
    assert executor.warm_cache.hits == 1
    results = []
    peak = traced_peak(lambda: results.append(executor.run(image, DATA)))
    assert executor.warm_cache.hits == 2
    assert results[0].final_image is not None
    assert peak < 1.5 * DEFAULT_POOL_SIZE, peak / DEFAULT_POOL_SIZE


def test_crash_images_taken_one_at_a_time_peak_below_three_pools(image):
    executor = Executor(factory)
    parent = executor.run(image, DATA)
    generator = CrashImageGenerator(executor, DeterministicRandom(1))
    taken = []

    def take():
        crashes = generator.generate(image, DATA, parent.fence_count,
                                     parent.store_count)
        for crash in crashes:
            taken.append(len(crash.image.payload))

    peak = traced_peak(take)
    assert taken == [DEFAULT_POOL_SIZE] * 6
    assert peak < 3 * DEFAULT_POOL_SIZE, peak / DEFAULT_POOL_SIZE
