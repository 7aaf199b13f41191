import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angiosim.pcg64 import BLOCK, Generator

SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**32 - 1),
                  st.integers(2**64, 2**96), st.integers(2**128, 2**200))
SIZES = st.one_of(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]), st.integers(1, 3 * BLOCK),
                  st.tuples(st.integers(1, 200), st.integers(1, 200)))
BOUNDS = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(lambda b: (b[0], b[0] + b[1]))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, sizes=st.tuples(SIZES, SIZES), bounds=BOUNDS)
@example(seed=0, sizes=(BLOCK - 1, BLOCK + 1), bounds=(-1.0, 1.0))
@example(seed=2**32 - 1, sizes=(BLOCK, (3, 5)), bounds=(-1.0, 1.0))
@example(seed=2**32, sizes=((256, 256), 7), bounds=(0.5, 2.0))
@example(seed=2**64 + 1, sizes=(BLOCK + 1, BLOCK), bounds=(-1.0, 1.0))
@example(seed=2**128 + 9, sizes=(1, 2 * BLOCK), bounds=(-1.0, 1.0))
def test_uniform_draws_numpys_bits_and_carries_its_stream_on(seed, sizes, bounds):
    # u then v of another size from one generator, as make_initial draws them;
    # the block boundaries are where the stream is stitched from the jump table
    ours, numpys = Generator(seed), np.random.default_rng(seed)
    for size in sizes:
        got, want = ours.uniform(*bounds, size), numpys.uniform(*bounds, size)
        assert got.shape == want.shape
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


def test_a_negative_seed_raises_as_numpys_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Generator(-1)


def test_a_draw_holds_its_output_and_about_1_mb_more():
    # the jump table's four word arrays and one block's temporaries, 0.99 MB
    # at BLOCK = 8192 states, whatever the size of the draw
    for size in (48, 3 * BLOCK + 5, (512, 512)):
        gen = Generator(3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = gen.uniform(-1.0, 1.0, size)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 1.05e6, size
