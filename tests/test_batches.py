"""``nn.batches``: the one minibatch rule of the CVAE, ICW-GAN and DNN trainers."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from volsynth import nn

# each trainer's ``min_rows`` argument to ``nn.batches``
MIN_ROWS = {"cvae": lambda batch_size: 2, "icwgan": lambda batch_size: batch_size,
            "dnn": lambda batch_size: 1}


def reference_batches(trainer, order, config):
    """One pass's batches as each trainer cut them before ``nn.batches``: its loop
    header and slice, verbatim."""
    n = len(order)
    out = []
    if trainer == "cvae":
        for start in range(0, n - 1, config.batch_size):
            idx = order[start:start + config.batch_size]
            out.append(idx)
    elif trainer == "icwgan":
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = order[start:start + config.batch_size]
            out.append(idx)
    else:
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            out.append(idx)
    return out


@settings(max_examples=300, deadline=None)
@given(trainer=st.sampled_from(sorted(MIN_ROWS)), n=st.integers(0, 150),
       batch_size=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_each_trainer_cuts_the_batches_of_its_old_loop(trainer, n, batch_size, seed):
    order = np.random.default_rng(seed).permutation(n)
    got = nn.batches(order, batch_size, MIN_ROWS[trainer](batch_size))
    want = reference_batches(trainer, order, SimpleNamespace(batch_size=batch_size))
    assert [b.tolist() for b in got] == [b.tolist() for b in want]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 150), batch_size=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_pass_uses_each_index_once_in_batches_of_min_rows_or_more(data, n, batch_size,
                                                                    seed):
    min_rows = data.draw(st.integers(1, batch_size), label="min_rows")
    order = np.random.default_rng(seed).permutation(n)
    got = nn.batches(order, batch_size, min_rows)
    used = [int(i) for b in got for i in b]
    assert len(used) == len(set(used))                      # no index twice in a pass
    assert used == order[:len(used)].tolist()               # in the pass's order
    assert all(min_rows <= len(b) <= batch_size for b in got)
    assert n - len(used) < min_rows                         # only a short tail is left out
