import functools

import numpy as np
import pytest

from volsynth import cvae, datasets, harness
from volsynth.volumes import Volume


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def blob_bench_results():
    """The 3-seed desk-scale benchmark, its seeds on worker interpreters;
    shared so it runs once per session."""
    return harness.run_in_workers(
        functools.partial(harness.blob_benchmark, log=harness.log_stderr), (0, 1, 2))


@pytest.fixture(scope="session")
def constant_volume_training():
    """CVAE trained 50 epochs on a one-class constant-0.5 dataset."""
    volumes = [Volume(np.full((8, 8, 8), 0.5, dtype=np.float32)) for _ in range(20)]
    dataset = datasets.VolumeDataset(volumes, [0] * 20, ["only"])
    config = cvae.CVAEConfig(latent_dim=4, enc_channels=(4, 8), dec_channels=(8, 4),
                             batch_size=10, epochs=50, learning_rate=1e-3, seed=0)
    model, history = cvae.train_cvae(dataset, config)
    return model, history
