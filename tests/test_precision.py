"""Models build in float64 and cast once to their config's precision."""

import numpy as np
import pytest

from volsynth import classifiers as clf
from volsynth import cvae, icwgan, nn

MODELS = {
    "Generator": lambda dtype, rng: icwgan.Generator(
        (8, 8, 8), 3, icwgan.GANConfig(z_dim=3, gen_channels=(4, 3), dtype=dtype), rng),
    "Discriminator": lambda dtype, rng: icwgan.Discriminator(
        (8, 8, 8), 3, icwgan.GANConfig(disc_channels=(3, 4), dtype=dtype), rng),
    "CVAE": lambda dtype, rng: cvae.CVAE(
        (8, 8, 8), 3, cvae.CVAEConfig(latent_dim=3, enc_channels=(3, 4), dec_channels=(4, 3),
                                      dtype=dtype), rng),
    "DNNClassifier": lambda dtype, rng: clf.DNNClassifier(
        (8, 8, 8), 3, clf.DNNConfig(channels=(3, 4), dtype=dtype), rng),
}


@pytest.mark.parametrize("build", MODELS.values(), ids=MODELS)
def test_float32_build_is_the_float64_build_cast(build):
    """Every parameter and batchnorm statistic has the config's dtype, and the
    float32 values are the float64 values rounded once."""
    single = nn.state_arrays(build("float32", np.random.default_rng(5)))
    double = nn.state_arrays(build("float64", np.random.default_rng(5)))
    assert list(single) == list(double)
    for name, value in double.items():
        assert single[name].dtype == np.float32, name
        assert value.dtype == np.float64, name
        assert single[name].tobytes() == value.astype(np.float32).tobytes(), name
