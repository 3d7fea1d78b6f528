"""Training results do not depend on the BLAS thread count."""

import os
import subprocess
import sys
import textwrap

from volsynth import nn

# trains both models on one blob set and prints a digest of each state
TRAIN = textwrap.dedent("""
    import hashlib
    import numpy as np
    from volsynth import classifiers as clf, icwgan, nn
    from volsynth.datasets import make_blob_dataset

    def digest(*modules):
        h = hashlib.sha256()
        for name, arr in nn.state_arrays(*modules).items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    ds = make_blob_dataset(4, 10, (8, 8, 8), seed=0)
    gan_cfg = icwgan.GANConfig(z_dim=8, gen_channels=(16, 8), disc_channels=(8, 16),
                               batch_size=10, critic_iters=2, epochs=2, seed=1)
    gen, disc, _ = icwgan.train_icwgan(ds, gan_cfg)
    dnn_cfg = clf.DNNConfig(channels=(8, 16), batch_size=10, epochs=2, seed=2)
    model, _ = clf.train_dnn_classifier(ds.stack(np.float32), ds.labels, dnn_cfg)
    print(digest(gen, disc), digest(model))
""")


def test_training_bytes_equal_at_one_and_two_blas_threads():
    """Each child has a timeout; ``subprocess.run`` kills a child that overruns."""
    src = os.path.dirname(os.path.dirname(nn.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", TRAIN], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]
