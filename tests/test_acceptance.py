"""Acceptance criteria, one test per criterion with a printed verdict line.

Heavy shared computations (the 3-seed desk-scale benchmark, the constant-volume
training fixture) come from session fixtures in conftest so they run once.
"""

import json
import time

import numpy as np

from gradcheck import grad_check

from volsynth import autodiff as ad
from volsynth import classifiers as clf
from volsynth import cvae as cvae_mod
from volsynth import gmm as gmm_mod
from volsynth import harness
from volsynth import icwgan, nn
from volsynth.autodiff import Tensor
from volsynth.cli import main as cli_main
from volsynth.datasets import make_blob_dataset, one_hot, split_by_class_size, \
    stratified_kfold
from volsynth.volumes import Volume


def verdict(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1: autodiff soundness ----------------------------------------

def test_criterion_1_autodiff_soundness(rng):
    t0 = time.time()
    failures = []

    def run(tag, build, params, noise_floor=None):
        # composite relu graphs pass an absolute floor of 1e-6: finite
        # differences straddling an activation kink contaminate coordinates
        # by ~1e-9 here, while genuine backward-rule bugs err at the gradient
        # scale; op-level checks below run without the floor
        report = grad_check(build, params, tolerance=1e-4,
                               noise_floor=noise_floor)
        if not report.passed:
            failures.append(f"{tag}: {report.max_rel_error:.2e}")

    # individual differentiable ops
    p = {"x": Tensor(rng.normal(size=(1, 2, 6, 6, 6)), requires_grad=True),
         "k": Tensor(0.3 * rng.normal(size=(3, 2, 4, 4, 4)), requires_grad=True),
         "b": Tensor(0.1 * rng.normal(size=3), requires_grad=True)}
    probe = rng.normal(size=(1, 3, 3, 3, 3))
    run("conv3d", lambda q: ad.tsum(ad.conv3d(q["x"], q["k"], q["b"], 2, 1)
                                    * Tensor(probe)), p)

    pt = {"x": Tensor(rng.normal(size=(1, 3, 3, 3, 3)), requires_grad=True),
          "k": Tensor(0.3 * rng.normal(size=(3, 2, 4, 4, 4)), requires_grad=True),
          "b": Tensor(0.1 * rng.normal(size=2), requires_grad=True)}
    probe_t = rng.normal(size=(1, 2, 6, 6, 6))
    run("conv3d_transpose", lambda q: ad.tsum(
        ad.conv3d_transpose(q["x"], q["k"], q["b"], 2, 1) * Tensor(probe_t)), pt)

    pb = {"x": Tensor(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True),
          "g": Tensor(np.array([1.3, 0.7]), requires_grad=True),
          "be": Tensor(np.array([0.1, -0.2]), requires_grad=True)}
    probe_b = rng.normal(size=(2, 2, 3, 3, 3))
    run("batchnorm3d", lambda q: ad.tsum(ad.batchnorm3d(
        q["x"], q["g"], q["be"], ad.BatchNormState(2), True) * Tensor(probe_b)), pb)

    pd = {"x": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
          "w": Tensor(rng.normal(size=(4, 5)), requires_grad=True),
          "b": Tensor(rng.normal(size=5), requires_grad=True)}
    probe_d = rng.normal(size=(3, 5))
    run("dense+activations", lambda q: ad.tsum(ad.sigmoid(ad.tanh(
        ad.dense(q["x"], q["w"], q["b"]))) * Tensor(probe_d)), pd)
    run("leaky+relu", lambda q: ad.tsum(
        ad.leaky_relu(q["x"], 0.2) * ad.relu(q["x"])),
        {"x": Tensor(rng.normal(size=(4, 4)) + 0.3, requires_grad=True)})

    onehot = np.zeros((4, 3))
    onehot[np.arange(4), [0, 2, 1, 1]] = 1.0
    run("softmax_ce", lambda q: ad.softmax_cross_entropy(q["z"], onehot),
        {"z": Tensor(rng.normal(size=(4, 3)), requires_grad=True)})
    target = rng.uniform(0.05, 0.95, size=(2, 1, 3, 3, 3))
    run("bernoulli_recon", lambda q: ad.bernoulli_reconstruction(
        ad.sigmoid(q["z"]), target),
        {"z": Tensor(rng.normal(size=(2, 1, 3, 3, 3)), requires_grad=True)})

    # composite model graphs at 8^3, 64-bit, from one dedicated seed-0 stream
    graph_rng = np.random.default_rng(0)
    config = cvae_mod.CVAEConfig(latent_dim=2, enc_channels=(2, 3), dec_channels=(3, 2),
                                 batch_size=2, dtype="float64")
    model = cvae_mod.CVAE((8, 8, 8), 2, config, graph_rng)
    x = graph_rng.uniform(0.2, 0.8, size=(2, 1, 8, 8, 8))
    y = np.array([0, 1])
    eps = graph_rng.standard_normal((2, 2))

    def cvae_graph(q):
        mu, logvar = model.encode(Tensor(x), y)
        z = cvae_mod.reparameterize(mu, logvar, eps)
        x_hat = model.decode(z, y, training=True)
        total, _ = cvae_mod.elbo_loss(x, x_hat, mu, logvar)
        return total

    run("cvae full graph", cvae_graph, model.parameters(), noise_floor=1e-6)

    gan_config = icwgan.GANConfig(z_dim=3, gen_channels=(3, 2, 2),
                                  disc_channels=(2, 2, 3), batch_size=2,
                                  dtype="float64")
    gen = icwgan.Generator((8, 8, 8), 2, gan_config, graph_rng)
    disc = icwgan.Discriminator((8, 8, 8), 2, gan_config, graph_rng)
    xg = Tensor(graph_rng.uniform(0.2, 0.8, size=(2, 1, 8, 8, 8)))
    yg = Tensor(one_hot(np.array([0, 1]), 2))
    zg = Tensor(graph_rng.normal(size=(2, 3)))
    eps_mix = graph_rng.uniform(size=2)
    run("gan critic loss graph",
        lambda q: icwgan.critic_loss(disc, gen, xg, yg, zg, eps_mix,
                                     icwgan.LAMBDA_GP, training=False)[0],
        disc.parameters(), noise_floor=1e-6)
    run("gan generator loss graph",
        lambda q: icwgan.generator_loss(disc, gen, yg, zg, training=False),
        gen.parameters(), noise_floor=1e-6)

    dnn_config = clf.DNNConfig(channels=(2, 3), dtype="float64")
    dnn = clf.DNNClassifier((8, 8, 8), 2, dnn_config, graph_rng)
    labels2 = one_hot(np.array([0, 1]), 2)
    run("dnn classifier loss graph",
        lambda q: ad.softmax_cross_entropy(dnn.forward(xg), labels2),
        dnn.parameters(), noise_floor=1e-6)

    elapsed = time.time() - t0
    verdict(1, not failures and elapsed <= 120,
            f"all op and model graphs within 1e-4 ({elapsed:.0f}s)"
            + (f"; failures: {failures}" if failures else ""))


# -- criterion 2: convolution oracle and adjoint ----------------------------

def test_criterion_2_convolution_oracle(rng):
    t0 = time.time()
    from test_tensor_ops import conv3d_loop_oracle

    worst_direct = 0.0
    for stride, pad in ((1, 1), (2, 1), (1, 0)):
        x = rng.normal(size=(2, 3, 5, 6, 7))
        k = rng.normal(size=(4, 3, 3, 3, 3))
        b = rng.normal(size=4)
        out = ad.conv3d(Tensor(x), Tensor(k), Tensor(b), stride, pad)
        ref = conv3d_loop_oracle(x, k, b, stride, pad)
        worst_direct = max(worst_direct, float(np.abs(out.data - ref).max()))

    worst_adjoint = 0.0
    for (ksz, stride, pad) in [(4, 2, 1), (3, 1, 1), (2, 2, 0), (1, 1, 0), (4, 2, 2)]:
        q = 4
        x_sp = (q - 1) * stride - 2 * pad + ksz
        for _ in range(5):
            x = rng.normal(size=(2, 3, x_sp, x_sp, x_sp))
            k = rng.normal(size=(5, 3, ksz, ksz, ksz))
            y = rng.normal(size=(2, 5, q, q, q))
            lhs = float((ad.conv3d(Tensor(x), Tensor(k), None, stride, pad).data
                         * y).sum())
            rhs = float((x * ad.conv3d_transpose(Tensor(y), Tensor(k), None,
                                                 stride, pad).data).sum())
            worst_adjoint = max(worst_adjoint,
                                abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.time() - t0
    verdict(2, worst_direct <= 1e-10 and worst_adjoint <= 1e-9 and elapsed <= 60,
            f"direct-loop {worst_direct:.1e} (<=1e-10), "
            f"adjoint {worst_adjoint:.1e} (<=1e-9) ({elapsed:.0f}s)")


# -- criterion 3: GMM ---------------------------------------------------------

def test_criterion_3_gmm():
    t0 = time.time()
    violations = []
    for trial in range(100):
        r = np.random.default_rng(1000 + trial)
        n = int(r.integers(20, 60))
        d = int(r.integers(2, 6))
        k = int(r.integers(1, 4))
        x = r.normal(size=(n, d)) + r.integers(0, 3, size=(n, 1))
        params = gmm_mod.em_fit(x, gmm_mod.EMConfig(num_components=k, max_iters=25,
                                                    seed=trial))
        diffs = np.diff(params.log_likelihoods)
        if diffs.size and diffs.min() < -1e-9:
            violations.append((trial, float(diffs.min())))

    r = np.random.default_rng(17)
    x = r.normal(size=(50, 5))
    closed = gmm_mod.em_fit(x, gmm_mod.EMConfig(num_components=1, seed=0))
    k1_exact = (np.abs(closed.means[0] - x.mean(axis=0)).max() <= 1e-12
                and np.abs(closed.variances[0] - x.var(axis=0)).max() <= 1e-12)

    sigma = 0.5
    a = r.normal(0.0, sigma, size=(1000, 3))
    b = r.normal(10 * sigma, sigma, size=(1000, 3))
    two = gmm_mod.em_fit(np.concatenate([a, b]),
                         gmm_mod.EMConfig(num_components=2, max_iters=100, seed=1))
    order = np.argsort(two.means[:, 0])
    recovered = (np.abs(two.means[order][0]).max() <= 0.1 * sigma
                 and np.abs(two.means[order][1] - 10 * sigma).max() <= 0.1 * sigma
                 and abs(two.weights[0] - 0.5) <= 0.05)

    elapsed = time.time() - t0
    verdict(3, not violations and k1_exact and recovered and elapsed <= 60,
            f"monotone on 100 datasets, K=1 exact, clusters recovered "
            f"({elapsed:.0f}s)" + (f"; violations {violations[:3]}" if violations else ""))


# -- criterion 4: CVAE --------------------------------------------------------

def test_criterion_4_cvae(constant_volume_training, rng):
    t0 = time.time()
    kl_zero = cvae_mod.kl_standard_normal(
        Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5)))).item() == 0.0

    mu_val, logvar_val = 0.8, 0.6
    closed = cvae_mod.kl_standard_normal(
        Tensor(np.full((1, 1), mu_val)), Tensor(np.full((1, 1), logvar_val))).item()
    n = 100_000
    sigma = np.exp(0.5 * logvar_val)
    z = mu_val + sigma * rng.standard_normal(n)
    log_q = -0.5 * (np.log(2 * np.pi) + logvar_val + (z - mu_val) ** 2 / sigma ** 2)
    log_p = -0.5 * (np.log(2 * np.pi) + z ** 2)
    mc = log_q - log_p
    se = mc.std(ddof=1) / np.sqrt(n)
    mc_ok = abs(closed - mc.mean()) <= 3 * se

    _, history = constant_volume_training
    first = history.epochs[0].total
    last = history.epochs[-1].total
    drop_ok = len(history.epochs) == 50 and last <= 0.10 * first

    elapsed = time.time() - t0
    verdict(4, kl_zero and mc_ok and drop_ok and elapsed <= 180,
            f"kl(0,0)=0, closed-vs-MC within 3 SE ({abs(closed - mc.mean()):.2e} "
            f"<= {3 * se:.2e}), fixture loss {first:.2f} -> {last:.3f} "
            f"({elapsed:.0f}s)")


# -- criterion 5: gradient penalty identities ---------------------------------

def test_criterion_5_gradient_penalty(rng):
    t0 = time.time()
    from test_icwgan import LinearCritic, penalty_at

    # the penalty critic_loss returns, with eps = 1 so that xhat is the real batch
    w = rng.normal(size=64)
    w /= np.linalg.norm(w)
    unit = penalty_at(LinearCritic(w), Tensor(rng.uniform(size=(3, 1, 4, 4, 4))), None).item()

    voxels = 64
    const = penalty_at(LinearCritic(np.full(voxels, 2.0)),
                       Tensor(rng.uniform(size=(2, 1, 4, 4, 4))), None).item()
    const_expected = (2.0 * np.sqrt(voxels) - 1.0) ** 2

    config = icwgan.GANConfig(z_dim=5, gen_channels=(4, 3, 2), disc_channels=(2, 3, 4),
                              batch_size=3, dtype="float64")
    gen = icwgan.Generator((8, 8, 8), 3, config, np.random.default_rng(2))
    disc = icwgan.Discriminator((8, 8, 8), 3, config, np.random.default_rng(3))
    for p in disc.parameters().values():
        p.data = np.zeros_like(p.data)
    loss, _ = icwgan.critic_loss(disc, gen, Tensor(rng.uniform(size=(3, 1, 8, 8, 8))),
                                 Tensor(one_hot(np.array([0, 1, 2]), 3)),
                                 Tensor(rng.normal(size=(3, 5))),
                                 np.full(3, 0.5), icwgan.LAMBDA_GP)
    elapsed = time.time() - t0
    verdict(5, unit <= 1e-10 and abs(const - const_expected) <= 1e-10
            and abs(loss.item() - icwgan.LAMBDA_GP) <= 1e-12 and elapsed <= 60,
            f"unit-norm penalty {unit:.1e}, constant-gradient exact, "
            f"zero-critic loss == lambda ({elapsed:.1f}s)")


# -- criterion 6: protocol correctness ----------------------------------------

def test_criterion_6_protocol():
    from volsynth.datasets import VolumeDataset

    ds = make_blob_dataset(3, 10, (8, 8, 8), seed=0)
    folds = stratified_kfold(ds, 3, seed=1)
    fold_ok = all(
        max(int((ds.labels[f] == c).sum()) for f in folds)
        - min(int((ds.labels[f] == c).sum()) for f in folds) <= 1
        for c in range(3))

    def counts(n):
        rng = np.random.default_rng(0)
        volumes = [Volume(rng.uniform(size=(2, 2, 2)).astype(np.float32))
                   for _ in range(n)]
        d = VolumeDataset(volumes, [0] * n, ["c"])
        res = split_by_class_size(d, seed=0)
        return len(res.train), len(res.validation), len(res.test), res.dropped_classes

    split_ok = (counts(100)[:3] == (70, 10, 20)
                and counts(60)[:3] == (30, 10, 20)
                and counts(29)[3] == [0])

    config = harness.ExperimentConfig.from_dict({
        "dataset": {"kind": "blob", "num_classes": 3, "per_class": 9,
                    "dims": [8, 8, 8], "seed": 4},
        "regime": "real_synth", "generator": "gmm", "classifier": "svm",
        "synth_per_class": 3,
        "split": {"kind": "kfold", "k": 3, "min_class_size": 3},
        "repeats": 1, "seed": 5,
        "models": {"svm": {"epochs": 60}, "gmm": {"num_components": 1}},
    })
    # run_regime asserts the no-leak invariant on every cell
    report = harness.run_regime(config)
    leak_ok = len(report.entries) == 3

    truths = [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]
    preds = [0, 0, 1, 1, 1, 2, 2, 2, 2, 0]
    m = clf.evaluate(preds, truths, 3)
    metrics_ok = (abs(m.accuracy - 0.8) <= 1e-12
                  and abs(m.macro_f1 - 106 / 135) <= 1e-12
                  and abs(m.precision - 7 / 9) <= 1e-12
                  and abs(m.recall - 37 / 45) <= 1e-12)

    verdict(6, fold_ok and split_ok and leak_ok and metrics_ok,
            "fold counts balanced, 100->70/10/20, 60->30/10/20, 29 dropped, "
            "no-leak held, metric constants exact")


# -- criterion 7: desk-scale augmentation benchmark ---------------------------

def test_criterion_7_desk_benchmark(blob_bench_results):
    real = float(np.mean([r["real_accuracy"] for r in blob_bench_results]))
    gmm_aug = float(np.mean([r["gmm_aug_accuracy"] for r in blob_bench_results]))
    cvae_cons = float(np.mean([r["cvae_consistency"] for r in blob_bench_results]))
    gan_cons = float(np.mean([r["gan_consistency"] for r in blob_bench_results]))
    oracle = float(np.mean([r["oracle_accuracy"] for r in blob_bench_results]))
    ok = (real >= 0.90 and gmm_aug >= real - 0.02 and oracle >= 0.95
          and cvae_cons >= 0.60 and gan_cons >= 0.60)
    verdict(7, ok,
            f"3-seed means: DNN real {real:.4f} (>=0.90), real+GMM {gmm_aug:.4f} "
            f"(>= real-0.02), oracle {oracle:.4f}, CVAE consistency {cvae_cons:.4f} "
            f"(>=0.60), ICW-GAN consistency {gan_cons:.4f} (>=0.60)")


# -- criterion 8: CLI determinism ----------------------------------------------

def test_criterion_8_determinism(tmp_path):
    config = {
        "dataset": {"kind": "blob", "num_classes": 2, "per_class": 9,
                    "dims": [8, 8, 8], "seed": 3},
        "regime": ["real", "real_synth"],
        "generator": ["gmm"],
        "classifier": ["svm"],
        "synth_per_class": 3,
        "split": {"kind": "kfold", "k": 3, "min_class_size": 3},
        "repeats": 1, "seed": 2,
        "models": {"svm": {"epochs": 60}, "gmm": {"num_components": 1}},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["augment-eval", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})

    data = tmp_path / "data"
    ckpts = []
    for run in ("ca", "cb"):
        ck = tmp_path / f"{run}.ckpt"
        if not data.exists():
            assert cli_main(["synth-data", "--classes", "2", "--per-class", "8",
                             "--dims", "8,8,8", "--seed", "1", "--out", str(data)]) == 0
        assert cli_main(["train-gmm", "--manifest", str(data / "manifest.csv"),
                         "--out", str(ck), "--seed", "5"]) == 0
        ckpts.append(ck.read_bytes())

    verdict(8, outs[0] == outs[1] and ckpts[0] == ckpts[1],
            "repeated runs produce byte-identical reports and checkpoints")


# -- criterion 9: table formats -------------------------------------------------

def test_criterion_9_table_formats(tmp_path):
    config = {
        "dataset": {"kind": "blob", "num_classes": 2, "per_class": 9,
                    "dims": [8, 8, 8], "seed": 3},
        "regime": ["real"],
        "classifier": ["svm", "dnn"],
        "split": {"kind": "kfold", "k": 3, "min_class_size": 3},
        "repeats": 2, "seed": 2,
        "models": {"svm": {"epochs": 60},
                   "dnn": {"channels": [3, 4], "epochs": 2, "batch_size": 4}},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "runs"
    assert cli_main(["augment-eval", "--config", str(cfg), "--out", str(out)]) == 0

    header = "input,gen_model,classifier,accuracy,macro_f1,precision,recall"
    report_lines = (out / "report.csv").read_text().strip().split("\n")
    variance_lines = (out / "variance.csv").read_text().strip().split("\n")
    header_ok = report_lines[0] == header and variance_lines[0] == header
    rows_ok = all(len(line.split(",")) == 7 for line in report_lines[1:])

    assert cli_main(["report", "--runs", str(out)]) == 0

    # identical entries -> zero variance: synthesize a degenerate stored run
    entries = {(f, r): clf.MetricsReport(accuracy=0.5, macro_f1=0.5, precision=0.5,
                                         recall=0.5, confusion=np.eye(2, dtype=int),
                                         per_class_f1=np.ones(2))
               for f in range(3) for r in range(2)}
    agg = harness.aggregate(entries)
    zero_var_ok = all(agg["variance"][m] == 0.0 for m in harness.METRIC_NAMES)

    verdict(9, header_ok and rows_ok and zero_var_ok,
            "exact column set, variance block emitted, identical-run variance 0")
