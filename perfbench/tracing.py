"""Spans around calls into volsynth, recorded from outside the program.

A span is recorded by replacing a public function with a timing wrapper at
every name it is looked up by: each ``volsynth`` module attribute bound to the
function object (``harness`` imports ``stratified_kfold`` by name, so both
``datasets.stratified_kfold`` and ``harness.stratified_kfold`` are patched),
or the class attribute for a method. The autodiff ops also get their backward
closure wrapped, so that an op's backward time is attributed to the op.

Spans stay in memory as ``[name, start, end, parent, attrs]`` lists and are
written to one file when the run ends. ``restore`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

# (span name, "module:attr" or "module:Class.method") for every traced call.
# Ops marked in OPS also time their backward closure.
TARGETS = [
    ("autodiff.conv3d", "autodiff:conv3d"),
    ("autodiff.conv3d_transpose", "autodiff:conv3d_transpose"),
    ("autodiff.batchnorm3d", "autodiff:batchnorm3d"),
    ("autodiff.sigmoid", "autodiff:sigmoid"),
    ("autodiff.softmax_cross_entropy", "autodiff:softmax_cross_entropy"),
    ("autodiff.backward", "autodiff:backward"),
    ("nn.adam_step", "nn:adam_step"),
    ("nn.save_checkpoint", "nn:save_checkpoint"),
    ("nn.load_checkpoint", "nn:load_checkpoint"),
    ("icwgan.train", "icwgan:train_icwgan"),
    ("icwgan.critic_loss", "icwgan:critic_loss"),
    ("icwgan.generator_loss", "icwgan:generator_loss"),
    ("icwgan.sample", "icwgan:sample_gan"),
    ("cvae.train", "cvae:train_cvae"),
    ("cvae.encode", "cvae:CVAE.encode"),
    ("cvae.decode", "cvae:CVAE.decode"),
    ("cvae.reparameterize", "cvae:reparameterize"),
    ("cvae.elbo_loss", "cvae:elbo_loss"),
    ("cvae.sample", "cvae:sample_cvae"),
    ("classifiers.dnn_train", "classifiers:train_dnn_classifier"),
    ("classifiers.dnn_forward", "classifiers:DNNClassifier.forward"),
    ("classifiers.predict", "classifiers:DNNClassifier.predict"),
    ("classifiers.predict", "classifiers:LinearSVMModel.predict"),
    ("classifiers.svm_train", "classifiers:train_svm"),
    ("classifiers.evaluate", "classifiers:evaluate"),
    ("gmm.fit_class_gmms", "gmm:fit_class_gmms"),
    ("gmm.em_fit", "gmm:em_fit"),
    ("gmm.sample", "gmm:ClassGMM.sample_volumes"),
    ("volumes.compute_mask", "volumes:compute_mask"),
    ("volumes.add_gaussian_noise", "volumes:add_gaussian_noise"),
    ("volumes.write_volume", "volumes:write_volume"),
    ("volumes.read_volume", "volumes:read_volume"),
    ("datasets.make_blob_dataset", "datasets:make_blob_dataset"),
    ("datasets.save_dataset", "datasets:save_dataset"),
    ("datasets.load_dataset", "datasets:load_dataset"),
    ("datasets.stratified_kfold", "datasets:stratified_kfold"),
    ("harness.run_regime", "harness:run_regime"),
    ("cli.augment_eval", "cli:cmd_augment_eval"),
    ("cli.report", "cli:cmd_report"),
    ("cli.sample", "cli:cmd_sample"),
    ("cli.synth_data", "cli:cmd_synth_data"),
]

OPS = {"autodiff.conv3d", "autodiff.conv3d_transpose", "autodiff.batchnorm3d",
       "autodiff.sigmoid"}
# sampling calls whose peak Python-visible allocation is measured
TRACEMALLOC = {"icwgan.sample", "cvae.sample"}

NAME, START, END, PARENT, ATTRS = range(5)


def _conv_macs(name, x, kernel, out):
    """Multiply-accumulates of one forward conv, from operand shapes."""
    k = kernel.data.shape
    if name == "autodiff.conv3d":
        # every output voxel of every filter sums C * k^3 products
        return out.data.size * k[1] * k[2] * k[3] * k[4]
    # transposed: every input voxel scatters to F * k^3 outputs
    return x.data.size * k[1] * k[2] * k[3] * k[4]


def _needs_grad(t):
    return bool(getattr(t, "requires_grad", False) or getattr(t, "_backward", None))


class Tracer:
    """Installs timing wrappers into ``volsynth``; keeps spans in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._patches = []     # (owner, attr, original, is_class)

    # -- spans -------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span for the benchmark's own phases; yields its index."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _annotate(self, idx, **attrs):
        span = self.spans[idx]
        if span[ATTRS] is None:
            span[ATTRS] = {}
        span[ATTRS].update(attrs)

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self
        if name in OPS:
            @functools.wraps(fn)
            def op(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer._wrap_op(name, idx, args, out)
                return out
            return op
        if name in TRACEMALLOC:
            @functools.wraps(fn)
            def sampled(*args, **kwargs):
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    peak = tracemalloc.get_traced_memory()[1]
                    if started:
                        tracemalloc.stop()
                    tracer._annotate(idx, peak_mb=(peak - base) / 2 ** 20)
            return sampled

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "gmm.em_fit":
                tracer._annotate(idx, iters=len(out.log_likelihoods))
            elif name == "volumes.write_volume":
                tracer._annotate(idx, bytes=17 + 4 * args[0].data.size)
            return out
        return call

    def _wrap_op(self, name, idx, args, out):
        """Record forward flops and time the op's backward closure."""
        bwd_name = name + ".bwd"
        fwd_flops = 0
        bwd_flops = 0
        if name in ("autodiff.conv3d", "autodiff.conv3d_transpose"):
            x, kernel = args[0], args[1]
            macs = _conv_macs(name, x, kernel, out)
            fwd_flops = 2 * macs
            bwd_flops = 2 * macs * (_needs_grad(x) + _needs_grad(kernel))
            self._annotate(idx, flops=fwd_flops)
        inner = out._backward
        if inner is None:
            return
        tracer = self

        def backward(g):
            b = tracer.open(bwd_name)
            try:
                inner(g)
            finally:
                tracer.close(b)
            if bwd_flops:
                tracer._annotate(b, flops=bwd_flops)

        out._backward = backward

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")}
        for span_name, target in TARGETS:
            mod_name, attr = target.split(":")
            module = modules[f"{self.package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(span_name, original))
                self._patches.append((cls, meth, original, True))
                continue
            original = getattr(module, attr)
            wrapped = self._wrapper(span_name, original)
            # patch every module binding of this function object
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original, False))

    def restore(self):
        """Put every original back and check that nothing stays wrapped."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original, is_class in self._patches:
            current = owner.__dict__[attr] if is_class else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")
        self._patches = []

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def span_cost(autodiff, calls=4000, blocks=5):
    """Seconds tracing adds to one call of a small autodiff op (median of blocks)."""
    op = autodiff.sigmoid
    x = autodiff.Tensor(np.zeros((4, 4, 4)), requires_grad=True)
    costs = []
    for _ in range(blocks):
        wrapped = Tracer(None)._wrapper("autodiff.sigmoid", op)
        t = time.perf_counter()
        for _ in range(calls):
            op(x)
        plain = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            wrapped(x)
        costs.append((time.perf_counter() - t - plain) / calls)
    return statistics.median(costs)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

# per-layer metric -> unit; the README maps each to the end-to-end metric it moves
LAYER_METRICS = {
    "autodiff.conv3d.ms": "ms", "autodiff.conv3d.calls": "count",
    "autodiff.conv3d.gflop": "GFLOP",
    "autodiff.conv3d_transpose.ms": "ms", "autodiff.conv3d_transpose.calls": "count",
    "autodiff.conv3d_transpose.gflop": "GFLOP",
    "autodiff.batchnorm3d.ms": "ms", "autodiff.sigmoid.ms": "ms",
    "autodiff.backward.ms": "ms", "autodiff.backward.calls": "count",
    "nn.adam_step.ms": "ms",
    "icwgan.critic_step.fwd_ms": "ms", "icwgan.critic_step.bwd_ms": "ms",
    "icwgan.critic_step.opt_ms": "ms", "icwgan.critic_step.p90_ms": "ms",
    "icwgan.gen_step.fwd_ms": "ms", "icwgan.gen_step.bwd_ms": "ms",
    "icwgan.gen_step.opt_ms": "ms", "icwgan.train.s": "s",
    "cvae.step.fwd_ms": "ms", "cvae.step.bwd_ms": "ms", "cvae.train.s": "s",
    "classifiers.dnn_step.fwd_ms": "ms", "classifiers.dnn_step.bwd_ms": "ms",
    "classifiers.dnn_train.s": "s",
    "gmm.em_fit.ms": "ms", "gmm.em_fit.iters": "count", "gmm.sample.ms": "ms",
    "classifiers.svm_train.s": "s", "classifiers.predict.ms": "ms",
    "volumes.compute_mask.ms": "ms", "volumes.add_gaussian_noise.ms": "ms",
    "datasets.stratified_kfold.ms": "ms", "harness.run_regime.self_s": "s",
    "harness.fold_units": "count", "cli.augment_eval.self_s": "s",
    "icwgan.sample.ms": "ms", "icwgan.sample.peak_mb": "MB",
    "cvae.sample.ms": "ms", "cvae.sample.peak_mb": "MB",
    "nn.load_checkpoint.ms": "ms", "nn.save_checkpoint.ms": "ms",
    "volumes.write_volume.ms": "ms", "volumes.write_volume.mb": "MB",
    "volumes.read_volume.ms": "ms", "datasets.load_dataset.ms": "ms",
    "cli.sample.self_s": "s",
    "datasets.make_blob_dataset.ms": "ms",
    "trace.overhead_s": "s",
}

# measured over the set-up repetitions instead of the timed rounds
SETUP_METRICS = {"datasets.make_blob_dataset.ms"}

# step families: training span -> {forward span name: step role}
STEP_FORWARDS = {
    "icwgan.train": {"icwgan.critic_loss": "icwgan.critic_step",
                     "icwgan.generator_loss": "icwgan.gen_step"},
    "cvae.train": {"cvae.encode": "cvae.step", "cvae.reparameterize": "cvae.step",
                   "cvae.decode": "cvae.step", "cvae.elbo_loss": "cvae.step"},
    "classifiers.dnn_train": {"classifiers.dnn_forward": "classifiers.dnn_step",
                              "autodiff.softmax_cross_entropy": "classifiers.dnn_step"},
}


def _duration(span):
    return span[END] - span[START]


def _children(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def _descendants(root, kids):
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out


def _window_totals(spans, kids, root):
    """Per-layer totals over the spans below one benchmark phase span."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    members = _descendants(root, kids)
    in_regime = set()
    for i in members:
        if spans[i][NAME] == "harness.run_regime":
            in_regime.update(_descendants(i, kids))
    for i in members:
        name, attrs = spans[i][NAME], spans[i][ATTRS] or {}
        dur = _duration(spans[i])
        self_time = dur - sum(_duration(spans[c]) for c in kids[i])
        base = name[:-4] if name.endswith(".bwd") else name
        add(base + ".ms", dur * 1e3)
        add(base + ".s", dur)
        add(base + ".self_s", self_time)
        if not name.endswith(".bwd"):
            add(base + ".calls", 1)
        add(base + ".gflop", attrs.get("flops", 0) / 1e9)
        if "iters" in attrs:
            add(base + ".iters", attrs["iters"])
        if "bytes" in attrs:
            add(base + ".mb", attrs["bytes"] / 2 ** 20)
        if "peak_mb" in attrs:
            totals[base + ".peak_mb"] = max(totals.get(base + ".peak_mb", 0.0),
                                            attrs["peak_mb"])
        if name == "classifiers.evaluate" and i in in_regime:
            add("harness.fold_units", 1)
    return totals


def _steps(spans, kids, roots):
    """Per-step fwd/bwd/opt seconds for every training span below ``roots``."""
    steps = {}
    for root in roots:
        for i in _descendants(root, kids):
            forwards = STEP_FORWARDS.get(spans[i][NAME])
            if forwards is None:
                continue
            role, cur = None, None
            for c in kids[i]:
                name = spans[c][NAME]
                if name in forwards:
                    if cur is None:
                        role, cur = forwards[name], {"fwd": 0.0, "bwd": 0.0, "opt": 0.0}
                    cur["fwd"] += _duration(spans[c])
                elif cur is not None and name == "autodiff.backward":
                    cur["bwd"] += _duration(spans[c])
                elif cur is not None and name == "nn.adam_step":
                    cur["opt"] += _duration(spans[c])
                    steps.setdefault(role, []).append(cur)
                    role, cur = None, None
    return steps


def _p90(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def layer_metrics(spans, round_roots, setup_roots, overhead_s):
    """Every LAYER_METRICS value: medians over rounds (or set-ups) and steps."""
    kids = _children(spans)
    per_round = [_window_totals(spans, kids, r) for r in round_roots]
    per_setup = [_window_totals(spans, kids, r) for r in setup_roots]
    steps = _steps(spans, kids, round_roots)
    out = {}
    for key, unit in LAYER_METRICS.items():
        windows = per_setup if key in SETUP_METRICS else per_round
        out[key] = statistics.median([w.get(key, 0.0) for w in windows]) if windows else 0.0
    for role, parts in (("icwgan.critic_step", ("fwd", "bwd", "opt")),
                        ("icwgan.gen_step", ("fwd", "bwd", "opt")),
                        ("cvae.step", ("fwd", "bwd")),
                        ("classifiers.dnn_step", ("fwd", "bwd"))):
        found = steps.get(role, [])
        for part in parts:
            out[f"{role}.{part}_ms"] = (
                statistics.median([s[part] for s in found]) * 1e3 if found else 0.0)
    critic = steps.get("icwgan.critic_step", [])
    out["icwgan.critic_step.p90_ms"] = (
        _p90([s["fwd"] + s["bwd"] + s["opt"] for s in critic]) * 1e3 if critic else 0.0)
    out["trace.overhead_s"] = overhead_s
    return {key: {"value": out[key], "unit": unit} for key, unit in LAYER_METRICS.items()}
