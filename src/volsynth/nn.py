"""Trainable layers, conv towers, the Adam optimizer, gradient checking, checkpoints.

Layers own named Parameter tensors and call the ops in :mod:`autodiff`.
Initialization draws from a zero-mean Gaussian (std 0.02, biases zero),
the usual choice for adversarial training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datasets import one_hot

INIT_STD = 0.02


class Parameter(Tensor):
    def __init__(self, data, name):
        super().__init__(data, requires_grad=True, name=name)


def gaussian_init(shape, rng, std=INIT_STD, dtype=np.float64):
    return rng.normal(0.0, std, size=shape).astype(dtype)


class Module:
    """Minimal container: children and parameters are discovered by attribute."""

    def walk(self):
        """Parameters and submodules, depth first in attribute order (checkpoint order)."""
        for attr in vars(self).values():
            for item in attr if isinstance(attr, (list, tuple)) else (attr,):
                if isinstance(item, (Parameter, Module)):
                    yield item
                if isinstance(item, Module):
                    yield from item.walk()

    def parameters(self):
        return {p.name: p for p in self.walk() if isinstance(p, Parameter)}

    def load_state(self, arrays):
        load_state(arrays, self)

    def state_arrays(self):
        return state_arrays(self)


def state_arrays(*modules):
    """Copies of every parameter, then every batchnorm running statistic.

    This is the checkpoint layout: all parameters of ``modules`` in order,
    followed by ``{state_name}.mean`` and ``{state_name}.var`` per batchnorm.
    """
    arrays = {}
    for module in modules:
        arrays.update((name, p.data.copy()) for name, p in module.parameters().items())
    for bn in _batchnorms(modules):
        arrays[f"{bn.state_name}.mean"] = bn.state.running_mean.copy()
        arrays[f"{bn.state_name}.var"] = bn.state.running_var.copy()
    return arrays


def load_state(arrays, *modules):
    """Inverse of :func:`state_arrays`; names and shapes must match exactly."""
    for module in modules:
        for name, p in module.parameters().items():
            p.data = _restored(arrays, name, p.data)
    for bn in _batchnorms(modules):
        bn.state.running_mean = _restored(arrays, f"{bn.state_name}.mean",
                                          bn.state.running_mean)
        bn.state.running_var = _restored(arrays, f"{bn.state_name}.var",
                                         bn.state.running_var)


def _batchnorms(modules):
    return [m for module in modules for m in module.walk() if isinstance(m, BatchNorm3d)]


def _restored(arrays, name, current):
    if name not in arrays:
        raise KeyError(f"checkpoint is missing parameter {name!r}")
    src = arrays[name]
    if tuple(src.shape) != tuple(current.shape):
        raise ValueError(
            f"checkpoint shape {src.shape} does not match parameter "
            f"{name!r} of shape {current.shape}")
    return src.astype(current.dtype)


class Dense(Module):
    def __init__(self, in_features, out_features, rng, name, dtype=np.float64):
        self.weight = Parameter(gaussian_init((in_features, out_features), rng, dtype=dtype),
                                f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), f"{name}.bias")

    def __call__(self, x):
        return ad.dense(x, self.weight, self.bias)


class Conv3d(Module):
    def __init__(self, in_channels, out_channels, rng, name,
                 kernel_size=4, stride=2, pad=1, dtype=np.float64):
        shape = (out_channels, in_channels) + (kernel_size,) * 3
        self.kernel = Parameter(gaussian_init(shape, rng, dtype=dtype), f"{name}.kernel")
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype), f"{name}.bias")
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return ad.conv3d(x, self.kernel, self.bias, stride=self.stride, pad=self.pad)


class ConvTranspose3d(Module):
    def __init__(self, in_channels, out_channels, rng, name,
                 kernel_size=4, stride=2, pad=1, dtype=np.float64):
        shape = (in_channels, out_channels) + (kernel_size,) * 3
        self.kernel = Parameter(gaussian_init(shape, rng, dtype=dtype), f"{name}.kernel")
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype), f"{name}.bias")
        self.stride = stride
        self.pad = pad

    def __call__(self, x, output_dims=None):
        return ad.conv3d_transpose(x, self.kernel, self.bias, stride=self.stride, pad=self.pad,
                                   output_dims=output_dims)


class BatchNorm3d(Module):
    """Trained scale and shift; running statistics saved under ``state_name``."""

    def __init__(self, channels, name, state_name, momentum=0.9, eps=1e-5, dtype=np.float64):
        self.gamma = Parameter(np.ones(channels, dtype=dtype), f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels, dtype=dtype), f"{name}.beta")
        self.state_name = state_name
        self.state = ad.BatchNormState(channels, momentum=momentum, eps=eps, dtype=dtype)

    def __call__(self, x, training):
        return ad.batchnorm3d(x, self.gamma, self.beta, self.state, training)


class LabelProjection(Module):
    """Dense map from a label vector to a tanh-activated single-channel volume."""

    def __init__(self, num_classes, spatial, rng, name, dtype=np.float64):
        d, h, w = spatial
        self.spatial = (d, h, w)
        self.weight = Parameter(gaussian_init((num_classes, d * h * w), rng, dtype=dtype),
                                f"{name}.weight")
        self.bias = Parameter(np.zeros(d * h * w, dtype=dtype), f"{name}.bias")

    def __call__(self, y):
        n = y.data.shape[0] if isinstance(y, Tensor) else y.shape[0]
        vol = ad.tanh(ad.dense(y if isinstance(y, Tensor) else Tensor(y), self.weight, self.bias))
        return ad.reshape(vol, (n, 1) + self.spatial)


def label_tensor(y, num_classes):
    """Labels as a Tensor: class indices become one-hot rows, matrices pass through."""
    if isinstance(y, Tensor):
        return y
    y = np.asarray(y)
    if y.ndim == 1:
        y = one_hot(y, num_classes)
    return Tensor(y)


def prior_draws(num_classes, z_dim, dtype, class_index, count, seed):
    """Standard-normal latents and one-hot labels for ``count`` samples of one class."""
    if not 0 <= class_index < num_classes:
        raise KeyError(f"unknown class {class_index}; model covers 0..{num_classes - 1}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    z = np.random.default_rng(seed).standard_normal((count, z_dim)).astype(dtype)
    return Tensor(z), Tensor(one_hot(np.full(count, class_index), num_classes, dtype=dtype))


# ---------------------------------------------------------------------------
# the convolutional towers shared by the critic, encoder, classifier,
# generator and decoder
# ---------------------------------------------------------------------------

def conv_schedule(dims, layers):
    """Spatial sizes through a stride-2 conv stack; all must stay >= 1."""
    sizes = [tuple(dims)]
    for _ in range(layers):
        nxt = tuple(max(s // 2, 0) for s in sizes[-1])
        if any(s < 1 for s in nxt):
            raise ValueError(
                f"dims {tuple(dims)} collapse below 1 within {layers} conv layers")
        sizes.append(nxt)
    return sizes


def deconv_schedule(dims, layers):
    """Spatial sizes for the mirrored transposed stack, seed first."""
    sizes = [tuple(dims)]
    for _ in range(layers):
        sizes.append(tuple(max(1, math.ceil(s / 2)) for s in sizes[-1]))
    return list(reversed(sizes))


class ConvTower(Module):
    """Stride-2 convolutions, each followed by a leaky ReLU.

    ``label_channels`` widens every conv's input for a label volume that the
    caller concatenates before it. ``forward`` returns the flattened last
    activation and every layer's pre-activation; the critic's gradient-penalty
    graph reads the latter.
    """

    def __init__(self, dims, in_channels, channels, alpha, rng, name,
                 label_channels=0, dtype=np.float64):
        self.sizes = conv_schedule(dims, len(channels))
        self.alpha = alpha
        widths = [in_channels] + list(channels)
        self.convs = [
            Conv3d(widths[i] + label_channels, widths[i + 1], rng, f"{name}.conv{i}",
                   dtype=dtype)
            for i in range(len(channels))
        ]
        self.out_features = channels[-1] * int(np.prod(self.sizes[-1]))

    def forward(self, x, labels=None):
        """``labels`` holds one label volume per layer, at that layer's input size."""
        h, pres = x, []
        for i, conv in enumerate(self.convs):
            if labels is not None:
                h = ad.concat_channels(h, labels[i])
            pres.append(conv(h))
            h = ad.leaky_relu(pres[-1], self.alpha)
        return ad.flatten(h), pres


class DeconvTower(Module):
    """Dense seed volume, then stride-2 transposed convolutions up to ``dims``.

    Batchnorm + ReLU follow the seed and every hidden layer; the last layer
    has one channel and a sigmoid. ``label_channels`` widens every transposed
    conv's input for a label volume that the caller concatenates before it.
    """

    def __init__(self, dims, in_features, channels, rng, name, label_channels=0,
                 dtype=np.float64):
        layers = len(channels)
        self.sizes = deconv_schedule(dims, layers)
        self.seed_shape = (channels[0],) + self.sizes[0]
        self.input_dense = Dense(in_features, int(np.prod(self.seed_shape)), rng,
                                 f"{name}.input", dtype=dtype)
        self.seed_bn = BatchNorm3d(channels[0], f"{name}.bn0", f"{name}.bnstate0",
                                   dtype=dtype)
        widths = list(channels) + [1]
        self.deconvs = [
            ConvTranspose3d(widths[i] + label_channels, widths[i + 1], rng,
                            f"{name}.deconv{i}", dtype=dtype)
            for i in range(layers)
        ]
        self.bns = [
            BatchNorm3d(widths[i], f"{name}.bn{i}", f"{name}.bnstate{i}", dtype=dtype)
            for i in range(1, layers)
        ]

    def forward(self, x, training, labels=None):
        """``labels`` holds one label volume per layer, at that layer's input size."""
        h = ad.reshape(self.input_dense(x), (x.data.shape[0],) + self.seed_shape)
        h = ad.relu(self.seed_bn(h, training))
        for i, deconv in enumerate(self.deconvs):
            if labels is not None:
                h = ad.concat_channels(h, labels[i])
            h = deconv(h, output_dims=self.sizes[i + 1])
            h = ad.relu(self.bns[i](h, training)) if i < len(self.bns) else ad.sigmoid(h)
        return h


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class PoisonedGradientError(ValueError):
    """A gradient contained NaN/Inf; the message names the parameter."""


@dataclass
class AdamState:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_step(params, grads, state):
    """One bias-corrected Adam update, in place on the parameter tensors."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise PoisonedGradientError(f"non-finite gradient for parameter {name!r}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {name!r} {p.data.shape}")
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.first_moment[name] = m
        state.second_moment[name] = v
        m_hat = m / correction1
        v_hat = v / correction2
        p.data = p.data - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params, state


class Adam:
    """Optimizer bound to a parameter dict; wraps :func:`adam_step`."""

    def __init__(self, params, learning_rate=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = params
        self.state = AdamState(learning_rate=learning_rate, beta1=beta1,
                               beta2=beta2, epsilon=epsilon)

    def step(self, grads):
        adam_step(self.params, grads, self.state)


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    worst_index: tuple
    passed: bool


@dataclass
class GradCheckReport:
    entries: list
    tolerance: float

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    @property
    def max_rel_error(self):
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def __str__(self):
        lines = [f"grad check (tol {self.tolerance:g}):"]
        for e in self.entries:
            status = "ok" if e.passed else "FAIL"
            lines.append(f"  {e.name}: max rel err {e.max_rel_error:.3e} "
                         f"at {e.worst_index} [{status}]")
        return "\n".join(lines)


def grad_check(build_loss, params, tolerance=1e-4, step=1e-5, noise_floor=None):
    """Compare backprop against central finite differences, parameter by parameter.

    ``build_loss`` maps the parameter dict to a scalar Tensor and is re-run for
    every probe, so it must be deterministic. Use 64-bit parameters.

    The relative-error denominator is floored at the finite-difference noise
    scale (cancellation of two loss values of magnitude |f| leaves roundoff
    ~ eps*|f|/step); coordinates whose true gradient sits below that scale
    cannot be resolved by the probe and pass on the absolute criterion
    |analytic - numeric| <= noise_floor, exactly the usual atol+rtol rule.
    """
    loss = build_loss(params)
    grads = ad.backward(loss, params)
    if noise_floor is None:
        noise_floor = 100.0 * np.finfo(np.float64).eps \
            * max(1.0, abs(loss.item())) / step
    entries = []
    for name, p in params.items():
        analytic = grads[name]
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = build_loss(params).item()
            flat[i] = orig - step
            down = build_loss(params).item()
            flat[i] = orig
            nflat[i] = (up - down) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                           noise_floor / tolerance)
        rel = np.abs(analytic - numeric) / denom
        worst = int(np.argmax(rel))
        entries.append(GradCheckEntry(
            name=name,
            max_rel_error=float(rel.reshape(-1)[worst]),
            worst_index=tuple(np.unravel_index(worst, rel.shape)),
            passed=bool(rel.reshape(-1)[worst] <= tolerance),
        ))
    return GradCheckReport(entries=entries, tolerance=tolerance)


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line, then raw little-endian arrays
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = 1


class CheckpointError(ValueError):
    pass


def model_config(cls, block, **defaults):
    """A config dataclass from a JSON object: a config block or a checkpoint header.

    Keys of ``block`` override ``defaults``; JSON lists become tuples for the
    fields whose default is a tuple.
    """
    tuples = {f.name for f in fields(cls) if isinstance(f.default, tuple)}
    return cls(**{**defaults, **{k: tuple(v) if k in tuples else v for k, v in block.items()}})


def save_checkpoint(path, arrays, precision="float64", extra=None):
    """Write named arrays: JSON header line, then payloads in header order."""
    dtype = np.dtype(precision).newbyteorder("<")
    header = {
        "format": CHECKPOINT_FORMAT,
        "precision": precision,
        "params": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    if extra:
        header["extra"] = extra
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v, dtype=dtype).tobytes())


def load_checkpoint(path):
    """Read back arrays and the extra metadata block (or None)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header in {path}") from exc
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"unsupported checkpoint format {header.get('format')!r}")
        dtype = np.dtype(header["precision"]).newbyteorder("<")
        arrays = {}
        for spec in header["params"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise CheckpointError(
                    f"truncated checkpoint payload for parameter {spec['name']!r}")
            arrays[spec["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"unexpected bytes after the last array in {path}")
    return arrays, header.get("extra")
