"""Trainable layers, conv towers, the Adam optimizer, checkpoints.

Layers own named Parameter tensors and call the ops in :mod:`autodiff`.
Initialization draws from a zero-mean Gaussian (std 0.02, biases zero),
the usual choice for adversarial training. Layers build in float64; a model
casts itself once to its config's precision with :meth:`Module.cast`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datasets import one_hot
from .volumes import Volume

INIT_STD = 0.02
# every tower layer: 4^3 kernels, stride 2, pad 1 (conv_schedule assumes them)
KERNEL, STRIDE, PAD = 4, 2, 1
# the negative slope of every ConvTower's leaky ReLU
LEAKY_ALPHA = 0.2


class Parameter(Tensor):
    def __init__(self, data, name):
        super().__init__(data, requires_grad=True, name=name)


def gaussian_init(shape, rng):
    return rng.normal(0.0, INIT_STD, size=shape)


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

    def cast(self, dtype):
        """Every parameter and batchnorm running statistic converted to ``dtype``."""
        for p in self.parameters().values():
            p.data = p.data.astype(dtype)
        for bn in _batchnorms([self]):
            bn.state.running_mean = bn.state.running_mean.astype(dtype)
            bn.state.running_var = bn.state.running_var.astype(dtype)


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
    def __init__(self, in_features, out_features, rng, name):
        self.weight = Parameter(gaussian_init((in_features, out_features), rng),
                                f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features), f"{name}.bias")

    def __call__(self, x):
        return ad.dense(x, self.weight, self.bias)


class Conv3d(Module):
    """Kernel [F, C, 4, 4, 4] and bias of one ConvTower layer, which applies them."""

    def __init__(self, in_channels, out_channels, rng, name):
        shape = (out_channels, in_channels) + (KERNEL,) * 3
        self.kernel = Parameter(gaussian_init(shape, rng), f"{name}.kernel")
        self.bias = Parameter(np.zeros(out_channels), f"{name}.bias")


class ConvTranspose3d(Module):
    def __init__(self, in_channels, out_channels, rng, name):
        shape = (in_channels, out_channels) + (KERNEL,) * 3
        self.kernel = Parameter(gaussian_init(shape, rng), f"{name}.kernel")
        self.bias = Parameter(np.zeros(out_channels), f"{name}.bias")

    def __call__(self, x, output_dims):
        return ad.conv3d_transpose(x, self.kernel, self.bias, stride=STRIDE, pad=PAD,
                                   output_dims=output_dims)


class BatchNorm3d(Module):
    """Trained scale and shift; running statistics saved under ``state_name``."""

    def __init__(self, channels, name, state_name):
        self.gamma = Parameter(np.ones(channels), f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), f"{name}.beta")
        self.state_name = state_name
        self.state = ad.BatchNormState(channels)

    def __call__(self, x, training):
        return ad.batchnorm3d(x, self.gamma, self.beta, self.state, training)


class LabelProjection(Module):
    """Dense map from a label vector to a tanh-activated single-channel volume."""

    def __init__(self, num_classes, spatial, rng, name):
        d, h, w = spatial
        self.spatial = (d, h, w)
        self.weight = Parameter(gaussian_init((num_classes, d * h * w), rng), f"{name}.weight")
        self.bias = Parameter(np.zeros(d * h * w), f"{name}.bias")

    def __call__(self, y):
        vol = ad.tanh(ad.dense(y, self.weight, self.bias))
        return ad.reshape(vol, (y.data.shape[0], 1) + self.spatial)


def label_projections(num_classes, sizes, rng, name):
    """One LabelProjection ``{name}.proj{i}`` per spatial size; none without classes.

    Towers build them after their own layers: RNG draws and checkpoint order rely on it.
    """
    if not num_classes:
        return []
    return [LabelProjection(num_classes, size, rng, f"{name}.proj{i}")
            for i, size in enumerate(sizes)]


class LabelError(ValueError):
    """A label matrix whose rows are not one-hot."""


def label_tensor(y, num_classes):
    """Labels as a Tensor of one-hot rows; class indices are encoded first.

    A matrix or Tensor passes through only if every row holds entries in
    {0, 1} with exactly one 1: the conditioned towers gather per-class label
    terms by row, which equals the per-row label volume only for one-hot rows.
    """
    if not isinstance(y, Tensor):
        y = np.asarray(y)
        y = Tensor(one_hot(y, num_classes) if y.ndim == 1 else y)
    rows = y.data
    if rows.ndim != 2 or not (np.all((rows == 0) | (rows == 1))
                              and np.all(rows.sum(axis=1) == 1)):
        raise LabelError(f"label rows must be one-hot (entries 0 or 1, one 1 per row); "
                         f"got a {rows.shape} matrix that is not")
    return y


# inference runs on slices of this many rows: a forward pass keeps every
# activation and im2col buffer of its batch alive until it returns
INFERENCE_CHUNK = 50


def in_chunks(forward, *arrays):
    """``forward`` applied to INFERENCE_CHUNK-row slices of ``arrays``, concatenated."""
    n = arrays[0].shape[0]
    return np.concatenate([forward(*(a[i:i + INFERENCE_CHUNK] for a in arrays))
                           for i in range(0, n, INFERENCE_CHUNK)])


def sample_prior(decode, num_classes, z_dim, dtype, class_index, count, seed):
    """``count`` volumes of one class decoded from standard-normal latents.

    ``decode(z, y)`` maps latent and one-hot label Tensors to [n,1,d,h,w]. All
    latents come from one ``default_rng(seed)`` draw before decoding, so the
    volumes do not depend on INFERENCE_CHUNK.
    """
    if not 0 <= class_index < num_classes:
        raise KeyError(f"unknown class {class_index}; model covers 0..{num_classes - 1}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    z = np.random.default_rng(seed).standard_normal((count, z_dim)).astype(dtype)
    y = one_hot(np.full(count, class_index), num_classes, dtype=dtype)
    out = in_chunks(lambda zc, yc: decode(Tensor(zc), Tensor(yc)).data, z, y)
    return [Volume(v[0]) for v in out]


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

    With ``num_classes`` > 0 every conv's input gains one channel: the label
    volume ``projections[i](y)`` at that layer's input size. A label volume
    depends only on the one-hot row, so each conv splits into a volume term
    over the input's channels and a label term: ``label_terms(y)`` convolves
    every layer's label channel once per class and gathers it by row, and
    ``forward`` adds those terms to the volume terms. ``forward`` returns the
    flattened last activation and every layer's pre-activation; the critic's
    gradient-penalty graph reads the latter.
    """

    def __init__(self, dims, in_channels, channels, rng, name, num_classes=0):
        self.sizes = conv_schedule(dims, len(channels))
        self.alpha = LEAKY_ALPHA
        widths = [in_channels] + list(channels)
        label = 1 if num_classes else 0
        self.convs = [
            Conv3d(widths[i] + label, widths[i + 1], rng, f"{name}.conv{i}")
            for i in range(len(channels))
        ]
        self.out_features = channels[-1] * int(np.prod(self.sizes[-1]))
        self.projections = label_projections(num_classes, self.sizes[:-1], rng, name)

    def volume_kernel(self, i):
        """Layer i's kernel over its input volume's channels (all of it without classes)."""
        kernel = self.convs[i].kernel
        if not self.projections:
            return kernel
        return ad.narrow(kernel, 1, 0, kernel.data.shape[1] - 1)

    def _label_term(self, i, y):
        """Layer i's response to the label channel: one conv per class, gathered by row."""
        kernel, projection = self.convs[i].kernel, self.projections[i]
        n = projection.weight.data.shape[0]
        per_class = ad.conv3d(projection(Tensor(np.eye(n, dtype=y.data.dtype))),
                              ad.narrow(kernel, 1, kernel.data.shape[1] - 1, 1),
                              stride=STRIDE, pad=PAD)
        rows = ad.dense(y, ad.reshape(per_class, (n, -1)))
        return ad.reshape(rows, (y.data.shape[0],) + per_class.data.shape[1:])

    def label_terms(self, y):
        """Every layer's label term for the one-hot rows ``y``, as ``forward`` takes them."""
        return [self._label_term(i, y) for i in range(len(self.projections))]

    def forward(self, x, terms=None):
        """``terms`` are ``label_terms(y)`` for a tower with classes, else None."""
        h, pres = x, []
        for i, conv in enumerate(self.convs):
            pre = ad.conv3d(h, self.volume_kernel(i), conv.bias, stride=STRIDE, pad=PAD)
            if self.projections:
                pre = ad.add(pre, terms[i])
            pres.append(pre)
            h = ad.leaky_relu(pre, self.alpha)
        return ad.flatten(h), pres


class DeconvTower(Module):
    """Dense seed volume, then stride-2 transposed convolutions up to ``dims``.

    Batchnorm + ReLU follow the seed and every hidden layer; the last layer
    has one channel and a sigmoid. With ``num_classes`` > 0 every transposed
    conv's input gains one channel: the label volume ``projections[i](y)``.
    """

    def __init__(self, dims, in_features, channels, rng, name, num_classes=0):
        layers = len(channels)
        self.sizes = deconv_schedule(dims, layers)
        self.seed_shape = (channels[0],) + self.sizes[0]
        self.input_dense = Dense(in_features, int(np.prod(self.seed_shape)), rng,
                                 f"{name}.input")
        self.seed_bn = BatchNorm3d(channels[0], f"{name}.bn0", f"{name}.bnstate0")
        widths = list(channels) + [1]
        label = 1 if num_classes else 0
        self.deconvs = [
            ConvTranspose3d(widths[i] + label, widths[i + 1], rng, f"{name}.deconv{i}")
            for i in range(layers)
        ]
        self.bns = [
            BatchNorm3d(widths[i], f"{name}.bn{i}", f"{name}.bnstate{i}")
            for i in range(1, layers)
        ]
        self.projections = label_projections(num_classes, self.sizes[:-1], rng, name)

    def forward(self, x, training, y=None):
        h = ad.reshape(self.input_dense(x), (x.data.shape[0],) + self.seed_shape)
        h = ad.relu(self.seed_bn(h, training))
        for i, deconv in enumerate(self.deconvs):
            if self.projections:
                h = ad.concat_channels(h, self.projections[i](y))
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


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line, then raw little-endian arrays
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = 1


class CheckpointError(ValueError):
    pass


@contextmanager
def checkpoint_errors(path):
    """Model metadata or arrays that do not fit together raise CheckpointError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc


class ConfigError(ValueError):
    """A config block or checkpoint header that ``read_config`` rejects."""


# the JSON values that may stand for a default of each type (no bool is a number), by name
ACCEPTS = {bool: (bool, "true or false"), int: (Integral, "an integer"),
           float: (Real, "a number"), str: (str, "a string"), dict: (dict, "a JSON object"),
           tuple: ((list, tuple), "a list of integers"),
           type(None): ((str, type(None)), "a string or null"),
           list: ((str, type(None), list), "a name, null or a list of names")}
# the values a field may take, by its name in any block; each entry of a width list (a tuple
# setting) is >= 1, and the list is not empty
VALUE_RULES = {**dict.fromkeys(("epochs", "batch_size", "max_iters", "num_components",
                                "critic_iters", "latent_dim", "z_dim", "repeats",
                                "train_per_class", "test_per_class"), (">=", 1)),
               **dict.fromkeys(("val_per_class", "seed"), (">=", 0)),
               "k": (">=", 2), "learning_rate": (">", 0), "reg_c": (">", 0),
               "dtype": ("in", ("float32", "float64"))}


def read_config(block, spec, what):
    """``block``, a JSON object of ``spec``'s fields, with its defaults filled in.

    ``spec`` is {field: default}, where a type marks a field the block must set; each
    value is one ``ACCEPTS`` for its default's type, and becomes a tuple or list if that is
    one, and then meets the field's ``VALUE_RULES``.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(spec))
    if unknown:
        raise ConfigError(f"unknown {what} fields: {unknown}")
    values = {}
    for name, default in spec.items():
        kind = default if isinstance(default, type) else type(default)
        if name not in block and kind is default:
            raise ConfigError(f"{what} requires {name!r}")
        value = block.get(name, default)
        types, expected = ACCEPTS[kind]
        if (not isinstance(value, types) or isinstance(value, bool) != (kind is bool)
                or kind is tuple and not all(type(v) is int for v in value)):
            raise ConfigError(f"{name} must be {expected}, got {value!r}")
        if kind in (tuple, list):
            value = kind(value) if isinstance(value, (list, tuple)) else [value]
        if kind is tuple and not (value and min(value) >= 1):
            raise ConfigError(f"{name} must be a non-empty list of integers >= 1, "
                              f"got {list(value)}")
        op, bound = VALUE_RULES.get(name, (None, None))
        if op and not (value >= bound if op == ">=" else value > bound if op == ">"
                       else value in bound):
            raise ConfigError(f"{name} must be {op} {bound}, got {value!r}")
        values[name] = value
    return values


def config_fields(cls):
    """{field: default} of a config dataclass; a field without a default maps to its type."""
    return {f.name: f.default if f.default is not MISSING else f.default_factory()
            if f.default_factory is not MISSING else get_type_hints(cls)[f.name]
            for f in fields(cls)}


class Config:
    """Base of a config dataclass: one built in code meets ``read_config``'s rules too."""

    def __post_init__(self):
        read_config(vars(self), config_fields(type(self)), type(self).__name__)


def model_config(cls, block, **defaults):
    """``cls`` from a config block or checkpoint header; ``defaults`` replace its own."""
    return cls(**read_config(block, {**config_fields(cls), **defaults}, cls.__name__))


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
    """Read back arrays and the extra metadata block (or None).

    A header without a known format, a numpy precision and a list of named
    non-negative shapes raises CheckpointError, as does a payload of any other
    length.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            dtype = np.dtype(header["precision"]).newbyteorder("<")
            specs = [(str(spec["name"]), tuple(int(n) for n in spec["shape"]))
                     for spec in header["params"]]
            if any(n < 0 for _, shape in specs for n in shape):
                raise ValueError("negative array dimension")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint header in {path}: {exc}") from exc
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"unsupported checkpoint format {header.get('format')!r}")
        arrays = {}
        for name, shape in specs:
            count = math.prod(shape)
            raw = fh.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise CheckpointError(f"truncated checkpoint payload for parameter {name!r}")
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"unexpected bytes after the last array in {path}")
    return arrays, header.get("extra")
