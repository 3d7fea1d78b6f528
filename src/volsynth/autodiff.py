"""Reverse-mode autodiff over dense numpy tensors.

The graph is implicit: every op returns a new Tensor holding references to its
inputs and a closure that routes the output gradient to them. ``backward`` on
a scalar loss walks the graph once in reverse topological order.

Shapes follow the NCDHW convention for volumetric ops. All ops are
deterministic; randomness lives with the callers.
"""

from __future__ import annotations

import numpy as np


class GraphError(ValueError):
    """Contract violation when building or differentiating a graph."""


class DimensionError(GraphError):
    """Operand shapes are incompatible; message names both shapes."""


class Tensor:
    """A numpy array plus gradient bookkeeping.

    ``requires_grad`` marks leaves that accumulate into ``.grad``; interior
    nodes propagate whenever any input requires a gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise GraphError(f"non-finite values in tensor {name or '<input>'}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._prev = ()
        self._backward = None

    # -- plumbing ---------------------------------------------------------

    def item(self):
        return float(self.data)

    def detach(self):
        """Leaf tensor sharing this value but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad = self.grad + g

    def backward(self):
        """Backpropagate from a scalar node, visiting each node once."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other, like=self)))

    def __mul__(self, other):
        return mul(self, other)


def _toposort(root):
    """Iterative post-order DFS so deep graphs never hit the recursion limit."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if g.shape[ax] != n:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _make(data, inputs, backward):
    """Interior node; backward is a closure taking the output gradient."""
    tracked = tuple(t for t in inputs if isinstance(t, Tensor))
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out.name = None
    out._prev = tracked
    out._backward = backward
    return out


def _needs_grad(t):
    """Constants (leaves without requires_grad) never need a gradient."""
    return t.requires_grad or t._backward is not None


# ---------------------------------------------------------------------------
# elementwise / shape ops
# ---------------------------------------------------------------------------

def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def neg(a):
    def backward(g):
        a._accumulate(-g)

    return _make(-a.data, (a,), backward)


def power(a, p):
    p = float(p)

    def backward(g):
        a._accumulate(g * p * a.data ** (p - 1.0))

    return _make(a.data ** p, (a,), backward)


def texp(a):
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def tsqrt(a):
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


def tsum(a, axis=None):
    out_data = a.data.sum(axis=axis)

    def backward(g):
        g = np.asarray(g)
        if axis is not None:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(np.asarray(out_data), (a,), backward)


def tmean(a):
    return mul(tsum(a), 1.0 / a.data.size)


def reshape(a, shape):
    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def flatten(a):
    """Collapse all but the leading (batch) axis."""
    return reshape(a, (a.data.shape[0], -1))


def narrow(a, axis, start, length):
    """Slice ``length`` entries from ``start`` along ``axis``; grad zero-pads."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accumulate(full)

    return _make(np.ascontiguousarray(a.data[idx]), (a,), backward)


def concat(parts, axis):
    parts = [(_as_tensor(p)) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def backward(g):
        start = 0
        for p, n in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + n)
            p._accumulate(g[tuple(idx)])
            start += n

    return _make(out_data, tuple(parts), backward)


def concat_channels(a, b):
    """Stack ``b``'s channels after ``a``'s; all non-channel dims must agree."""
    sa, sb = a.data.shape, b.data.shape
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise DimensionError(f"concat_channels spatial/batch mismatch: {sa} vs {sb}")
    return concat([a, b], axis=1)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a):
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), backward)


def leaky_relu(a, alpha):
    if not 0.0 < alpha < 1.0:
        raise GraphError(f"leaky_relu alpha must lie in (0,1), got {alpha}")
    mask = a.data > 0

    def backward(g):
        a._accumulate(np.where(mask, g, g * a.data.dtype.type(alpha)))

    return _make(np.where(mask, a.data, a.data.dtype.type(alpha) * a.data), (a,), backward)


def tanh(a):
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


def sigmoid(a):
    out_data = _sigmoid(a.data)

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def _sigmoid(x):
    # exp(-|x|) never overflows; clamp keeps the output strictly inside (0,1)
    # even where rounding would saturate
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    tiny = np.finfo(x.dtype).tiny
    return np.clip(out, tiny, np.nextafter(x.dtype.type(1.0), x.dtype.type(0.0)))


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense(x, weight, bias=None):
    """Affine map: x[N,K] @ weight[K,M] + bias[M]."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise DimensionError(
            f"dense shapes incompatible: input {x.data.shape} vs weight {weight.data.shape}")
    out_data = x.data @ weight.data
    if bias is not None:
        out_data = out_data + bias.data

    def backward(g):
        if _needs_grad(x):
            x._accumulate(g @ weight.data.T)
        if _needs_grad(weight):
            weight._accumulate(x.data.T @ g)
        if bias is not None and _needs_grad(bias):
            bias._accumulate(g.sum(axis=0))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, inputs, backward)


# ---------------------------------------------------------------------------
# 3D convolution / transposed convolution
# ---------------------------------------------------------------------------

def conv3d_output_dims(spatial, kernel, stride, pad):
    return tuple((s + 2 * pad - k) // stride + 1 for s, k in zip(spatial, kernel))


def conv3d_transpose_output_dims(spatial, kernel, stride, pad):
    return tuple((s - 1) * stride - 2 * pad + k for s, k in zip(spatial, kernel))


def _embed_spatial(g, offsets, lengths):
    """Place g into zeros of the given spatial ``lengths``, shifted by ``offsets``.

    Cell i of g lands at i + offset per axis; cells that fall outside are
    dropped. Positive offsets zero-pad, negative ones crop.
    """
    out = np.zeros(g.shape[:2] + tuple(lengths), dtype=g.dtype)
    src, dst = [slice(None)] * 2, [slice(None)] * 2
    for size, off, length in zip(g.shape[2:], offsets, lengths):
        lo = max(off, 0)
        hi = max(min(size + off, length), lo)
        dst.append(slice(lo, hi))
        src.append(slice(lo - off, hi - off))
    out[tuple(dst)] = g[tuple(src)]
    return out


def _im2col(x_padded, ksize, stride):
    """Columns [N*P1*P2*P3, k1*k2*k3*C] gathered channels-last.

    In the channels-last copy each window row's (kw, C) block is one
    contiguous run, so the gather copies whole runs: the copy is viewed as
    items of kw*C values, one per (n, output cell, kd, kh). The items view
    is bounds-checked against the copy's buffer.
    """
    xcl = np.ascontiguousarray(np.moveaxis(x_padded, 1, -1))
    n, c = xcl.shape[0], xcl.shape[-1]
    kd, kh, kw = ksize
    pdims = tuple((s - k) // stride + 1 for s, k in zip(xcl.shape[1:4], ksize))
    run = np.dtype((np.void, kw * c * xcl.itemsize))
    sn, sd, sh, sw, _ = xcl.strides
    items = np.ndarray(buffer=xcl, dtype=run, shape=(n,) + pdims + (kd, kh),
                       strides=(sn, sd * stride, sh * stride, sw * stride, sd, sh))
    cols = np.ascontiguousarray(items).view(xcl.dtype)
    return cols.reshape(n * int(np.prod(pdims)), -1), pdims


def _correlate(x_padded, kernel, stride):
    """out[n,f,o] = sum_c sum_w x_padded[n,c,o*stride+w] * kernel[f,c,w].

    Returns the output and the im2col columns, which give the kernel gradient.
    """
    cols, pdims = _im2col(x_padded, kernel.shape[2:], stride)
    n, f = x_padded.shape[0], kernel.shape[0]
    # kernel as [F, k1*k2*k3*C], matching the column layout
    out = cols @ np.ascontiguousarray(kernel.transpose(0, 2, 3, 4, 1)).reshape(f, -1).T
    return np.ascontiguousarray(np.moveaxis(out.reshape((n,) + pdims + (f,)), -1, 1)), cols


def _kernel_grad_from_cols(cols, gout, shape):
    """Gradient of a kernel of ``shape`` [F,C,*k] from its correlation's columns.

    ``gout`` [N,F,*P] is the gradient of the correlation output.
    """
    f, c = shape[:2]
    dk = np.moveaxis(gout, 1, -1).reshape(-1, f).T @ cols     # [F, k1*k2*k3*C]
    return dk.reshape((f,) + tuple(shape[2:]) + (c,)).transpose(0, 4, 1, 2, 3)


def _transpose_core(x, kernel_ab, stride, pad, target):
    """Adjoint of strided correlation, decomposed by output parity.

    x: [N,A,*s]; kernel_ab: [A,B,*k] -> [N,B,*target]. Output cells t with
    (t + pad) % stride == r touch only kernel taps w = a*stride + r:
    out[t] = sum_a K[a*stride + r] * x[m - a], m = (t + pad - r) / stride.
    Zero-padding the kernel to L = ceil(k / stride) taps per parity makes
    every parity one stride-1 correlation with the same L, so all stride^3
    of them share one im2col and one stacked GEMM (sub-pixel convolution).
    Cells the forward conv never produced stay zero.
    """
    N, A = x.shape[:2]
    B = kernel_ab.shape[1]
    lens = tuple(-(-k // stride) for k in kernel_ab.shape[2:])
    taps = _embed_spatial(kernel_ab, (0, 0, 0), [l * stride for l in lens])
    taps = taps.reshape(A, B, lens[0], stride, lens[1], stride, lens[2], stride)
    # rows (r1, r2, r3, B) of flipped sub-kernels, columns in _im2col order
    flipped = taps[:, :, ::-1, :, ::-1, :, ::-1]
    big = flipped.transpose(3, 5, 7, 1, 2, 4, 6, 0).reshape(stride ** 3 * B, -1)
    width = tuple(l - 1 for l in lens)
    xp = _embed_spatial(x, width, [s + 2 * w for s, w in zip(x.shape[2:], width)])
    cols, pdims = _im2col(xp, lens, 1)
    corr = (cols @ big.T).reshape((N,) + pdims + (stride ** 3, B))
    corr = np.moveaxis(corr, (4, 5), (0, 2))                 # [P, N, B, *Q]
    out = np.zeros((N, B) + tuple(target), dtype=x.dtype)
    for p, parity in enumerate(np.ndindex(stride, stride, stride)):
        # cells t = start + i*stride read corr[m0 + i] while both exist
        src, dst = [slice(None)] * 2, [slice(None)] * 2
        for r, t, q in zip(parity, target, pdims):
            start = (r - pad) % stride
            m0 = (start + pad - r) // stride
            count = max(min(-(-(t - start) // stride), q - m0), 0)
            src.append(slice(m0, m0 + count))
            dst.append(slice(start, start + count * stride, stride))
        out[tuple(dst)] = corr[p][tuple(src)]
    return out


def _check_conv(op, x, kernel, channel_axis, stride, pad):
    """Shared argument check; ``channel_axis`` is the kernel axis matching x's channels."""
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise DimensionError(
            f"{op} expects 5-d input and kernel, got {x.data.shape} and {kernel.data.shape}")
    if x.data.shape[1] != kernel.data.shape[channel_axis]:
        raise DimensionError(
            f"{op} channel mismatch: input {x.data.shape} vs kernel {kernel.data.shape}")
    if stride < 1 or pad < 0:
        raise GraphError(f"{op} requires stride >= 1 and pad >= 0, got {stride}, {pad}")


def _conv_node(x, kernel, bias, out_data, adjoint):
    """Add the bias and wire the x, kernel and bias gradients.

    ``adjoint(g, need_x, need_k)`` returns the x and kernel gradients; one
    that is not needed may be None.
    """
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1, 1)

    def backward(g):
        need_x, need_k = _needs_grad(x), _needs_grad(kernel)
        if need_x or need_k:
            dx, dk = adjoint(g, need_x, need_k)
            if need_x:
                x._accumulate(dx)
            if need_k:
                kernel._accumulate(dk)
        if bias is not None and _needs_grad(bias):
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out_data, inputs, backward)


def conv3d(x, kernel, bias=None, stride=1, pad=0):
    """Strided 3D cross-correlation.

    x: [N,C,D,H,W]; kernel: [F,C,kd,kh,kw]; bias: [F]. Output spatial dims
    follow floor((s + 2*pad - k)/stride) + 1. Its adjoint, conv3d_transpose,
    gives the input gradient.
    """
    _check_conv("conv3d", x, kernel, 1, stride, pad)
    spatial = x.data.shape[2:]
    if min(conv3d_output_dims(spatial, kernel.data.shape[2:], stride, pad)) < 1:
        raise DimensionError(
            f"conv3d kernel {kernel.data.shape} exceeds padded input {x.data.shape} (pad={pad})")
    xp = _embed_spatial(x.data, (pad,) * 3, [s + 2 * pad for s in spatial])
    out_data, cols = _correlate(xp, kernel.data, stride)

    def adjoint(g, need_x, need_k):
        return (_transpose_core(g, kernel.data, stride, pad, spatial) if need_x else None,
                _kernel_grad_from_cols(cols, g, kernel.data.shape) if need_k else None)

    return _conv_node(x, kernel, bias, out_data, adjoint)


def conv3d_transpose(x, kernel, bias=None, stride=1, pad=0, output_dims=None):
    """Transposed 3D convolution, the linear adjoint of conv3d.

    x: [N,C,D,H,W]; kernel: [C,F,kd,kh,kw]; bias: [F]. Output spatial dims
    default to (s - 1)*stride - 2*pad + k; ``output_dims`` overrides them
    (cells past the kernel's reach stay zero), which lets a stride-2 stack
    land exactly on dims that are not powers of two. Its adjoint, conv3d,
    gives the input gradient.
    """
    _check_conv("conv3d_transpose", x, kernel, 0, stride, pad)
    ks = kernel.data.shape[2:]
    target = conv3d_transpose_output_dims(x.data.shape[2:], ks, stride, pad)
    if output_dims is not None:
        target = tuple(int(t) for t in output_dims)
    if any(t < 1 for t in target):
        raise DimensionError(
            f"conv3d_transpose output dims {target} not positive for input {x.data.shape}")
    out_data = _transpose_core(x.data, kernel.data, stride, pad, target)
    # adjoint reach: input cell i touches output cells [i*stride - pad, ...+k)
    reach = tuple((d - 1) * stride + k for d, k in zip(x.data.shape[2:], ks))

    def adjoint(g, need_x, need_k):
        dx, cols = _correlate(_embed_spatial(g, (pad,) * 3, reach), kernel.data, stride)
        return dx, _kernel_grad_from_cols(cols, x.data, kernel.data.shape) if need_k else None

    return _conv_node(x, kernel, bias, out_data, adjoint)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BatchNormError(GraphError):
    pass


class BatchNormState:
    """Running statistics updated by exponential moving average.

    ``momentum`` is the retention factor: new = momentum*old + (1-momentum)*batch.
    Batch variance is biased, consistent with the normalization itself.
    """

    def __init__(self, channels, momentum=0.9, eps=1e-5):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps


def batchnorm3d(x, gamma, beta, state, training):
    """Per-channel normalization over (N, D, H, W) of an NCDHW tensor."""
    if x.data.ndim != 5:
        raise DimensionError(f"batchnorm3d expects NCDHW input, got {x.data.shape}")
    axes = (0, 2, 3, 4)
    if training:
        count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3] * x.data.shape[4]
        if count < 2:
            raise BatchNormError(
                f"batchnorm needs >= 2 elements per channel in training mode, got {count}")
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mean
        state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        mean = state.running_mean
        var = state.running_var

    shape = (1, -1, 1, 1, 1)
    ivar = 1.0 / np.sqrt(var + state.eps)
    xhat = (x.data - mean.reshape(shape)) * ivar.reshape(shape)
    out_data = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

    if training:
        def backward(g):
            beta._accumulate(g.sum(axis=axes))
            gamma._accumulate((g * xhat).sum(axis=axes))
            gh = g * gamma.data.reshape(shape)
            gh_mean = gh.mean(axis=axes).reshape(shape)
            ghx_mean = (gh * xhat).mean(axis=axes).reshape(shape)
            x._accumulate(ivar.reshape(shape) * (gh - gh_mean - xhat * ghx_mean))
    else:
        def backward(g):
            beta._accumulate(g.sum(axis=axes))
            gamma._accumulate((g * xhat).sum(axis=axes))
            x._accumulate(g * (gamma.data * ivar).reshape(shape))

    return _make(out_data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# fused losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits, onehot):
    """Mean over the batch of -log softmax probability of the true class."""
    if logits.data.shape != onehot.shape:
        raise DimensionError(
            f"softmax_cross_entropy shapes differ: {logits.data.shape} vs {onehot.shape}")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    n = z.shape[0]
    loss = float((lse.squeeze(1) - (z * onehot).sum(axis=1)).mean())
    softmax = np.exp(z - lse)

    def backward(g):
        logits._accumulate(g * (softmax - onehot) / n)

    return _make(np.asarray(loss, dtype=z.dtype), (logits,), backward)


def bernoulli_reconstruction(x_hat, x, eps=1e-7):
    """Summed binary divergence between voxels and predictions, batch-averaged.

    Cross-entropy shifted by the target entropy so a perfect reconstruction
    scores exactly 0; the shift is constant in the parameters, so gradients
    match plain cross-entropy. Targets must lie in [0,1].
    """
    t = x if isinstance(x, np.ndarray) else x.data
    if t.min() < 0.0 or t.max() > 1.0:
        raise GraphError("reconstruction targets must lie in [0,1]")
    if x_hat.data.shape != t.shape:
        raise DimensionError(
            f"reconstruction shapes differ: {x_hat.data.shape} vs {t.shape}")
    p = np.clip(x_hat.data, eps, 1.0 - eps)
    inside = (x_hat.data > eps) & (x_hat.data < 1.0 - eps)
    n = t.shape[0]
    ce = -(t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum() / n
    entropy = -(_xlogx(t) + _xlogx(1.0 - t)).sum() / n

    def backward(g):
        grad = (p - t) / (p * (1.0 - p)) / n
        x_hat._accumulate(g * np.where(inside, grad, 0.0))

    return _make(np.asarray(ce - entropy, dtype=x_hat.data.dtype), (x_hat,), backward)


def _xlogx(v):
    safe = np.where(v > 0.0, v, 1.0)
    return np.where(v > 0.0, v * np.log(safe), 0.0)


def backward(loss, parameters):
    """Run backprop from ``loss`` and collect per-parameter gradients.

    Parameters not reachable from the loss get zero gradients; a constant loss,
    which no graph connects to any parameter, raises GraphError.
    """
    if not _needs_grad(loss):
        raise GraphError("the loss is a constant with no graph; no parameter gets a gradient")
    for p in parameters.values():
        p.zero_grad()
    loss.backward()
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in parameters.items()
    }
