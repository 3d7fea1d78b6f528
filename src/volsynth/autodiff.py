"""Reverse-mode autodiff over dense numpy tensors.

The graph is implicit: every op returns a new Tensor holding references to its
inputs and a closure that routes the output gradient to them. ``backward`` on
a scalar loss walks the graph once in reverse topological order.

Shapes follow the NCDHW convention for volumetric ops. All ops are
deterministic; randomness lives with the callers.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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

    def __init__(self, data, requires_grad=False, name=None, _prev=()):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if _prev == () and not np.all(np.isfinite(arr)):
            raise GraphError(f"non-finite values in tensor {name or '<input>'}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._prev = tuple(_prev)
        self._backward = None

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other, like=self)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / other)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


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


def tsum(a, axis=None, keepdims=False):
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(np.asarray(out_data), (a,), backward)


def tmean(a, axis=None, keepdims=False):
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


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


def matmul(a, b):
    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def transpose2d(a):
    def backward(g):
        a._accumulate(g.T)

    return _make(np.ascontiguousarray(a.data.T), (a,), backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a):
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), backward)


def leaky_relu(a, alpha=0.2):
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
    # piecewise form avoids overflow in exp; clamp keeps the output strictly
    # inside (0,1) even where rounding would saturate
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    tiny = np.finfo(x.dtype).tiny
    return np.clip(out, tiny, np.nextafter(x.dtype.type(1.0), x.dtype.type(0.0)))


def activation(a, kind, alpha=0.2):
    """Dispatch by name: relu | leaky_relu | tanh | sigmoid."""
    table = {
        "relu": relu,
        "leaky_relu": lambda t: leaky_relu(t, alpha),
        "tanh": tanh,
        "sigmoid": sigmoid,
    }
    if kind not in table:
        raise GraphError(f"unknown activation {kind!r}; expected one of {sorted(table)}")
    return table[kind](a)


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


def _pad_spatial(x, pad):
    if pad == 0:
        return x
    width = ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad))
    return np.pad(x, width)


def _im2col(x_padded, ksize, stride):
    """Columns [N*P1*P2*P3, k1*k2*k3*C] gathered channels-last.

    The inner (kw, C) block of each window is contiguous in the channels-last
    copy, which keeps the gather memcpy-friendly.
    """
    xcl = np.ascontiguousarray(np.moveaxis(x_padded, 1, -1))
    win = sliding_window_view(xcl, ksize, axis=(1, 2, 3))
    win = win[:, ::stride, ::stride, ::stride]
    pdims = win.shape[1:4]
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 3, 5, 6, 7, 4))
    n = x_padded.shape[0]
    return cols.reshape(n * int(np.prod(pdims)), -1), pdims


def _kernel_matrix(kernel):
    """[F, k1*k2*k3*C] layout matching _im2col columns."""
    f = kernel.shape[0]
    return np.ascontiguousarray(kernel.transpose(0, 2, 3, 4, 1)).reshape(f, -1)


def _correlate(x_padded, kernel, stride, return_cols=False):
    """out[n,f,o] = sum_c sum_w x_padded[n,c,o*stride+w] * kernel[f,c,w]."""
    cols, pdims = _im2col(x_padded, kernel.shape[2:], stride)
    out = cols @ _kernel_matrix(kernel).T
    n, f = x_padded.shape[0], kernel.shape[0]
    out = np.ascontiguousarray(
        np.moveaxis(out.reshape((n,) + pdims + (f,)), -1, 1))
    if return_cols:
        return out, cols
    return out


def _kernel_grad_from_cols(cols, gout, ksize, channels):
    """dK[f,c,w] from cached forward columns."""
    f = gout.shape[1]
    gmat = np.moveaxis(gout, 1, -1).reshape(-1, f)
    dk = gmat.T @ cols                                  # [F, k1*k2*k3*C]
    return dk.reshape((f,) + tuple(ksize) + (channels,)).transpose(0, 4, 1, 2, 3)


def _parity_plan(parity, stride, pad, target):
    """Output slice, correlation offset, and sub-kernel taps for one parity.

    Output cells t with (t + pad) % stride == r touch only kernel taps
    w ≡ r mod stride: out[t] = sum_a K[a*stride + r] * x[m - a] where
    m = (t + pad - r) / stride.
    """
    starts = tuple((r - pad) % stride for r in parity)
    counts = tuple(
        (t - st + stride - 1) // stride if t > st else 0
        for st, t in zip(starts, target))
    m0 = tuple((st + pad - r) // stride for st, r in zip(starts, parity))
    return starts, counts, m0


def _scatter_parity(out, corr, starts, counts, m0, stride):
    copy = tuple(min(cnt, corr.shape[2 + ax] - m) if m >= 0 else 0
                 for ax, (cnt, m) in enumerate(zip(counts, m0)))
    if any(c <= 0 for c in copy):
        return
    src = (slice(None), slice(None)) + tuple(
        slice(m, m + c) for m, c in zip(m0, copy))
    dst = (slice(None), slice(None)) + tuple(
        slice(st, st + c * stride, stride) for st, c in zip(starts, copy))
    out[dst] = corr[src]


def _transpose_core(x, kernel_ab, stride, pad, target):
    """Adjoint of strided correlation, decomposed by output parity.

    x: [N,A,*s]; kernel_ab: [A,B,*k] -> [N,B,*target]. Each parity class of
    output cells is one dense stride-1 correlation with a sub-kernel; cells
    the forward conv never produced stay zero. When the kernel splits evenly
    (k % stride == 0) all parities share one im2col and one stacked GEMM.
    """
    N, A = x.shape[:2]
    B = kernel_ab.shape[1]
    ks = kernel_ab.shape[2:]
    out = np.zeros((N, B) + tuple(target), dtype=x.dtype)
    if stride == 1:
        parities = [(0, 0, 0)]
    else:
        rng3 = range(stride)
        parities = [(r1, r2, r3) for r1 in rng3 for r2 in rng3 for r3 in rng3]

    even = all(k % stride == 0 for k in ks)
    if even and stride > 1:
        lens = tuple(k // stride for k in ks)
        width = ((0, 0), (0, 0)) + tuple((l - 1, l - 1) for l in lens)
        cols, pdims = _im2col(np.pad(x, width), lens, 1)
        mats = []
        for parity in parities:
            sub = kernel_ab[:, :, parity[0]::stride, parity[1]::stride, parity[2]::stride]
            flipped = sub[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            mats.append(_kernel_matrix(flipped))
        big = np.concatenate(mats, axis=0)             # [P*B, l1*l2*l3*A]
        corr_all = cols @ big.T                        # [N*Q, P*B]
        corr_all = corr_all.reshape((N,) + pdims + (len(parities), B))
        corr_all = np.moveaxis(corr_all, (4, 5), (0, 2))   # [P, N, B, *Q]
        for pi, parity in enumerate(parities):
            starts, counts, m0 = _parity_plan(parity, stride, pad, target)
            if any(c <= 0 for c in counts):
                continue
            _scatter_parity(out, corr_all[pi], starts, counts, m0, stride)
        return out

    for parity in parities:
        sub = kernel_ab[:, :, parity[0]::stride, parity[1]::stride, parity[2]::stride]
        lens = sub.shape[2:]
        if any(l == 0 for l in lens):
            continue
        starts, counts, m0 = _parity_plan(parity, stride, pad, target)
        if any(c <= 0 for c in counts):
            continue
        flipped = np.ascontiguousarray(
            sub[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
        width = ((0, 0), (0, 0)) + tuple((l - 1, l - 1) for l in lens)
        corr = _correlate(np.pad(x, width), flipped, stride=1)
        _scatter_parity(out, corr, starts, counts, m0, stride)
    return out


def conv3d(x, kernel, bias=None, stride=1, pad=0):
    """Strided 3D cross-correlation.

    x: [N,C,D,H,W]; kernel: [F,C,kd,kh,kw]; bias: [F]. Output spatial dims
    follow floor((s + 2*pad - k)/stride) + 1.
    """
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise DimensionError(
            f"conv3d expects 5-d input and kernel, got {x.data.shape} and {kernel.data.shape}")
    if x.data.shape[1] != kernel.data.shape[1]:
        raise DimensionError(
            f"conv3d channel mismatch: input {x.data.shape} vs kernel {kernel.data.shape}")
    if stride < 1 or pad < 0:
        raise GraphError(f"conv3d requires stride >= 1 and pad >= 0, got {stride}, {pad}")
    ks = kernel.data.shape[2:]
    for s, k in zip(x.data.shape[2:], ks):
        if k > s + 2 * pad:
            raise DimensionError(
                f"conv3d kernel {kernel.data.shape} exceeds padded input {x.data.shape} (pad={pad})")
    xp = _pad_spatial(x.data, pad)
    out_data, cols = _correlate(xp, kernel.data, stride, return_cols=True)
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1, 1)

    in_spatial = x.data.shape[2:]
    in_channels = x.data.shape[1]

    def backward(g):
        if _needs_grad(x):
            x._accumulate(_transpose_core(g, kernel.data, stride, pad, in_spatial))
        if _needs_grad(kernel):
            kernel._accumulate(_kernel_grad_from_cols(cols, g, ks, in_channels))
        if bias is not None and _needs_grad(bias):
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out_data, inputs, backward)


def _embed_spatial(g, pad, lengths):
    """Place g into zeros of the given spatial ``lengths`` at offset ``pad``.

    Entries of g beyond each length are dropped: cells a transposed conv
    never produced contribute nothing to its adjoint.
    """
    N, C = g.shape[:2]
    out = np.zeros((N, C) + tuple(lengths), dtype=g.dtype)
    copy = tuple(min(gs, ln - pad) for gs, ln in zip(g.shape[2:], lengths))
    dst = (slice(None), slice(None)) + tuple(slice(pad, pad + c) for c in copy)
    src = (slice(None), slice(None)) + tuple(slice(0, c) for c in copy)
    out[dst] = g[src]
    return out


def conv3d_transpose(x, kernel, bias=None, stride=1, pad=0, output_dims=None):
    """Transposed 3D convolution, the linear adjoint of conv3d.

    x: [N,C,D,H,W]; kernel: [C,F,kd,kh,kw]; bias: [F]. Output spatial dims
    default to (s - 1)*stride - 2*pad + k; ``output_dims`` overrides them
    (cells past the kernel's reach stay zero), which lets a stride-2 stack
    land exactly on dims that are not powers of two.
    """
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise DimensionError(
            f"conv3d_transpose expects 5-d input and kernel, got {x.data.shape} and {kernel.data.shape}")
    if x.data.shape[1] != kernel.data.shape[0]:
        raise DimensionError(
            f"conv3d_transpose channel mismatch: input {x.data.shape} vs kernel {kernel.data.shape}")
    if stride < 1 or pad < 0:
        raise GraphError(f"conv3d_transpose requires stride >= 1 and pad >= 0, got {stride}, {pad}")
    ks = kernel.data.shape[2:]
    target = conv3d_transpose_output_dims(x.data.shape[2:], ks, stride, pad)
    if output_dims is not None:
        target = tuple(int(t) for t in output_dims)
    if any(t < 1 for t in target):
        raise DimensionError(
            f"conv3d_transpose output dims {target} not positive for input {x.data.shape}")
    out_data = _transpose_core(x.data, kernel.data, stride, pad, target)
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1, 1)

    # adjoint reach: input cell i touches output cells [i*stride - pad, ...+k)
    reach = tuple((d - 1) * stride + k for d, k in zip(x.data.shape[2:], ks))
    in_channels = x.data.shape[1]

    def backward(g):
        need_x, need_k = _needs_grad(x), _needs_grad(kernel)
        if need_x or need_k:
            gp = _embed_spatial(g, pad, reach)
            cols, pdims = _im2col(gp, ks, stride)
            if need_x:
                dx = cols @ _kernel_matrix(kernel.data).T
                n = g.shape[0]
                x._accumulate(np.ascontiguousarray(
                    np.moveaxis(dx.reshape((n,) + pdims + (in_channels,)), -1, 1)))
            if need_k:
                kernel._accumulate(
                    _kernel_grad_from_cols(cols, x.data, ks, g.shape[1]))
        if bias is not None and _needs_grad(bias):
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out_data, inputs, backward)


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

    def __init__(self, channels, momentum=0.9, eps=1e-5, dtype=np.float64):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
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


def mse_reconstruction(x_hat, x):
    """Summed squared error per sample, batch-averaged."""
    t = x if isinstance(x, np.ndarray) else x.data
    if x_hat.data.shape != t.shape:
        raise DimensionError(
            f"reconstruction shapes differ: {x_hat.data.shape} vs {t.shape}")
    n = t.shape[0]
    diff = x_hat.data - t

    def backward(g):
        x_hat._accumulate(g * 2.0 * diff / n)

    return _make(np.asarray((diff * diff).sum() / n, dtype=x_hat.data.dtype), (x_hat,), backward)


def _xlogx(v):
    safe = np.where(v > 0.0, v, 1.0)
    return np.where(v > 0.0, v * np.log(safe), 0.0)


def backward(loss, parameters):
    """Run backprop from ``loss`` and collect per-parameter gradients.

    Parameters not reachable from the loss get zero gradients.
    """
    for p in parameters.values():
        p.zero_grad()
    loss.backward()
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in parameters.items()
    }
