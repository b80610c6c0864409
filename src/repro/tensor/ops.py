"""Differentiable operations on :class:`~repro.tensor.tensor.Tensor`.

Each function computes a forward value with numpy and registers a
backward closure via :meth:`Tensor.from_op`.  All binary operations are
broadcasting-aware; gradients are reduced back to each operand's shape
with :func:`~repro.tensor.tensor._unbroadcast`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.tensor import Tensor, _ensure_tensor, _unbroadcast, is_grad_enabled

# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition with broadcasting."""
    data = a.data + b.data

    if data.shape == a.shape == b.shape:
        # No broadcasting happened: the gradient passes through as-is.
        def backward(grad):
            return (grad, grad)
    else:
        def backward(grad):
            return (_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape))

    return Tensor.from_op(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise subtraction with broadcasting."""
    data = a.data - b.data

    if data.shape == a.shape == b.shape:
        def backward(grad):
            return (grad, -grad)
    else:
        def backward(grad):
            return (_unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape))

    return Tensor.from_op(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product with broadcasting."""
    data = a.data * b.data

    if data.shape == a.shape == b.shape:
        def backward(grad):
            return (grad * b.data, grad * a.data)
    else:
        def backward(grad):
            return (
                _unbroadcast(grad * b.data, a.shape),
                _unbroadcast(grad * a.data, b.shape),
            )

    return Tensor.from_op(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise division with broadcasting."""
    data = a.data / b.data

    def backward(grad):
        return (
            _unbroadcast(grad / b.data, a.shape),
            _unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return Tensor.from_op(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    """Elementwise negation."""
    return Tensor.from_op(-a.data, (a,), lambda grad: (-grad,))


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    data = a.data**exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return Tensor.from_op(data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the origin)."""
    data = np.abs(a.data)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return Tensor.from_op(data, (a,), backward)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient passes through only inside the interval."""
    data = np.clip(a.data, low, high)

    def backward(grad):
        mask = (a.data >= low) & (a.data <= high)
        return (grad * mask,)

    return Tensor.from_op(data, (a,), backward)


# ----------------------------------------------------------------------
# Transcendental / activation functions
# ----------------------------------------------------------------------


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    data = np.exp(a.data)

    def backward(grad):
        return (grad * data,)

    return Tensor.from_op(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    data = np.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return Tensor.from_op(data, (a,), backward)


def sin(a: Tensor) -> Tensor:
    """Elementwise sine (Time2Vec's periodic component)."""
    data = np.sin(a.data)

    def backward(grad):
        return (grad * np.cos(a.data),)

    return Tensor.from_op(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - data**2),)

    return Tensor.from_op(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    # Stable piecewise formulation avoids overflow for large |x|; the
    # decay term is computed once and shared by both branches.
    data = _stable_sigmoid(a.data)

    def backward(grad):
        return (grad * data * (1.0 - data),)

    return Tensor.from_op(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    mask = a.data > 0
    data = a.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor.from_op(data, (a,), backward)


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU, used by the GAT baseline's attention scores."""
    mask = a.data > 0
    scale = np.where(mask, 1.0, negative_slope)
    data = a.data * scale

    def backward(grad):
        return (grad * scale,)

    return Tensor.from_op(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad):
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * data).sum(axis=axis, keepdims=True)
        return (data * (grad - dot),)

    return Tensor.from_op(data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable for cross-entropy losses)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_norm
    soft = np.exp(data)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor.from_op(data, (a,), backward)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product supporting 1-d, 2-d and batched operands."""
    data = a.data @ b.data

    def backward(grad):
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            # Dot product: grad is a scalar.
            return (grad * b_data, grad * a_data)
        if a_data.ndim == 1:
            # (k,) @ (k, m) -> (m,)
            return (grad @ b_data.T, np.outer(a_data, grad))
        if b_data.ndim == 1:
            # (n, k) @ (k,) -> (n,)
            return (np.outer(grad, b_data), a_data.T @ grad)
        grad_a = grad @ np.swapaxes(b_data, -1, -2)
        grad_b = np.swapaxes(a_data, -1, -2) @ grad
        return (_unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape))

    return Tensor.from_op(data, (a, b), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis`` (all elements when None)."""
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor.from_op(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return Tensor.from_op(data, (a,), backward)


def max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over ``axis``; ties split the gradient equally."""
    data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad):
        expanded = data if keepdims or axis is None else np.expand_dims(data, axis=axis)
        mask = (a.data == expanded).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (mask * g,)

    return Tensor.from_op(data, (a,), backward)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reshape without changing element order."""
    data = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return Tensor.from_op(data, (a,), backward)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes (reverse them when ``axes`` is None)."""
    data = a.data.transpose(axes)

    def backward(grad):
        if axes is None:
            return (grad.transpose(),)
        inverse = np.argsort(axes)
        return (grad.transpose(inverse),)

    return Tensor.from_op(data, (a,), backward)


def getitem(a: Tensor, index) -> Tensor:
    """Basic and fancy indexing with scatter-add backward."""
    data = a.data[index]

    def backward(grad):
        out = np.zeros_like(a.data)
        np.add.at(out, index, grad)
        return (out,)

    return Tensor.from_op(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [_ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        slices = []
        for i in range(len(tensors)):
            selector = [slice(None)] * grad.ndim
            selector[axis] = slice(offsets[i], offsets[i + 1])
            slices.append(grad[tuple(selector)])
        return tuple(slices)

    return Tensor.from_op(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor.from_op(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is constant)."""
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            _unbroadcast(grad * cond, a.shape),
            _unbroadcast(grad * ~cond, b.shape),
        )

    return Tensor.from_op(data, (a, b), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add backward.

    ``indices`` is a constant integer array; gradients accumulate into
    the selected rows of ``weight`` (duplicate indices add up, matching
    ``torch.nn.Embedding``).
    """
    idx = np.asarray(indices, dtype=np.int64)
    data = weight.data[idx]

    def backward(grad):
        out = np.zeros_like(weight.data)
        np.add.at(out, idx, grad)
        return (out,)

    return Tensor.from_op(data, (weight,), backward)


def index_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows ``a[indices]`` with scatter-add backward.

    One call pulls every indexed row out of a matrix (e.g. the
    extractor's edge endpoints from the node-embedding matrix).
    ``indices`` is a constant integer array; duplicate indices
    accumulate gradient into the same row.
    """
    idx = np.asarray(indices, dtype=np.int64)
    data = a.data[idx]

    def backward(grad):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, grad)
        return (out,)

    return Tensor.from_op(data, (a,), backward)


def scatter_rows(a: Tensor, indices: np.ndarray, rows: Tensor) -> Tensor:
    """Out-of-place row write: a copy of ``a`` with ``result[indices] = rows``.

    The per-edge propagation fold's on-tape row write.  ``indices``
    must be unique — duplicate writes would make the backward pass
    ill-defined (last-write-wins has no gradient for the overwritten
    rows).

    Backward: the written rows' upstream gradient flows to ``rows``;
    the remaining rows' gradient flows through to ``a``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size != np.unique(idx).size:
        raise ValueError("scatter_rows requires unique row indices (got duplicates)")
    rows = _ensure_tensor(rows)
    data = a.data.copy()
    data[idx] = rows.data

    def backward(grad):
        grad_a = grad.copy()
        grad_a[idx] = 0.0
        return (grad_a, grad[idx].reshape(rows.shape))

    return Tensor.from_op(data, (a, rows), backward)


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``segment_ids``.

    ``segment_ids`` is a constant ``(m,)`` integer array; row ``i`` of
    ``a`` is added into output row ``segment_ids[i]``.  Backward is a
    row gather of the upstream gradient.
    """
    ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments,) + a.shape[1:], dtype=a.data.dtype)
    np.add.at(out, ids, a.data)

    def backward(grad):
        return (grad[ids],)

    return Tensor.from_op(out, (a,), backward)


def segment_mean(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of the rows of ``a`` per segment (empty segments stay zero).

    The batched counterpart of per-graph ``rows.mean(axis=0)``: the
    mega-batched readout pools every member's node rows with one call
    using the per-graph segment ids.  Backward gathers the upstream row
    gradient scaled by ``1 / segment_size``.
    """
    ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    scale = (1.0 / np.maximum(counts, 1.0)).reshape(
        (num_segments,) + (1,) * (a.data.ndim - 1)
    )
    out = np.zeros((num_segments,) + a.shape[1:], dtype=a.data.dtype)
    np.add.at(out, ids, a.data)
    out *= scale

    def backward(grad):
        return ((grad * scale)[ids],)

    return Tensor.from_op(out, (a,), backward)


def gru_sequence(
    sequence: Tensor,
    h0: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
) -> Tensor:
    """Run a full GRU scan ``(steps, batch, in) -> (steps, batch, hidden)``
    as ONE autograd node.

    Computes exactly the :class:`repro.nn.GRUCell` recurrence

        z = sigmoid(x W_z + h U_z + b_z)
        r = sigmoid(x W_r + h U_r + b_r)
        n = tanh(x W_n + (r * h) U_n + b_n)
        h' = z * h + (1 - z) * n

    with the input projection ``x W + b`` batched over all steps and the
    backward pass as a hand-written BPTT loop.  Replacing the ~20 tape
    nodes per step of the op-by-op cell with a single node is what makes
    the global extractor's per-edge GRU affordable on long sequences.
    The BPTT activations are kept only when a tape records.

    Gate layout matches ``GRUCell``: columns ``[z | r | n]`` in the
    fused ``(·, 3H)`` weight matrices.
    """
    parents = (sequence, h0, weight_ih, weight_hh, bias)
    steps, batch, in_size = sequence.shape
    H = weight_hh.shape[0]
    x = sequence.data
    W, U, b = weight_ih.data, weight_hh.data, bias.data
    record = _records(parents)

    # Input projection for every step at once (bias added in place).
    gates_x = (x.reshape(steps * batch, in_size) @ W).reshape(steps, batch, 3 * H)
    gates_x += b

    h = h0.data
    outputs = np.empty((steps, batch, H))
    if record:
        saved = np.empty((5, steps, batch, H))  # h_prev, z, r, n, ghn
    for t in range(steps):
        h_next, *acts = _gru_gates(gates_x[t], h, U)
        if record:
            saved[:, t] = (h, *acts)
        h = outputs[t] = h_next
    if not record:
        return Tensor(outputs)
    h_prev, z_all, r_all, n_all, ghn_all = saved

    def backward(grad):
        d_gx = np.empty((steps, batch, 3 * H))
        dU = np.zeros_like(U)
        carry = np.zeros((batch, H))
        for t in range(steps - 1, -1, -1):
            d_gx[t], d_gh, carry = _gru_gates_adjoint(
                grad[t] + carry, h_prev[t], z_all[t], r_all[t], n_all[t], ghn_all[t], U
            )
            dU += h_prev[t].T @ d_gh
        d_gx_flat = d_gx.reshape(steps * batch, 3 * H)
        x_flat = x.reshape(steps * batch, in_size)
        return (
            (d_gx_flat @ W.T).reshape(steps, batch, in_size),
            carry,
            x_flat.T @ d_gx_flat,
            dU,
            d_gx_flat.sum(axis=0),
        )

    return Tensor.from_op(outputs, parents, backward)


def sum_wave_scan(
    state: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    wave_bounds: np.ndarray,
    stabilizer: str = "bounded",
) -> Tensor:
    """Run a whole SUM-updater wave schedule as ONE autograd node.

    ``state`` is the ``(n, q)`` node-feature matrix; edge ``i`` of the
    schedule merges row ``src[i]`` into row ``dst[i]``::

        X(dst) := stabilize(X(src) + X(dst))

    with ``stabilize`` one of ``"bounded"`` (``tanh``), ``"average"``
    (``· / 2``) or ``"none"``.  ``wave_bounds`` splits the edges into
    waves (see :mod:`repro.graph.plan`): within a wave every edge reads
    the pre-wave state and no two edges share a destination, so each
    wave is one gather → merge → in-place row write on a single copy of
    ``state``.

    Backward is a reverse sweep over the waves.  Per wave, the upstream
    rows of the destinations are pulled through the stabilizer, become
    the gradient of the pre-wave destination rows, and are then
    scatter-added into the source rows (sources may repeat, and a source
    may be a later edge's destination in the same wave).  Only the
    ``bounded`` stabilizer keeps activations (its ``tanh`` outputs), and
    only when a tape records.
    """
    if stabilizer not in ("bounded", "average", "none"):
        raise KeyError(f"unknown stabilizer {stabilizer!r}")
    record = _records((state,))
    waves = _wave_slices(wave_bounds)
    out = state.data.copy()
    saved = np.empty((src.shape[0], out.shape[1])) if record and stabilizer == "bounded" else None
    for start, end in waves:
        dst_w = dst[start:end]
        merged = out[src[start:end]] + out[dst_w]
        if stabilizer == "bounded":
            merged = np.tanh(merged)
            if saved is not None:
                saved[start:end] = merged
        elif stabilizer == "average":
            merged = merged * 0.5
        out[dst_w] = merged
    if not record:
        return Tensor(out)

    def backward(grad):
        G = grad.copy()
        for start, end in reversed(waves):
            dst_w = dst[start:end]
            d_merged = G[dst_w]
            if saved is not None:
                d_merged *= 1.0 - saved[start:end] ** 2
            elif stabilizer == "average":
                d_merged *= 0.5
            G[dst_w] = d_merged
            np.add.at(G, src[start:end], d_merged)
        return (G,)

    return Tensor.from_op(out, (state,), backward)


def gru_wave_scan(
    state: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    wave_bounds: np.ndarray,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    encodings: Tensor | None = None,
) -> Tensor:
    """Run a whole GRU-updater wave schedule as ONE autograd node.

    ``state`` is the ``(n, H)`` hidden-state matrix; edge ``i`` feeds the
    message ``x = h(src[i]) ⊕ encodings[i]`` (just ``h(src[i])`` when
    ``encodings`` is None) through the :class:`repro.nn.GRUCell` update
    of row ``dst[i]`` — the same gate math as :func:`gru_sequence`, one
    batched cell step per wave (``wave_bounds`` as in
    :func:`sum_wave_scan`).

    Per-edge messages, pre-update target rows and gate activations are
    kept only when a tape records.  Backward is a reverse sweep over the
    waves: each wave's destination-row gradient runs through the gate
    adjoint, the ``dh_prev`` part replaces the destination rows and the
    source part of ``dx`` is scatter-added into the source rows.  The
    weight, bias and per-edge encoding gradients are formed once from
    the stacked per-edge gate gradients after the sweep.
    """
    parents = (state, weight_ih, weight_hh, bias)
    if encodings is not None:
        parents += (encodings,)
    record = _records(parents)
    waves = _wave_slices(wave_bounds)
    W, U, b = weight_ih.data, weight_hh.data, bias.data
    H = U.shape[0]
    enc = encodings.data if encodings is not None else None
    m = src.shape[0]
    out = state.data.copy()
    if record:
        messages = np.empty((m, W.shape[0]))
        saved = np.empty((5, m, H))  # h_prev, z, r, n, ghn
    for start, end in waves:
        dst_w = dst[start:end]
        x = out[src[start:end]]
        if enc is not None:
            x = np.concatenate([x, enc[start:end]], axis=1)
        target = out[dst_w]
        out[dst_w], *acts = _gru_gates(x @ W + b, target, U)
        if record:
            messages[start:end] = x
            saved[:, start:end] = (target, *acts)
    if not record:
        return Tensor(out)
    h_prev, z_all, r_all, n_all, ghn_all = saved

    def backward(grad):
        G = grad.copy()
        d_gx = np.empty((m, 3 * H))
        d_gh = np.empty((m, 3 * H))
        W_src_T = W[:H].T
        for start, end in reversed(waves):
            dst_w = dst[start:end]
            d_gx[start:end], d_gh[start:end], G[dst_w] = _gru_gates_adjoint(
                G[dst_w],
                h_prev[start:end],
                z_all[start:end],
                r_all[start:end],
                n_all[start:end],
                ghn_all[start:end],
                U,
            )
            np.add.at(G, src[start:end], d_gx[start:end] @ W_src_T)
        grads = (G, messages.T @ d_gx, h_prev.T @ d_gh, d_gx.sum(axis=0))
        if enc is not None:
            grads += (d_gx @ W[H:].T,)
        return grads

    return Tensor.from_op(out, parents, backward)


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` is recorded on the tape."""
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def _wave_slices(wave_bounds: np.ndarray) -> list[tuple[int, int]]:
    """Half-open ``(start, end)`` edge slices of each wave."""
    bounds = np.asarray(wave_bounds).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _gru_gates(gx: np.ndarray, h: np.ndarray, U: np.ndarray):
    """One GRU step from the input projection ``gx = x W + b``.

    Returns ``(h_next, z, r, n, ghn)``; the last four are the
    activations :func:`_gru_gates_adjoint` needs.
    """
    H = h.shape[1]
    gh = h @ U
    z = _stable_sigmoid(gx[:, 0:H] + gh[:, 0:H])
    r = _stable_sigmoid(gx[:, H : 2 * H] + gh[:, H : 2 * H])
    ghn = gh[:, 2 * H : 3 * H]
    n = np.tanh(gx[:, 2 * H : 3 * H] + r * ghn)
    return z * h + (1.0 - z) * n, z, r, n, ghn


def _gru_gates_adjoint(dh, h, z, r, n, ghn, U):
    """Adjoint of :func:`_gru_gates` for upstream gradient ``dh``.

    Returns ``(d_gx, d_gh, dh_prev)``: the gradients of the input
    projection and of the hidden projection ``h U`` (both ``(·, 3H)``),
    and of the previous hidden state.
    """
    dz = dh * (h - n)
    dn_pre = dh * (1.0 - z) * (1.0 - n**2)
    dz_pre = dz * z * (1.0 - z)
    dr_pre = dn_pre * ghn * r * (1.0 - r)
    d_gx = np.concatenate([dz_pre, dr_pre, dn_pre], axis=1)
    d_gh = np.concatenate([dz_pre, dr_pre, dn_pre * r], axis=1)
    return d_gx, d_gh, dh * z + d_gh @ U.T


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Raw-array version of :func:`sigmoid`'s stable formulation."""
    decay = np.exp(-np.abs(x))
    norm = 1.0 + decay
    return np.where(x >= 0, 1.0 / norm, decay / norm)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero a fraction ``rate`` and rescale survivors."""
    if rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep) / keep

    def backward(grad):
        return (grad * mask,)

    return Tensor.from_op(a.data * mask, (a,), backward)
