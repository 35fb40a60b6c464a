"""Dense tanh networks trained with plain mini-batch gradient descent.

All trainable backends in this package share this engine: a stack of tanh
hidden layers with a linear output, a loss head that gives the loss on the
linear output and its gradient there, and a fixed-budget SGD loop that
evaluates only the gradient, in float32: training computes no loss. Fits
return float64 parameters and are seeded, so bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MLPParams = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class TrainConfig:
    """Fixed training budget shared by all network learners."""

    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 0.05
    seed: int = 42
    hidden: tuple[int, ...] = (64, 32)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine map fitted on the training inputs."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        if len(X) == 0:
            raise ValueError("cannot fit on an empty training set")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


def init_params(layer_sizes: list[int], rng: np.random.Generator) -> MLPParams:
    """Glorot-normal weights, zero biases."""
    params: MLPParams = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        W = rng.normal(0.0, scale, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        params.append((W, b))
    return params


def forward(params: MLPParams, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns (layer activations including input, linear output)."""
    acts = [X]
    a = X
    for W, b in params[:-1]:
        a = np.tanh(a @ W + b)
        acts.append(a)
    W, b = params[-1]
    out = a @ W + b
    return acts, out


@dataclass(frozen=True)
class Net:
    """A fitted network and the scaler fitted on its training inputs."""

    params: MLPParams
    scaler: Standardizer

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The network's linear output on X, one column per output."""
        return forward(self.params, self.scaler.transform(X))[1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class Head:
    """A loss on the network's linear output, and its gradient there.

    Training evaluates `grad` alone, which keeps the dtype of `out`.
    `loss` is the objective that the gradient checks differentiate.
    """

    loss: Callable[[np.ndarray, np.ndarray], float]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _softmax_ce_loss(out: np.ndarray, target: np.ndarray) -> float:
    return float(-log_softmax(out)[np.arange(out.shape[0]), target].mean())


def _softmax_ce_grad(out: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Row max over a transposed copy: exact, and ~4x cheaper on short rows.
    d_out = out - np.ascontiguousarray(out.T).max(0)[:, None]
    np.exp(d_out, out=d_out)
    d_out /= d_out.sum(axis=1, keepdims=True)
    d_out[np.arange(len(out)), target] -= 1.0
    d_out /= len(out)
    return d_out


# Cross-entropy against integer class indices.
softmax_ce_head = Head(_softmax_ce_loss, _softmax_ce_grad)


def _squared_loss(out: np.ndarray, target: np.ndarray) -> float:
    r = out[:, 0] - target
    return 0.5 * float((r * r).mean())


def _squared_grad(out: np.ndarray, target: np.ndarray) -> np.ndarray:
    return ((out[:, 0] - target) / out.shape[0])[:, None]


# Half mean squared error on a single output column.
squared_head = Head(_squared_loss, _squared_grad)


def _mean_label_loss(out: np.ndarray, target: np.ndarray) -> float:
    return _squared_loss(out, target) + _softmax_ce_loss(
        out[:, 1:], target.astype(np.intp) - 1)


def _mean_label_grad(out: np.ndarray, target: np.ndarray) -> np.ndarray:
    d_out = np.empty_like(out)
    d_out[:, :1] = _squared_grad(out, target)
    d_out[:, 1:] = _softmax_ce_grad(out[:, 1:], target.astype(np.intp) - 1)
    return d_out


# The mean and the label logits of one target y in 1..K: squared error of
# column 0 against y plus cross-entropy of columns 1..K against label y at
# column y, unweighted.
mean_label_head = Head(_mean_label_loss, _mean_label_grad)


def pinball_head(*taus: float) -> Head:
    """Output column j is the quantile at level ``taus[j]`` of one target:
    the sum over the levels of the mean pinball (quantile) loss."""
    levels = np.array(taus, dtype=np.float64)

    def loss(out: np.ndarray, target: np.ndarray) -> float:
        u = target[:, None] - out
        return float(np.maximum(levels * u, (levels - 1.0) * u).mean(axis=0).sum())

    def grad(out: np.ndarray, target: np.ndarray) -> np.ndarray:
        tau = levels.astype(out.dtype)
        du = np.where(target[:, None] - out > 0, tau, tau - 1)
        du /= -out.shape[0]
        return du

    return Head(loss, grad)


def gradient_scratch(params: MLPParams, rows: int) -> tuple[list, list]:
    """Scratch for `batch_gradient` on batches of up to `rows` rows, in the
    parameters' dtype: per layer, its output, and the product that carries
    the gradient back to the layer below."""
    outs = [np.empty((rows, W.shape[1]), W.dtype) for W, _ in params]
    backs = [None] + [np.empty((rows, W.shape[0]), W.dtype) for W, _ in params[1:]]
    return outs, backs


def batch_gradient(
    params: MLPParams,
    grads: MLPParams,
    scratch: tuple[list, list],
    X: np.ndarray,
    target: np.ndarray,
    head: Head,
) -> None:
    """Write into `grads` the gradient of ``head.loss(forward(params, X)[1],
    target)`` with respect to every (W, b) of `params`.

    It evaluates only the head's gradient, never its loss. Products go into
    the buffers of `scratch` (from `gradient_scratch`), and bias adds and
    tanh run in place. X and `params` are left as they are.
    """
    outs, backs = scratch
    m = len(X)
    last = len(params) - 1
    a = X
    acts = [a]
    for layer, (W, b) in enumerate(params):
        z = outs[layer][:m]
        np.matmul(a, W, out=z)
        z += b
        if layer < last:
            np.tanh(z, out=z)
        acts.append(z)
        a = z
    delta = head.grad(a, target)
    for layer in range(last, -1, -1):
        a_prev = acts[layer]
        dW, db = grads[layer]
        np.matmul(a_prev.T, delta, out=dW)
        np.add.reduce(delta, axis=0, out=db)
        if layer:
            W = params[layer][0]
            back = backs[layer][:m]
            if W.shape[1] == 1:  # one product per element: exact
                np.multiply(delta, W.T, out=back)
            else:
                np.matmul(delta, W.T, out=back)
            # a_prev is not read again: it becomes 1 - a_prev**2.
            np.multiply(a_prev, a_prev, out=a_prev)
            np.subtract(1.0, a_prev, out=a_prev)
            back *= a_prev
            delta = back


def fit_mlp(
    X: np.ndarray,
    target: np.ndarray,
    out_dim: int,
    head: Head,
    cfg: TrainConfig,
) -> MLPParams:
    """Train with plain mini-batch SGD for a fixed epoch budget, in float32.

    The float64-drawn weights, X and a float target are cast once. Each step
    fills the flat gradient with `batch_gradient` and takes ``theta - lr *
    d_theta`` in place: every weight and bias is a view into `theta`, every
    gradient one into `d_theta`. Returns float64 copies of the parameters.
    """
    if len(X) == 0:
        raise ValueError("cannot fit on an empty training set")
    rng = np.random.default_rng(cfg.seed)
    init = init_params([X.shape[1], *cfg.hidden, out_dim], rng)
    theta = flatten_params(init).astype(np.float32)
    d_theta = np.empty_like(theta)
    params = unflatten_params(theta, init)
    grads = unflatten_params(d_theta, init)
    X = X.astype(np.float32)
    target = target.astype(np.float32) if target.dtype.kind == "f" else target
    n = len(X)
    bs = max(1, min(cfg.batch_size, n))
    lr = np.float32(cfg.learning_rate)
    scratch = gradient_scratch(params, bs)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        X_epoch, t_epoch = X[order], target[order]
        for start in range(0, n, bs):
            batch_gradient(params, grads, scratch, X_epoch[start : start + bs],
                           t_epoch[start : start + bs], head)
            d_theta *= lr
            theta -= d_theta
    return [(W.astype(np.float64), b.astype(np.float64)) for W, b in params]


def flatten_params(params: MLPParams) -> np.ndarray:
    return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in params])


def unflatten_params(flat: np.ndarray, like: MLPParams) -> MLPParams:
    """Views into `flat`, shaped like the layers of `like`."""
    params: MLPParams = []
    pos = 0
    for W, b in like:
        params.append(
            (
                flat[pos : pos + W.size].reshape(W.shape),
                flat[pos + W.size : pos + W.size + b.size],
            )
        )
        pos += W.size + b.size
    return params
