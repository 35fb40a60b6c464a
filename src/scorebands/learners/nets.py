"""Dense tanh networks trained with plain mini-batch gradient descent.

All trainable backends in this package share this engine: a stack of tanh
hidden layers with a linear output, a loss head that turns the linear output
into (loss, d_output), and a fixed-budget SGD loop. Everything is seeded, so
fits are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def backward(params: MLPParams, acts: list[np.ndarray], d_out: np.ndarray) -> MLPParams:
    """Gradients for every (W, b) given d_loss/d_output."""
    grads: MLPParams = [None] * len(params)  # type: ignore[list-item]
    delta = d_out
    for layer in range(len(params) - 1, -1, -1):
        a_prev = acts[layer]
        dW = a_prev.T @ delta
        db = delta.sum(axis=0)
        grads[layer] = (dW, db)
        if layer > 0:
            delta = (delta @ params[layer][0].T) * (1.0 - a_prev * a_prev)
    return grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_ce_head(out: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy against integer class indices."""
    n = out.shape[0]
    logp = log_softmax(out)
    loss = -logp[np.arange(n), target].mean()
    d_out = np.exp(logp)
    d_out[np.arange(n), target] -= 1.0
    return float(loss), d_out / n


def squared_head(out: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Half mean squared error on a single output column."""
    n = out.shape[0]
    r = out[:, 0] - target
    loss = 0.5 * float((r * r).mean())
    return loss, (r / n)[:, None]


def pinball_head(tau: float):
    """Mean pinball (quantile) loss at level tau on a single output column."""

    def head(out: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
        n = out.shape[0]
        u = target - out[:, 0]
        loss = float(np.maximum(tau * u, (tau - 1.0) * u).mean())
        du = np.where(u > 0, tau, tau - 1.0)
        return loss, (-du / n)[:, None]

    return head


def loss_and_grads(
    params: MLPParams, X: np.ndarray, target: np.ndarray, head
) -> tuple[float, MLPParams]:
    acts, out = forward(params, X)
    loss, d_out = head(out, target)
    return loss, backward(params, acts, d_out)


def fit_mlp(
    X: np.ndarray,
    target: np.ndarray,
    out_dim: int,
    head,
    cfg: TrainConfig,
) -> MLPParams:
    """Train with plain mini-batch SGD for a fixed epoch budget."""
    if len(X) == 0:
        raise ValueError("cannot fit on an empty training set")
    rng = np.random.default_rng(cfg.seed)
    layer_sizes = [X.shape[1], *cfg.hidden, out_dim]
    params = init_params(layer_sizes, rng)
    n = len(X)
    bs = max(1, min(cfg.batch_size, n))
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            _, grads = loss_and_grads(params, X[idx], target[idx], head)
            params = [
                (W - lr * dW, b - lr * db)
                for (W, b), (dW, db) in zip(params, grads)
            ]
    return params


def flatten_params(params: MLPParams) -> np.ndarray:
    return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in params])


def unflatten_params(flat: np.ndarray, like: MLPParams) -> MLPParams:
    params: MLPParams = []
    pos = 0
    for W, b in like:
        params.append(
            (
                flat[pos : pos + W.size].reshape(W.shape),
                flat[pos + W.size : pos + W.size + b.size].copy(),
            )
        )
        pos += W.size + b.size
    return params
