"""Shared test helpers: finite-difference oracles and instance generators.

Finite differences are only a valid oracle where the function is smooth, so
the random-instance generators reject draws that land too close to a relu
kink, a gate argmax boundary or a vanishing pool norm.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from retrieval_lab.encoder import EncoderConfig, MoEConfig, encode, init_params, tokenize
from retrieval_lab.numerics import as_vector, make_rng

# pytest's ``pythonpath`` setting reaches this process only; export src/ so
# tests that start ``python -m retrieval_lab.cli`` import the same checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

FD_STEP = 1e-6


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-wise relative disagreement between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def finite_diff(f, x: np.ndarray, eps: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, per coordinate."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def finite_diff_params(params, config, text: str, upstream: np.ndarray,
                       eps: float = FD_STEP) -> dict[str, np.ndarray]:
    """Central differences of upstream . encode(text) over every parameter entry."""
    grads = {}
    for name, tensor in params.named_tensors().items():
        g = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(upstream @ encode(params, config, text))
            flat[i] = orig - eps
            fm = float(upstream @ encode(params, config, text))
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads[name] = g
    return grads


def softmax_temperature(scores, tau: float) -> np.ndarray:
    """Temperature softmax exp(s_i/tau) / sum_j exp(s_j/tau).

    Uses max-subtraction so arbitrarily shifted scores never overflow; the
    output is a probability vector (entries in (0, 1], sum 1 within 1e-12).
    """
    if tau <= 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    s = as_vector(scores, "scores")
    z = s / tau
    z = z - np.max(z)
    e = np.exp(z)
    return e / np.sum(e)


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


_WORDS = [f"tok{i}" for i in range(64)]


def random_text(rng: np.random.Generator, n_tokens: int) -> str:
    return " ".join(_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=n_tokens))


def token_rows(texts: list[str], config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for the token table rows of ``texts``: the sorted distinct ids of
    their ``tokenize`` outputs, each token's index into them and each text's
    token count, all as ``intp``."""
    ids = [tokenize(text, config) for text in texts]
    uniq, inv = np.unique(np.array([i for text_ids in ids for i in text_ids], dtype=np.intp),
                          return_inverse=True)
    return uniq, inv, np.array([len(text_ids) for text_ids in ids], dtype=np.intp)


def smooth_at(params, config, text: str, margin: float = 1e-4) -> bool:
    """True when the forward pass stays clear of relu kinks, argmax ties and
    vanishing pool norms, so central differences are trustworthy."""
    ids = tokenize(text, config)
    x = params.embedding[ids]
    h = []
    for xi in x:
        if params.is_moe:
            logits = xi @ params.gate
            top2 = np.sort(logits)[-2:]
            if len(logits) > 1 and abs(top2[1] - top2[0]) < margin:
                return False
            p = np.exp(logits - np.max(logits))
            p /= p.sum()
            e = int(np.argmax(logits))
            u = xi @ params.w_up[e] + params.b_up[e]
            scale = p[e]
        else:
            u = xi @ params.w_up + params.b_up
            scale = 1.0
        if np.min(np.abs(u)) < margin:
            return False
        h.append(scale * np.maximum(u, 0.0))
    y = np.array([hi @ params.w_down + params.b_down + xi for hi, xi in zip(h, x)])
    return float(np.linalg.norm(y.mean(axis=0))) > 1e-3


def encoder_instance(seed: int, moe: bool, n_tokens: int = 3,
                     d_model: int = 8, d_intermediate: int = 16,
                     vocab_size: int = 32):
    """Deterministic smooth random instance; bumps the seed until the
    finite-difference validity filter passes."""
    moe_cfg = MoEConfig(num_experts=2, experts_per_token=1) if moe else None
    config = EncoderConfig(vocab_size=vocab_size, d_model=d_model,
                           d_intermediate=d_intermediate, moe=moe_cfg)
    attempt = seed
    while True:
        params = init_params(config, attempt)
        rng = make_rng(attempt + 10_000)
        text = random_text(rng, n_tokens)
        upstream = rng.standard_normal(d_model)
        if smooth_at(params, config, text):
            return params, config, text, upstream
        attempt += 50_000


@pytest.fixture
def rng():
    return make_rng(0)
