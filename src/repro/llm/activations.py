"""Reference (FP) nonlinear operators used by the inference path and the nonlinear unit.

These are plain numpy functions: the quantised inference path calls either
these references or their LUT-based BBFP counterparts from
:mod:`repro.nonlinear`, which is exactly the substitution studied in Table IV.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "log_softmax", "silu", "gelu", "sigmoid", "relu", "exponential",
           "ACTIVATIONS"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    exps = x - x.max(axis=axis, keepdims=True)
    np.exp(exps, out=exps)
    exps /= exps.sum(axis=axis, keepdims=True)
    return exps


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax along ``axis``.

    The single shared helper behind every log-probability in the library:
    :meth:`~repro.llm.inference.InferenceModel.negative_log_likelihood` (and
    therefore perplexity), sequence scoring, and the samplers of
    :mod:`repro.llm.sampling` / :mod:`repro.serve`.  Entries of ``-inf``
    (masked-out candidates) stay ``-inf`` without poisoning the finite ones.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))`` (Eq. 15)."""
    x = np.asarray(x, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-x))


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish ``x * sigmoid(x)`` — the Llama MLP activation."""
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(x)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU — the OPT MLP activation."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def relu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0)


def exponential(x: np.ndarray) -> np.ndarray:
    """``exp(x)`` — the transcendental inside softmax, tabulated by the LUT unit."""
    return np.exp(np.asarray(x, dtype=np.float64))


ACTIVATIONS = {
    "silu": silu,
    "gelu": gelu,
    "relu": relu,
    "sigmoid": sigmoid,
}
