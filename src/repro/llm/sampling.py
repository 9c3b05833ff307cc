"""Next-token sampling shared by offline generation and the serving engine.

Both :mod:`repro.llm.generation` (the single-sequence convenience loop) and
:mod:`repro.serve.engine` (the continuous-batching engine) turn last-position
logits into a token id the same way: greedy argmax at temperature 0, otherwise
temperature-scaled top-k sampling over probabilities derived from the shared
numerically-stable :func:`~repro.llm.activations.log_softmax`.  Keeping the
policy in one place guarantees a request served by the engine samples exactly
like the same prompt run through :func:`~repro.llm.generation.generate_tokens`.
"""

from __future__ import annotations

import numpy as np

from repro.llm.activations import log_softmax

__all__ = ["sample_token"]


def sample_token(logits: np.ndarray, temperature: float = 0.0, top_k: int = 0,
                 rng: np.random.Generator = None) -> int:
    """Pick the next token id from last-position ``logits``.

    ``temperature == 0`` selects the argmax (greedy decoding, no ``rng``
    needed); otherwise the logits are divided by the temperature, optionally
    restricted to the ``top_k`` most likely candidates, and a token is drawn
    from the resulting distribution using ``rng``.  A temperature so small
    that the scaled logits overflow is treated as its limit, greedy.
    """
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return int(np.argmax(logits))
    if rng is None:
        raise ValueError("sampling with temperature > 0 requires an rng")
    try:
        with np.errstate(over="raise"):
            scaled = logits / temperature
            if 0 < top_k < scaled.size:
                cutoff = np.partition(scaled, -top_k)[-top_k]
                scaled = np.where(scaled >= cutoff, scaled, -np.inf)
            probabilities = np.exp(log_softmax(scaled))
    except FloatingPointError:
        # so small a temperature overflows float64: its limit is greedy
        return int(np.argmax(logits))
    total = probabilities.sum()
    if np.isnan(total):  # NaN or +inf logits; Generator.choice raises the same
        raise ValueError("Probabilities contain NaN")
    probabilities /= total
    # the inverse-CDF draw Generator.choice(p=) makes, without its validation:
    # the same token from the same generator state
    cdf = np.cumsum(probabilities, out=probabilities)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))
