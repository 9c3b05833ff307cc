"""Synthetic request traces for the serving benchmarks.

Real serving traffic is bursty: requests arrive as a Poisson process and mix
short chat-style prompts with longer documents and varying continuation
lengths.  :func:`generate_requests` reproduces that shape deterministically —
exponential inter-arrival gaps at a configurable offered load, uniformly
mixed prompt/output lengths, and per-request sampling seeds — so two runs of
the benchmark (or the same run under two KV-quantisation specs) replay the
identical trace.

Two further generators produce the workload classes a prefix-sharing cache
exists for:

* :func:`generate_shared_prefix_requests` — a configurable fraction of
  requests open with one of a few long shared prefixes (the shared system
  prompt / few-shot template shape), so identical leading pages can be
  served from the radix index instead of re-prefilled;
* :func:`generate_multi_turn_requests` — conversations whose every turn
  resubmits the growing dialogue history plus a new user message, the
  canonical chat workload where each turn's prompt is a strict extension of
  the previous one.

:func:`generate_trace` dispatches on the config type so benchmark drivers
accept any of the three shapes through one entry point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.serve.engine import Request

__all__ = ["WorkloadConfig", "SharedPrefixConfig", "MultiTurnConfig",
           "generate_requests", "generate_shared_prefix_requests",
           "generate_multi_turn_requests", "generate_trace", "validate_arrival_rate"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a synthetic request trace.

    ``arrival_rate`` is the offered load in requests per second (``0`` makes
    every request available at time 0 — a closed-loop burst); prompt and
    output lengths are drawn uniformly from the inclusive ranges.
    """

    num_requests: int = 32
    arrival_rate: float = 8.0
    prompt_tokens: tuple = (8, 32)
    new_tokens: tuple = (4, 16)
    temperature: float = 0.0
    top_k: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        validate_arrival_rate(self.arrival_rate)
        _validate_sampling(self.temperature, self.top_k)
        for name in ("prompt_tokens", "new_tokens"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must be an increasing range of positive ints")


def generate_requests(vocab_size: int, config: WorkloadConfig = None) -> list:
    """Build a deterministic Poisson-arrival request trace.

    Returns :class:`~repro.serve.engine.Request` objects sorted by arrival
    time, with token ids drawn from ``[0, vocab_size)`` and one distinct
    sampling seed per request.
    """
    config = config or WorkloadConfig()
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    rng = np.random.default_rng(config.seed)
    if config.arrival_rate > 0:
        gaps = rng.exponential(1.0 / config.arrival_rate, size=config.num_requests)
        arrivals = np.cumsum(gaps)
    else:
        arrivals = np.zeros(config.num_requests)
    requests = []
    for index in range(config.num_requests):
        prompt_len = int(rng.integers(config.prompt_tokens[0], config.prompt_tokens[1] + 1))
        max_new = int(rng.integers(config.new_tokens[0], config.new_tokens[1] + 1))
        prompt = rng.integers(0, vocab_size, size=prompt_len)
        requests.append(Request(
            request_id=index,
            prompt_tokens=tuple(int(t) for t in prompt),
            max_new_tokens=max_new,
            arrival_time=float(arrivals[index]),
            temperature=config.temperature,
            top_k=config.top_k,
            seed=config.seed * 100_003 + index,
        ))
    return requests


def validate_arrival_rate(rate, positive: bool = False) -> None:
    """Reject unusable arrival rates at config time, before any trace math.

    A negative, NaN or infinite rate would otherwise slip into the
    exponential-gap draw (``1 / arrival_rate``) and come back out as NaN
    arrival times or a silent all-at-once burst.  ``positive=True`` is the
    open-loop contract (the gateway load generator): inter-arrival gaps must
    be real, so ``0`` — the closed-loop burst convention — is rejected too.
    """
    if not np.isfinite(rate) or rate < 0 or (positive and rate == 0):
        bound = "> 0" if positive else ">= 0 (0 = closed-loop burst)"
        raise ValueError(
            f"arrival_rate must be a finite offered load {bound} in requests/s, "
            f"got {rate!r}"
        )


def _validate_range(name: str, bounds) -> None:
    lo, hi = bounds
    if lo < 1 or hi < lo:
        raise ValueError(f"{name} must be an increasing range of positive ints")


def _validate_sampling(temperature: float, top_k: int) -> None:
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError("temperature must be finite and >= 0 (0 = greedy decoding)")
    if not isinstance(top_k, numbers.Integral) or top_k < 0:
        raise ValueError("top_k must be an integer >= 0 (0 = no top-k truncation)")


@dataclass(frozen=True)
class SharedPrefixConfig:
    """A trace where many prompts open with one of a few shared prefixes.

    ``shared_fraction`` of the requests draw one of ``num_prefixes`` fixed
    ``prefix_tokens``-long prefixes (uniformly); the rest get a private
    random prefix of the same length, so the prompt-length distribution is
    identical with and without sharing and throughput differences isolate
    cache reuse.  Every prompt ends in a per-request unique suffix.
    """

    num_requests: int = 32
    arrival_rate: float = 8.0
    num_prefixes: int = 4
    prefix_tokens: int = 32
    unique_tokens: tuple = (4, 12)
    new_tokens: tuple = (4, 16)
    shared_fraction: float = 0.8
    temperature: float = 0.0
    top_k: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        validate_arrival_rate(self.arrival_rate)
        if self.num_prefixes < 1:
            raise ValueError("num_prefixes must be >= 1")
        if self.prefix_tokens < 1:
            raise ValueError("prefix_tokens must be >= 1")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        _validate_range("unique_tokens", self.unique_tokens)
        _validate_range("new_tokens", self.new_tokens)
        _validate_sampling(self.temperature, self.top_k)


def generate_shared_prefix_requests(vocab_size: int,
                                    config: SharedPrefixConfig = None) -> list:
    """Build a deterministic shared-prefix trace (see :class:`SharedPrefixConfig`)."""
    config = config or SharedPrefixConfig()
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    rng = np.random.default_rng(config.seed)
    prefixes = [tuple(int(t) for t in rng.integers(0, vocab_size,
                                                   size=config.prefix_tokens))
                for _ in range(config.num_prefixes)]
    if config.arrival_rate > 0:
        arrivals = np.cumsum(rng.exponential(1.0 / config.arrival_rate,
                                             size=config.num_requests))
    else:
        arrivals = np.zeros(config.num_requests)
    requests = []
    for index in range(config.num_requests):
        if rng.random() < config.shared_fraction:
            prefix = prefixes[int(rng.integers(0, config.num_prefixes))]
        else:
            prefix = tuple(int(t) for t in rng.integers(0, vocab_size,
                                                        size=config.prefix_tokens))
        unique_len = int(rng.integers(config.unique_tokens[0],
                                      config.unique_tokens[1] + 1))
        suffix = tuple(int(t) for t in rng.integers(0, vocab_size, size=unique_len))
        max_new = int(rng.integers(config.new_tokens[0], config.new_tokens[1] + 1))
        requests.append(Request(
            request_id=index,
            prompt_tokens=prefix + suffix,
            max_new_tokens=max_new,
            arrival_time=float(arrivals[index]),
            temperature=config.temperature,
            top_k=config.top_k,
            seed=config.seed * 100_003 + index,
        ))
    return requests


@dataclass(frozen=True)
class MultiTurnConfig:
    """Conversations whose every turn resubmits the growing history.

    Each conversation opens with a ``system_tokens``-long system prompt
    (shared across *all* conversations, like one deployment-wide template)
    and runs a uniform number of turns in ``turns``.  The prompt of turn
    ``t`` is the system prompt plus every user message up to ``t`` — a
    strict extension of turn ``t-1``'s prompt, so a prefix cache re-serves
    the whole history and only the new message needs prefill.  (Assistant
    tokens are not folded back into later prompts: the trace is fixed ahead
    of the run, which keeps it replayable across engines and page sizes.)

    Conversations start as a Poisson process at ``arrival_rate``; successive
    turns of one conversation are spaced ``think_time_s`` apart.
    """

    num_conversations: int = 8
    turns: tuple = (2, 4)
    arrival_rate: float = 4.0
    think_time_s: float = 0.5
    system_tokens: int = 16
    user_tokens: tuple = (4, 12)
    new_tokens: tuple = (2, 8)
    temperature: float = 0.0
    top_k: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.num_conversations < 1:
            raise ValueError("num_conversations must be >= 1")
        validate_arrival_rate(self.arrival_rate)
        if self.think_time_s < 0:
            raise ValueError("think_time_s must be >= 0")
        if self.system_tokens < 1:
            raise ValueError("system_tokens must be >= 1")
        _validate_range("turns", self.turns)
        _validate_range("user_tokens", self.user_tokens)
        _validate_range("new_tokens", self.new_tokens)
        _validate_sampling(self.temperature, self.top_k)


def generate_multi_turn_requests(vocab_size: int,
                                 config: MultiTurnConfig = None) -> list:
    """Build a deterministic multi-turn conversation trace.

    Returns requests sorted by arrival time with globally unique ids;
    ``request_id`` ordering within one conversation follows turn order.
    """
    config = config or MultiTurnConfig()
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    rng = np.random.default_rng(config.seed)
    system = tuple(int(t) for t in rng.integers(0, vocab_size,
                                                size=config.system_tokens))
    if config.arrival_rate > 0:
        starts = np.cumsum(rng.exponential(1.0 / config.arrival_rate,
                                           size=config.num_conversations))
    else:
        starts = np.zeros(config.num_conversations)
    drafts = []  # (arrival_time, conversation, turn, prompt, max_new)
    for conversation in range(config.num_conversations):
        n_turns = int(rng.integers(config.turns[0], config.turns[1] + 1))
        history = system
        for turn in range(n_turns):
            user_len = int(rng.integers(config.user_tokens[0],
                                        config.user_tokens[1] + 1))
            history = history + tuple(
                int(t) for t in rng.integers(0, vocab_size, size=user_len))
            max_new = int(rng.integers(config.new_tokens[0], config.new_tokens[1] + 1))
            arrival = float(starts[conversation]) + turn * config.think_time_s
            drafts.append((arrival, conversation, turn, history, max_new))
    drafts.sort(key=lambda d: (d[0], d[1], d[2]))
    requests = []
    for index, (arrival, _conversation, _turn, prompt, max_new) in enumerate(drafts):
        requests.append(Request(
            request_id=index,
            prompt_tokens=prompt,
            max_new_tokens=max_new,
            arrival_time=arrival,
            temperature=config.temperature,
            top_k=config.top_k,
            seed=config.seed * 100_003 + index,
        ))
    return requests


def generate_trace(vocab_size: int, config) -> list:
    """Dispatch a trace config to its generator (the benchmark entry point)."""
    if isinstance(config, SharedPrefixConfig):
        return generate_shared_prefix_requests(vocab_size, config)
    if isinstance(config, MultiTurnConfig):
        return generate_multi_turn_requests(vocab_size, config)
    if isinstance(config, WorkloadConfig):
        return generate_requests(vocab_size, config)
    raise TypeError(f"unsupported workload config {type(config).__name__!r}")
