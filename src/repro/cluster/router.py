"""Routing policies: a decorator registry mirroring :mod:`repro.quant.registry`.

A routing policy decides which replica receives an arriving request.  Every
policy is a :class:`RoutingPolicy` subclass registered under a name with
:func:`register_policy`; :func:`get_policy` resolves a name (case- and
separator-insensitive) into a fresh, seeded instance, and an unknown name
raises :class:`UnknownPolicyError` with a did-you-mean suggestion — the same
three-entry-point shape as the quantiser registry, so adding a policy is one
decorated class and every call site (simulation, benchmark sweep, CLI flag)
picks it up.

The built-in policies span the classic load-balancing trade-offs:

* ``round_robin`` — stateless rotation; ignores load and heterogeneity.
* ``least_loaded`` — minimum *projected KV tokens* (active + queued); weighs
  a queued long document more than a queued chat turn.
* ``join_shortest_queue`` — minimum request count (queued + active); the
  textbook JSQ policy, blind to request sizes.
* ``power_of_two`` — samples two replicas and takes the less loaded; nearly
  JSQ quality at O(1) state probes (the power-of-two-choices result).
* ``prefix_affinity`` — routes to the replica whose paged KV cache measurably
  holds the longest prefix of the prompt (falling back to a stable prefix
  hash while caches are cold), so shared system prompts land where their
  pages already live, at the price of load blindness.

Policies never see an unroutable replica.  The simulation builds the
candidate list before every ``choose`` call, excluding draining replicas
and — under chaos (:mod:`repro.cluster.chaos`) — crashed and currently
partitioned ones, and it re-presents crash-orphaned requests to the policy
as fresh arrivals (retry-with-reroute).  A policy therefore needs no fault
awareness of its own: ``prefix_affinity`` simply measures a cold cache on
whatever replica the retry lands on, because the orphan's KV chain died
with the crashed machine.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib

import numpy as np

__all__ = [
    "RoutingPolicy",
    "UnknownPolicyError",
    "register_policy",
    "get_policy",
    "list_policies",
]


class UnknownPolicyError(ValueError, argparse.ArgumentTypeError):
    """Raised for a routing-policy name the registry does not know.

    Subclasses both :class:`ValueError` and :class:`argparse.ArgumentTypeError`
    so a bad ``--policies`` flag becomes a clean usage error that keeps the
    did-you-mean suggestion.
    """

    def __init__(self, name):
        self.name = name
        message = f"unknown routing policy {name!r}"
        matches = difflib.get_close_matches(str(name).lower(), list(_POLICIES), n=1, cutoff=0.5)
        if matches:
            message += f" (did you mean {matches[0]!r}?)"
        super().__init__(message)


#: policy name -> RoutingPolicy subclass, in registration order.
_POLICIES: dict = {}


def register_policy(name: str):
    """Class decorator registering a :class:`RoutingPolicy` subclass."""

    def decorate(cls):
        if not (isinstance(cls, type) and issubclass(cls, RoutingPolicy)):
            raise TypeError(f"@register_policy expects a RoutingPolicy subclass, got {cls!r}")
        if name in _POLICIES:
            raise ValueError(f"routing policy {name!r} is already registered")
        cls.name = name
        _POLICIES[name] = cls
        return cls

    return decorate


def get_policy(name, seed: int = 0) -> "RoutingPolicy":
    """Resolve a policy name (or instance) into a fresh policy instance.

    Names are case-insensitive and accept ``-``/space as separators
    (``"Least-Loaded"`` == ``"least_loaded"``).  ``seed`` feeds the policies
    that randomise (``power_of_two``), so a simulation seeded once routes
    deterministically.
    """
    if isinstance(name, RoutingPolicy):
        return name
    if isinstance(name, type) and issubclass(name, RoutingPolicy):
        return name(seed=seed)
    key = str(name).strip().lower().replace("-", "_").replace(" ", "_")
    cls = _POLICIES.get(key)
    if cls is None:
        raise UnknownPolicyError(name)
    return cls(seed=seed)


def list_policies() -> tuple:
    """Registered policy names, in registration order."""
    return tuple(_POLICIES)


class RoutingPolicy:
    """Base class: one :meth:`choose` call per arriving request.

    ``replicas`` is the list of routable replicas (draining ones already
    excluded, never empty) in stable ``replica_id`` order.  Policies may keep
    internal state (rotation counters, RNGs) — one policy instance drives one
    simulation, so state never leaks across runs.
    """

    name = None

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def choose(self, request, replicas):
        raise NotImplementedError

    @staticmethod
    def _least(replicas, key):
        """Minimum-key replica with ties broken by replica id (deterministic)."""
        return min(replicas, key=lambda r: (key(r), r.replica_id))


@register_policy("round_robin")
class RoundRobin(RoutingPolicy):
    """Rotate through the routable replicas in submission order."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._next = 0

    def choose(self, request, replicas):
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica


@register_policy("least_loaded")
class LeastLoaded(RoutingPolicy):
    """Route to the replica with the fewest projected KV tokens."""

    def choose(self, request, replicas):
        return self._least(replicas, lambda r: r.projected_load)


@register_policy("join_shortest_queue")
class JoinShortestQueue(RoutingPolicy):
    """Route to the replica with the fewest requests (queued + active)."""

    def choose(self, request, replicas):
        return self._least(replicas, lambda r: r.queue_depth + r.num_active)


@register_policy("power_of_two")
class PowerOfTwo(RoutingPolicy):
    """Sample two replicas, keep the one with less projected load."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.rng = np.random.default_rng(seed)

    def choose(self, request, replicas):
        if len(replicas) == 1:
            return replicas[0]
        first, second = self.rng.choice(len(replicas), size=2, replace=False)
        return self._least([replicas[int(first)], replicas[int(second)]],
                           lambda r: r.projected_load)


@register_policy("prefix_affinity")
class PrefixAffinity(RoutingPolicy):
    """Route to the replica whose cache holds the longest prefix of the prompt.

    Replicas that expose ``cached_prefix_tokens(request)`` (a radix-index
    peek, see :meth:`repro.cluster.replica.Replica.cached_prefix_tokens`)
    are probed for *measured* reuse: the request goes to the replica that
    would actually serve the most prompt tokens from its paged KV cache,
    ties broken by replica id.  When no replica holds any of the prefix
    (cold caches, or pages too long to share) placement falls back to a
    stable digest of the first ``prefix_tokens`` token ids (not Python's
    randomised ``hash``), so identical prefixes still co-locate — the first
    request of a prefix group seeds exactly one replica's cache and every
    follower then measures a hit there.  Placement is reproducible across
    processes either way.  The policy ignores load entirely, which the
    benchmark's imbalance column makes visible.
    """

    def __init__(self, seed: int = 0, prefix_tokens: int = 8):
        super().__init__(seed)
        self.prefix_tokens = int(prefix_tokens)

    def choose(self, request, replicas):
        best, best_cached = None, 0
        for replica in replicas:  # stable replica_id order: first max wins ties
            probe = getattr(replica, "cached_prefix_tokens", None)
            if probe is None:
                continue
            cached = probe(request)
            if cached > best_cached:
                best, best_cached = replica, cached
        if best is not None:
            return best
        prefix = np.asarray(request.prompt_tokens[: self.prefix_tokens], dtype=np.int64)
        digest = hashlib.blake2s(prefix.tobytes(), digest_size=8,
                                 key=self.seed.to_bytes(8, "little", signed=True)).digest()
        return replicas[int.from_bytes(digest, "little") % len(replicas)]
