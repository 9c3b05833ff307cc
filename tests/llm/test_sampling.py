"""The shared log-softmax helper and the next-token sampler."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.llm.activations import log_softmax, softmax
from repro.llm.sampling import sample_token


class TestLogSoftmax:
    def test_matches_hand_computed_reference_values(self):
        # log_softmax([0, 1, 2]) = x - log(1 + e + e^2); constants computed by
        # hand so a regression cannot hide behind the implementation itself
        out = log_softmax(np.array([0.0, 1.0, 2.0]))
        expected = np.array([-2.4076059644443806, -1.4076059644443806, -0.4076059644443804])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_uniform_logits_give_log_of_one_over_n(self):
        out = log_softmax(np.full(8, 3.5))
        np.testing.assert_allclose(out, np.full(8, -np.log(8.0)), atol=1e-15)

    def test_stable_for_huge_logits(self):
        out = log_softmax(np.array([1e9, 1e9 - 1.0]))
        assert np.all(np.isfinite(out))
        expected = np.array([-0.3132616875182228, -1.3132616875182228])  # -log(1+e^-1), -1-log(1+e^-1)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_masked_minus_inf_entries_stay_minus_inf(self):
        out = log_softmax(np.array([0.0, -np.inf, 0.0]))
        assert out[1] == -np.inf
        np.testing.assert_allclose(out[[0, 2]], np.log([0.5, 0.5]), atol=1e-15)

    def test_exp_recovers_softmax_along_any_axis(self, rng):
        x = rng.standard_normal((4, 5, 6)) * 10
        for axis in (-1, 0, 1):
            np.testing.assert_allclose(np.exp(log_softmax(x, axis=axis)),
                                       softmax(x, axis=axis), atol=1e-14)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal(32)
        np.testing.assert_allclose(log_softmax(x), log_softmax(x + 1234.5), atol=1e-10)


class TestSampleToken:
    def test_greedy_is_argmax(self):
        logits = np.array([0.1, 2.0, -1.0, 1.9])
        assert sample_token(logits) == 1

    def test_greedy_needs_no_rng(self):
        assert sample_token(np.array([0.0, 1.0])) == 1

    def test_sampling_without_rng_raises(self):
        with pytest.raises(ValueError, match="rng"):
            sample_token(np.array([0.0, 1.0]), temperature=1.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            sample_token(np.array([0.0, 1.0]), temperature=-0.5)

    def test_vanishing_temperature_is_greedy(self):
        # logits / 1e-308 overflows float64, and at 2e-308 the scaled logits
        # are finite but their spread is not; either way the limit is argmax
        logits = np.array([0.5, 3.0, -2.0, 2.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for temperature in (1e-308, 2e-308):
                rng = np.random.default_rng(0)
                assert sample_token(logits, temperature=temperature, rng=rng) == 1

    def test_top_k_restricts_the_support(self):
        logits = np.array([10.0, 9.0, -50.0, -60.0])
        rng = np.random.default_rng(0)
        draws = {sample_token(logits, temperature=5.0, top_k=2, rng=rng) for _ in range(200)}
        assert draws <= {0, 1}
        assert len(draws) == 2  # high temperature: both survivors get sampled

    def test_seeded_sampling_is_reproducible(self):
        logits = np.linspace(-1, 1, 16)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        first = [sample_token(logits, temperature=1.0, rng=rng_a) for _ in range(8)]
        second = [sample_token(logits, temperature=1.0, rng=rng_b) for _ in range(8)]
        assert first == second
        assert len(set(first)) > 1  # a real draw sequence, not a constant
