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

    @pytest.mark.parametrize("logits, top_k", [([np.nan, 1.0, 2.0], 0),
                                               ([np.inf, 1.0, 2.0], 0),
                                               ([np.inf, 1.0, 2.0], 2)])
    def test_nan_probabilities_raise_as_generator_choice_does(self, logits, top_k):
        # an unchecked inverse-CDF draw returns token 0 for each of these
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="Probabilities contain NaN"):
            sample_token(np.array(logits), temperature=1.0, top_k=top_k,
                         rng=np.random.default_rng(0))

    def test_draws_match_generator_choice(self):
        # sample_token draws by the inverse CDF that Generator.choice(p=) runs
        # internally: the same token from the same generator state, which it
        # leaves in the same state
        meta = np.random.default_rng(2024)
        for _ in range(1_000):
            seed = int(meta.integers(2**32))
            temperature = float(meta.choice([0.05, 0.5, 0.8, 1.0, 3.0]))
            top_k = int(meta.choice([0, 1, 2, 16, 64]))
            logits = meta.standard_normal(64) * float(meta.choice([0.5, 4.0, 20.0]))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (sample_token(logits, temperature, top_k, ours)
                    == _choice_draw(logits, temperature, top_k, theirs))
            assert ours.random() == theirs.random()

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


def _choice_draw(logits, temperature, top_k, rng) -> int:
    """The draw ``sample_token`` reproduces: ``Generator.choice`` over its probabilities."""
    scaled = logits / temperature
    if 0 < top_k < scaled.size:
        cutoff = np.partition(scaled, -top_k)[-top_k]
        scaled = np.where(scaled >= cutoff, scaled, -np.inf)
    probabilities = np.exp(log_softmax(scaled))
    probabilities /= probabilities.sum()
    return int(rng.choice(probabilities.size, p=probabilities))
