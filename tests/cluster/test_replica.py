"""Replica construction: roofline token pricing, quant specs, engine facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.replica import Replica, ReplicaConfig, decode_time_per_token
from repro.serve.engine import Request, VirtualClock


class TestDecodeTimePerToken:
    def test_denser_weights_make_a_faster_replica(self, tiny_model_config):
        fp16 = decode_time_per_token(tiny_model_config, ReplicaConfig())
        int8 = decode_time_per_token(tiny_model_config, ReplicaConfig(weight_spec="int8"))
        int4 = decode_time_per_token(tiny_model_config, ReplicaConfig(weight_spec="int4"))
        assert int4 < int8 < fp16

    def test_kv_spec_prices_the_attention_gemms(self, tiny_model_config):
        fp16 = decode_time_per_token(tiny_model_config, ReplicaConfig())
        kv_int8 = decode_time_per_token(tiny_model_config, ReplicaConfig(kv_spec="int8"))
        # KV quantisation speeds up the cache-reading ops only: faster, but
        # less than quantising the (much larger) weight-resident GEMMs too
        both = decode_time_per_token(tiny_model_config,
                                     ReplicaConfig(kv_spec="int8", weight_spec="int8"))
        assert both < kv_int8 < fp16

    def test_memory_bound_decode_scales_with_bandwidth(self, tiny_model_config):
        slow = decode_time_per_token(tiny_model_config,
                                     ReplicaConfig(dram_gbytes_per_s=10.0))
        fast = decode_time_per_token(tiny_model_config,
                                     ReplicaConfig(dram_gbytes_per_s=40.0))
        assert fast == pytest.approx(slow / 4.0, rel=1e-6)

    def test_longer_context_costs_more(self, tiny_model_config):
        short = decode_time_per_token(tiny_model_config, ReplicaConfig(decode_context=16))
        long = decode_time_per_token(tiny_model_config, ReplicaConfig(decode_context=64))
        assert long > short

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplicaConfig(pe_rows=0)
        with pytest.raises(ValueError):
            ReplicaConfig(dram_gbytes_per_s=0)
        with pytest.raises(ValueError):
            ReplicaConfig(decode_context=0)


class TestReplica:
    def test_runs_on_a_virtual_clock_at_the_roofline_rate(self, tiny_inference_model):
        replica = Replica(0, tiny_inference_model, ReplicaConfig(max_batch_size=2))
        assert isinstance(replica.clock, VirtualClock)
        assert replica.clock.time_per_token == replica.time_per_token
        assert replica.time_per_token == decode_time_per_token(
            tiny_inference_model.config, replica.config)

    def test_kv_spec_reaches_the_engine_cache(self, tiny_inference_model):
        replica = Replica(0, tiny_inference_model, ReplicaConfig(kv_spec="int8"))
        assert replica.kv_spec == "INT8"
        assert Replica(1, tiny_inference_model).kv_spec == "fp16"

    def test_weight_spec_rewraps_the_model(self, tiny_inference_model):
        replica = Replica(0, tiny_inference_model, ReplicaConfig(weight_spec="int8"))
        assert replica.model is not tiny_inference_model
        assert replica.model.scheme.name == "INT8"
        assert replica.weight_spec == "int8"
        # unquantised replicas share the caller's model object
        assert Replica(1, tiny_inference_model).model is tiny_inference_model

    def test_start_time_offsets_the_clock(self, tiny_inference_model):
        replica = Replica(3, tiny_inference_model, start_time=1.5)
        assert replica.now == 1.5

    def test_serves_requests_and_describes_itself(self, tiny_inference_model):
        replica = Replica(2, tiny_inference_model, ReplicaConfig(max_batch_size=2))
        replica.submit(Request(request_id=0, prompt_tokens=(1, 2, 3), max_new_tokens=4))
        assert replica.has_work and replica.queue_depth == 1
        assert replica.projected_load == 7
        while replica.has_work:
            replica.step()
        row = replica.describe()
        assert row["replica_id"] == 2
        assert row["requests"] == 1
        assert row["prefill_tokens"] == 3 and row["decode_tokens"] == 3
        assert row["status"] == "active"
        assert row["finish_time_s"] == pytest.approx(replica.now)
        assert np.isfinite(row["time_per_token_s"]) and row["time_per_token_s"] > 0

    def test_next_event_time_tracks_the_engine(self, tiny_inference_model):
        replica = Replica(0, tiny_inference_model)
        assert replica.next_event_time == float("inf")
        replica.submit(Request(request_id=0, prompt_tokens=(1, 2), max_new_tokens=1,
                               arrival_time=0.25))
        assert replica.next_event_time == 0.25  # idle engine: head-of-queue arrival


class TestPagedReplicaSurface:
    def test_describe_carries_prefix_and_paging_columns(self, tiny_inference_model):
        replica = Replica(0, tiny_inference_model, ReplicaConfig(kv_page_size=4))
        prefix = tuple(range(1, 13))
        for index, tail in enumerate(((21, 22), (23, 24))):
            replica.submit(Request(request_id=index, prompt_tokens=prefix + tail,
                                   max_new_tokens=3))
        while replica.has_work:
            replica.step()
        row = replica.describe()
        assert row["reused_prefix_tokens"] == 12  # the second request hit 3 pages
        assert 0 < row["prefix_hit_rate"] < 1
        assert row["peak_pages_in_use"] > 0
        assert row["kv_peak_memory_mib"] > 0
        assert row["prefix_hit_rate"] == pytest.approx(replica.prefix_hit_rate)

    def test_one_page_per_slot_reports_zero_reuse(self, tiny_inference_model):
        """Pages of ``max_seq_len`` (the dense baseline) leave nothing to share."""
        seq = tiny_inference_model.config.max_seq_len
        replica = Replica(0, tiny_inference_model, ReplicaConfig(kv_page_size=seq))
        replica.submit(Request(request_id=0, prompt_tokens=(1, 2, 3), max_new_tokens=2))
        while replica.has_work:
            replica.step()
        row = replica.describe()
        assert row["reused_prefix_tokens"] == 0 and row["prefix_hit_rate"] == 0.0
        assert row["peak_pages_in_use"] == 1
        assert replica.cached_prefix_tokens(
            Request(request_id=1, prompt_tokens=(1, 2, 3), max_new_tokens=2)) == 0
