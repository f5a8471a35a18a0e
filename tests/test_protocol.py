"""Message lengths, wire lengths in a run, video frame sizes, and fragmentation."""
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from swarmsim.config import parse_config
from swarmsim.netsim import Link
from swarmsim.protocol import (
    VideoCallSpec,
    fragment_payload,
    status_report_ld_length,
    video_frame_length,
)
from swarmsim.runner import run_scenario


class TestStatusLengths:
    def test_ld_aggregate_n1_is_24_bytes(self):
        assert status_report_ld_length(1) == 24

    def test_ld_aggregate_n10_is_132_bytes(self):
        assert status_report_ld_length(10) == 132

    @given(st.integers(min_value=1, max_value=1000))
    def test_ld_aggregate_slope_is_12_bytes_per_sd(self, n):
        assert status_report_ld_length(n + 1) - status_report_ld_length(n) == 12


@pytest.fixture(scope="module")
def wire_lengths_by_flow():
    """Every packet size offered to a link in a short mission and a short
    2 Mbps video mission, by flow name, whether sent once, as copies or in a
    train."""
    sizes = defaultdict(set)
    send, train = Link.send, Link.train

    def recording_send(self, pkt, on_deliver=None, n=1):
        sizes[pkt.flow].add(pkt.size_bytes)
        return send(self, pkt, on_deliver, n)

    def recording_train(self, times, xs, packet_for, on_deliver=None, tie=None, settle=None):
        def recording_packet_for(x):
            pkt = packet_for(x)
            if pkt is not None:
                sizes[pkt.flow].add(pkt.size_bytes)
            return pkt
        # no settle: every slot runs, so every packet is seen
        return train(self, times, xs, recording_packet_for, on_deliver, tie)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Link, "send", recording_send)
        mp.setattr(Link, "train", recording_train)
        run_scenario(parse_config({"n_sds": 4, "infection_rate": 1.0}))
        run_scenario(parse_config({
            "duration_s": 400, "n_sds": 2, "infection_rate": 0.0,
            "video": {"enabled": True, "bandwidth_mbps": 2, "forced_calls": 1,
                      "call_duration_s": 1},
            "mission": {"session_duration_s": 120, "n_sessions": 1,
                        "transit_distance_m": 100}}))
    return sizes


class TestEncoding:
    def test_ack_wire_length_is_10(self, wire_lengths_by_flow):
        for flow in ("status_ack", "flight_ack", "case_ack"):
            assert wire_lengths_by_flow[flow] == {10}

    def test_sd_status_wire_length_is_21(self, wire_lengths_by_flow):
        assert wire_lengths_by_flow["sd_status"] == {21}

    def test_move_to_waypoint_wire_length_is_32(self, wire_lengths_by_flow):
        # three 64-bit coordinates behind the 8-byte header
        assert wire_lengths_by_flow["move_to_waypoint"] == {32}

    def test_case_report_wire_length_is_508(self, wire_lengths_by_flow):
        assert wire_lengths_by_flow["case_report"] == {508}

    def test_2mbps_frame_fragment_wire_lengths_are_1500_and_882(self, wire_lengths_by_flow):
        # an 8,334-byte frame is 5 x 1,492 + 874 payload bytes, each
        # fragment behind its own 8-byte header
        for flow in ("video_up", "video_down"):
            assert wire_lengths_by_flow[flow] == {1500, 882}


class TestVideoFrames:
    def test_2mbps_frame_is_8334_bytes(self):
        assert video_frame_length(2_000_000) == 8334
        assert VideoCallSpec(2_000_000).frame_len == 8334


class TestFragmentation:
    def test_2mbps_frame_fragments_into_6(self):
        frags = fragment_payload(8334, 1500)
        assert len(frags) == 6
        assert frags[:5] == [1492] * 5

    def test_small_payload_single_fragment(self):
        assert fragment_payload(13, 1500) == [13]

    def test_empty_payload_no_fragments(self):
        assert fragment_payload(0, 1500) == []

    @given(size=st.integers(0, 100_000), mtu=st.sampled_from([576, 1500, 9000]))
    def test_fragments_sum_to_payload_and_fit_mtu(self, size, mtu):
        frags = fragment_payload(size, mtu)
        assert sum(frags) == size
        assert all(0 < f <= mtu - 8 for f in frags)
