"""Message size model: header and payload lengths, periods and fragmentation.

Every message is an 8-byte header followed by the payload (see
docs/wire-format.md). Only sizes are modeled; no message is ever encoded.
Payload lengths are fixed per message kind (a waypoint broadcast carries
``MOVE_TO_WAYPOINT_LEN`` = 24 bytes) except for leader status aggregates
(12 bytes of leader state plus 12 bytes per follower) and video frames
(derived from the call bandwidth). All timestamps are integer microseconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

HEADER_LEN = 8
# largest packet any link carries, header included; only video frames are
# fragmented to fit, so every other message must fit whole
MTU = 1500
DMC_ID = 0
BROADCAST_ID = 255

STATUS_SD_LEN = 13
ACK_LEN = 2
CASE_REPORT_LEN = 500
MOVE_TO_WAYPOINT_LEN = 24  # 3 x 64-bit coordinates

SD_STATUS_PERIOD_US = 10_000_000       # 0.1 packet/s
LD_STATUS_PERIOD_US = 30_000_000       # nominally 0.033 packet/s
MOVE_TO_WAYPOINT_PERIOD_US = 200_000   # broadcast every 0.2 s in flight
VIDEO_FRAME_RATE = 30                  # frames per second of every call


def status_report_ld_length(n: int) -> int:
    """Payload bytes of a leader status aggregate for a swarm of ``n`` SDs."""
    return 12 + 12 * n


def video_frame_length(bandwidth_bps: float) -> int:
    """Per-frame payload bytes for a video stream, rounded up."""
    return math.ceil(bandwidth_bps / (8 * VIDEO_FRAME_RATE))


@dataclass(frozen=True)
class VideoCallSpec:
    bandwidth_bps: float

    @property
    def frame_len(self) -> int:
        return video_frame_length(self.bandwidth_bps)


def fragment_payload(size: int, mtu: int) -> list[int]:
    """Split a payload into fragment payload lengths fitting the MTU.

    Each fragment carries its own ``HEADER_LEN`` bytes on the wire, so all
    fragments except the last are ``mtu - HEADER_LEN`` long.
    """
    if size == 0:
        return []
    chunk = mtu - HEADER_LEN
    full, rest = divmod(size, chunk)
    return [chunk] * full + ([rest] if rest else [])
