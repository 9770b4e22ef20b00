"""Wire-frame codec and the shared-slot TDMA scheduler with loss-driven backoff.

Frame: a header packed by ``_HEADER`` (little-endian: magic ``CV``,
version 1, msg_type 0 = embedding, node_id, seq incrementing per transmitted
frame, superframe index of the transmission, payload_len <= 8192), then the
payload and an IEEE CRC-32 (uint32) over all preceding bytes.

Scheduling: the superframe repeats at 15 Hz and is divided into n_slots
equal slots; a node owns slot ``node_id % n_slots``. Nodes sharing a slot are
allowed to collide; the backoff exists to resolve exactly that. A node
transmits in superframes ``k % tx_divisor == tx_phase``. The divisor doubles
(up to a cap) while measured peer loss sits above the high watermark and
decays by one below the low watermark; the band between holds. Each increase
re-draws the phase so same-slot contenders with equal divisors eventually
land on disjoint superframes instead of colliding forever. The ``loss`` a node
traces per wake-up is the one measurement its backoff acted on.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MAGIC = b"CV"
VERSION = 1
MSG_EMBEDDING = 0
_HEADER = struct.Struct("<2sBBHIIH")
HEADER_LEN = _HEADER.size
CRC_LEN = 4
MAX_PAYLOAD = 8192


class FrameError(Exception):
    """Base class for frame decode failures."""


class BadMagic(FrameError):
    pass


class BadVersion(FrameError):
    pass


class BadCrc(FrameError):
    pass


class Truncated(FrameError):
    """Byte string shorter or longer than the declared frame length."""


class OverlongPayload(FrameError):
    pass


@dataclass(frozen=True)
class Frame:
    node_id: int
    seq: int
    superframe_idx: int
    payload: bytes = b""
    msg_type: int = MSG_EMBEDDING
    version: int = VERSION

    def __post_init__(self):
        if not 0 <= self.node_id < 1 << 16:
            raise ValueError("node_id out of uint16 range")
        if not 0 <= self.seq < 1 << 32:
            raise ValueError("seq out of uint32 range")
        if not 0 <= self.superframe_idx < 1 << 32:
            raise ValueError("superframe_idx out of uint32 range")
        if not 0 <= self.msg_type < 1 << 8:
            raise ValueError("msg_type out of uint8 range")
        if not 0 <= self.version < 1 << 8:
            raise ValueError("version out of uint8 range")


def encode(frame: Frame) -> bytes:
    if len(frame.payload) > MAX_PAYLOAD:
        raise OverlongPayload(f"payload {len(frame.payload)} exceeds {MAX_PAYLOAD}")
    body = _HEADER.pack(
        MAGIC, frame.version, frame.msg_type, frame.node_id, frame.seq, frame.superframe_idx,
        len(frame.payload),
    ) + frame.payload
    return body + zlib.crc32(body).to_bytes(CRC_LEN, "little")


def decode(data: bytes) -> Frame:
    """Parse one frame; raises a typed FrameError for any malformed input."""
    if len(data) < HEADER_LEN + CRC_LEN:
        raise Truncated(f"{len(data)} bytes, need at least {HEADER_LEN + CRC_LEN}")
    magic, version, msg_type, node_id, seq, superframe_idx, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"version {version}")
    if payload_len > MAX_PAYLOAD:
        raise OverlongPayload(f"declared payload {payload_len}")
    total = HEADER_LEN + payload_len + CRC_LEN
    if len(data) != total:
        raise Truncated(f"{len(data)} bytes, declared frame is {total}")
    crc = int.from_bytes(data[-CRC_LEN:], "little")
    if zlib.crc32(data[:-CRC_LEN]) != crc:
        raise BadCrc("crc mismatch")
    return Frame(
        node_id=node_id,
        seq=seq,
        superframe_idx=superframe_idx,
        payload=data[HEADER_LEN:-CRC_LEN],
        msg_type=msg_type,
        version=version,
    )


@dataclass
class PeerTracker:
    """Received (time, seq) pairs for one peer over a sliding window. Calls
    must come in non-decreasing ``now`` (the simulator clock): eviction pops
    expired entries from the front only. One peer's seqs must arrive in
    increasing order (the medium delivers a sender's frames in the order it
    sent them), so the window's ends span its seqs.

    The window's gap fraction is kept as a number, updated only when an entry
    enters or leaves the window, so each entry is pushed and popped once and
    ``loss_estimate`` reads in O(1): one check of the oldest entry, then the
    number."""

    window: float
    entries: deque[tuple[float, int]] = field(default_factory=deque, init=False)
    registered_at: float = 0.0
    last_seen: Optional[float] = None
    _missing: int = field(default=0, init=False, repr=False)  # seqs the window spans but lacks
    _loss: float = field(default=0.0, init=False, repr=False)  # _missing over the seqs spanned

    def record(self, now: float, seq: int) -> None:
        entries = self.entries
        if entries:
            self._missing += seq - entries[-1][1] - 1
        entries.append((now, seq))
        self.last_seen = now
        self._evict(now)

    def _evict(self, now: float) -> None:
        """Pop the expired entries, then refresh the gap fraction of those left."""
        entries, horizon = self.entries, now - self.window
        while entries and entries[0][0] < horizon:
            gone = entries.popleft()[1]
            if entries:  # a lone entry spans no gap: _missing is 0 already
                self._missing -= entries[0][1] - gone - 1
        if entries:
            self._loss = self._missing / (self._missing + len(entries))

    def loss_estimate(self, now: float) -> float:
        """Gap fraction over the window; silence from a known peer counts as 1."""
        entries = self.entries
        if entries and entries[0][0] < now - self.window:
            self._evict(now)
        if entries:
            return self._loss
        reference = self.last_seen if self.last_seen is not None else self.registered_at
        return 1.0 if now - reference >= self.window else 0.0


@dataclass
class SchedulerState:
    """Per-node TDMA transmit schedule plus backoff state."""

    node_id: int
    n_slots: int = 4
    superframe_period: float = 1.0 / 15.0
    tx_divisor: int = 1
    tx_phase: int = 0
    max_divisor: int = 8
    high_watermark: float = 0.10
    low_watermark: float = 0.05
    loss_window: float = 2.0
    seq_counter: int = 0
    peers: dict[int, PeerTracker] = field(default_factory=dict)
    rng: Optional[np.random.Generator] = None
    last_adapt_action: float = -math.inf

    def __post_init__(self):
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if not 1 <= self.tx_divisor <= self.max_divisor:
            raise ValueError("tx_divisor out of range")
        if self.rng is None:
            self.rng = np.random.default_rng(self.node_id)

    @property
    def slot_index(self) -> int:
        return self.node_id % self.n_slots

    @property
    def slot_width(self) -> float:
        return self.superframe_period / self.n_slots

    def register_peer(self, peer_id: int, now: float) -> None:
        """Pre-register an expected peer so its silence counts as loss."""
        if peer_id not in self.peers:
            self.peers[peer_id] = PeerTracker(window=self.loss_window, registered_at=now)

    def eligible(self, superframe_idx: int) -> bool:
        return superframe_idx % self.tx_divisor == self.tx_phase

    def next_seq(self) -> int:
        seq = self.seq_counter
        self.seq_counter += 1
        return seq


def next_tx_time(state: SchedulerState, now: float) -> float:
    """Earliest t >= now in the node's slot on an eligible superframe."""
    offset = state.slot_index * state.slot_width
    k = math.ceil((now - offset) / state.superframe_period - 1e-9)
    k = max(k, 0)
    delta = (state.tx_phase - k) % state.tx_divisor
    k += delta
    return k * state.superframe_period + offset


def on_frame_received(state: SchedulerState, frame: Frame, now: float) -> None:
    """Feed the per-peer loss estimator from sequence gaps."""
    state.register_peer(frame.node_id, now)
    state.peers[frame.node_id].record(now, frame.seq)


def adapt_rate(state: SchedulerState, now: float) -> float:
    """Backoff step, intended to run once per superframe; returns the maximum
    peer loss it acted on.

    Above the high watermark the divisor doubles (capped) and the transmit
    phase is re-drawn; below the low watermark it decays by one (phase kept,
    reduced modulo the new divisor); inside the band it holds. Increases are
    rate-limited to one per loss window, decreases to one per two windows so
    the estimator can catch up with the new schedule.
    """
    loss = 0.0
    for tracker in state.peers.values():
        estimate = tracker.loss_estimate(now)
        if estimate > loss:
            loss = estimate
    since = now - state.last_adapt_action
    if loss > state.high_watermark:
        if since >= state.loss_window:
            state.tx_divisor = min(state.tx_divisor * 2, state.max_divisor)
            state.tx_phase = (
                int(state.rng.integers(state.tx_divisor)) if state.tx_divisor > 1 else 0
            )
            state.last_adapt_action = now
    elif loss < state.low_watermark:
        if state.tx_divisor > 1 and since >= 2.0 * state.loss_window:
            state.tx_divisor -= 1
            state.tx_phase %= state.tx_divisor
            state.last_adapt_action = now
    return loss
