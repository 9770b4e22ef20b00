"""Deterministic discrete-event simulation of a lossy shared broadcast medium.

Single-threaded event loop over one heap of ``(t, rank, counter, fn, args)``
entries, each running ``fn(*args)`` at ``t``. At one instant transmission ends
run first, then deliveries, superframe ticks and slot wake-ups, each kind in
push order. Each tick and each wake-up schedules its successor, so the heap
holds one tick, not a whole run of them. Identical (world, duration, seed)
inputs replay byte-identically. Two transmissions whose airtime intervals
overlap destroy each other at every receiver; otherwise each receiver
independently drops the frame with the medium's loss probability.
Transmission intervals are half-open, so a frame ending exactly when another
starts does not collide.

A frame that survives its airtime draws every receiver's loss at once, in id
order, and takes one delivery entry that hands it to the kept receivers in id
order. That is the order one entry per receiver would give, pushed in id
order: two frames that did not collide cannot end at the same instant, so no
other delivery shares the entry's instant, and no ``on_receive`` or
``handle_frame`` schedules anything at ``now``.
"""

from __future__ import annotations

import heapq
import math
from base64 import b64encode
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .netproto import Frame, SchedulerState, adapt_rate, encode, on_frame_received

KIND_TX_START = "tx_start"
KIND_TX_END = "tx_end"
KIND_DELIVER = "deliver"
KIND_TICK = "tick"

# Heap rank: transmissions must leave the active set before anything that
# starts at the same instant is checked against them, and a tick moves the
# robots before a slot wake-up at the same instant encodes their poses.
_RANK_TX_END, _RANK_DELIVER, _RANK_TICK, _RANK_WAKE = range(4)


@dataclass(frozen=True)
class Medium:
    bitrate: float = 6e6  # bits/second
    base_loss: float = 0.03
    loss_slope: float = 0.01  # extra loss per node beyond two
    propagation: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.base_loss < 1.0:
            raise ValueError("base_loss must be in [0, 1)")
        if not (self.loss_slope >= 0.0 and self.bitrate > 0.0 and 0.0 <= self.propagation < math.inf):
            raise ValueError("invalid medium parameters")


def loss_probability(medium: Medium, n_nodes: int) -> float:
    """Per-receiver drop probability; grows with node count, capped at 0.5."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    return min(0.5, medium.base_loss + medium.loss_slope * max(0, n_nodes - 2))


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes a finite float: ``float.__repr__``, the
    shortest repr that reads back to ``x``, also for a numpy float64. NaN and
    ±inf raise ``ValueError``: ``json`` would write them as NaN and Infinity,
    which are not JSON."""
    if not math.isfinite(x):
        raise ValueError(f"cannot log the non-finite float {x!r}")
    return float.__repr__(x)


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One logged event; its fields are the keys of its ``events.jsonl`` line."""

    t: float
    kind: str
    node: int = -1
    peer: int = -1
    seq: int = -1
    superframe: int = -1
    collided: bool = False

    # The fields in sorted key order; ``kind`` is one of the KIND_* names, which need no escape.
    _LINE = '{"collided": %s, "kind": "%s", "node": %d, "peer": %d, "seq": %d, "superframe": %d, "t": %s}'

    def line(self) -> str:
        """This event's ``events.jsonl`` line, the bytes ``json.dumps`` writes with sorted keys."""
        return self._LINE % (
            "true" if self.collided else "false",
            self.kind,
            self.node,
            self.peer,
            self.seq,
            self.superframe,
            _json_float(self.t),
        )


@dataclass
class _Transmission:
    frame: Frame
    t_start: float
    t_end: float
    collided: bool = False


def capture_line(t: float, wire: bytes) -> str:
    """The ``capture.jsonl`` line of the ``wire`` bytes a ``Simulator.capture_sink``
    is handed at ``t``: keys ``t`` then ``frame_b64``, the bytes ``json.dumps`` writes."""
    return '{"t": %s, "frame_b64": "%s"}' % (_json_float(t), b64encode(wire).decode("ascii"))


class Simulator:
    """Event loop plus broadcast medium shared by all registered behaviors."""

    def __init__(self, medium: Medium, seed: int, superframe_hz: float = 15.0):
        self.medium = medium
        self.seed = seed
        self.superframe_period = 1.0 / superframe_hz
        self.now = 0.0
        self.events: list[SimEvent] = []
        self.behaviors: dict[int, "BroadcastNode"] = {}
        self.capture_sink: Optional[Callable[[float, bytes], None]] = None
        self._heap: list = []
        self._counter = 0
        self._active: list[_Transmission] = []
        self._nodes: list[BroadcastNode] = []  # the behaviors in id order, set by ``run``
        self._receivers: dict[int, list[BroadcastNode]] = {}  # per sender, the others in id order
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0515]))

    # -- behaviors ---------------------------------------------------------

    def add_node(self, behavior: "BroadcastNode") -> None:
        if behavior.node_id in self.behaviors:
            raise ValueError(f"duplicate node id {behavior.node_id}")
        self.behaviors[behavior.node_id] = behavior

    def node_rng_seed(self, node_id: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, node_id]))

    # -- scheduling --------------------------------------------------------

    def schedule(self, t: float, rank: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` at time ``t``, after entries of lower rank due then."""
        heapq.heappush(self._heap, (t, rank, self._counter, fn, args))
        self._counter += 1

    # -- medium ------------------------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Put ``frame`` on the air now, from its sender ``frame.node_id``."""
        wire = encode(frame)
        if self.capture_sink is not None:
            self.capture_sink(self.now, wire)
        airtime = len(wire) * 8.0 / self.medium.bitrate
        tx = _Transmission(frame, self.now, self.now + airtime)
        for other in self._active:
            if self.now < other.t_end and other.t_start < tx.t_end:
                other.collided = True
                tx.collided = True
        self._active.append(tx)
        self.events.append(
            SimEvent(self.now, KIND_TX_START, frame.node_id, -1, frame.seq, frame.superframe_idx)
        )
        self.schedule(tx.t_end, _RANK_TX_END, self._finish_transmission, tx)

    def _finish_transmission(self, tx: _Transmission) -> None:
        self._active.remove(tx)
        frame = tx.frame
        self.events.append(
            SimEvent(tx.t_end, KIND_TX_END, frame.node_id, -1, frame.seq, frame.superframe_idx, tx.collided)
        )
        if tx.collided:
            self.behaviors[frame.node_id].collisions += 1
            return
        p = loss_probability(self.medium, len(self.behaviors))
        receivers = self._receivers[frame.node_id]
        # One draw per receiver, in id order: the doubles n - 1 scalar draws give.
        kept = [node for node, u in zip(receivers, self._rng.random(len(receivers)).tolist()) if not u < p]
        if kept:
            self.schedule(tx.t_end + self.medium.propagation, _RANK_DELIVER, self._deliver, frame, kept)

    def _deliver(self, frame: Frame, receivers: list["BroadcastNode"]) -> None:
        now, events = self.now, self.events
        self.behaviors[frame.node_id].delivered += len(receivers)
        for node in receivers:
            events.append(SimEvent(now, KIND_DELIVER, node.node_id, frame.node_id, frame.seq, frame.superframe_idx))
            node.frames_rx += 1
            node.on_receive(self, frame, now)

    def _tick(self, superframe_idx: int, last: int) -> None:
        """Superframe boundary ``superframe_idx``; it schedules the next one up to ``last``."""
        self.events.append(SimEvent(self.now, KIND_TICK, superframe=superframe_idx))
        if superframe_idx < last:
            k = superframe_idx + 1
            self.schedule(k * self.superframe_period, _RANK_TICK, self._tick, k, last)
        for node in self._nodes:
            node.on_tick(self, superframe_idx, self.now)

    # -- run loop ----------------------------------------------------------

    def run(self, duration: float) -> list[SimEvent]:
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        last = int(math.floor(duration / self.superframe_period + 1e-9))
        self._nodes = [self.behaviors[i] for i in sorted(self.behaviors)]
        self._receivers = {b.node_id: [o for o in self._nodes if o is not b] for b in self._nodes}
        self.schedule(0.0, _RANK_TICK, self._tick, 0, last)
        for behavior in self._nodes:
            behavior.on_start(self, 0.0)
        heap, pop, end = self._heap, heapq.heappop, duration + 1e-12
        while heap:
            t, _rank, _c, fn, args = pop(heap)
            if t > end:
                break
            self.now = t
            fn(*args)
        return self.events


class BroadcastNode:
    """TDMA broadcast participant: wakes in its own slot of every superframe,
    the first wake-up at superframe 0, adapts its rate from measured peer
    loss, and transmits when eligible. Each wake-up is handed its index.

    Subclass hooks: ``payload_for(superframe_idx)`` supplies the broadcast bytes,
    ``handle_frame`` consumes deliveries, ``on_tick`` runs at superframe
    boundaries. On start the scheduler takes the simulator's superframe period.
    """

    def __init__(
        self,
        node_id: int,
        n_slots: int = 4,
        payload_bytes: int = 6144,
        roster: Iterable[int] = (),
        scheduler: Optional[SchedulerState] = None,
    ):
        self.node_id = node_id
        self.scheduler = scheduler or SchedulerState(node_id=node_id, n_slots=n_slots)
        self.payload_bytes = payload_bytes
        self.roster = tuple(roster)
        self.trace: list[dict] = []  # per-superframe (t, divisor, loss) samples
        # Its summary row's counts, each kept where it happens.
        self.frames_tx = self.frames_rx = self.collisions = 0
        self.delivered = 0  # copies of its frames handed to a receiver
        self.wakeups = self.divisor_sum = 0
        self._payload = b""

    # A trace sample and its node id in sorted key order.
    _TRACE_LINE = '{"divisor": %d, "loss": %s, "node_id": %d, "t": %s}'

    def trace_lines(self) -> Iterator[str]:
        """One ``trace.jsonl`` line per ``trace`` sample, the bytes ``json.dumps`` writes with sorted keys."""
        line, node_id = self._TRACE_LINE, self.node_id
        return (line % (s["divisor"], _json_float(s["loss"]), node_id, _json_float(s["t"])) for s in self.trace)

    # -- hooks ---------------------------------------------------------------

    def payload_for(self, superframe_idx: int) -> bytes:
        return self._payload

    def handle_frame(self, sim: Simulator, frame: Frame, now: float) -> None:
        pass

    def on_tick(self, sim: Simulator, superframe_idx: int, now: float) -> None:
        pass

    # -- wiring --------------------------------------------------------------

    def on_start(self, sim: Simulator, now: float) -> None:
        state = self.scheduler
        state.superframe_period = sim.superframe_period
        state.rng = sim.node_rng_seed(self.node_id)
        self._payload = bytes(sim.node_rng_seed(self.node_id ^ 0xE0B).bytes(self.payload_bytes))
        for peer in self.roster:
            if peer != self.node_id:
                state.register_peer(peer, now)
        sim.schedule(state.slot_index * state.slot_width, _RANK_WAKE, self._slot_callback, sim, 0)

    def _slot_callback(self, sim: Simulator, k: int) -> None:
        now = sim.now
        state = self.scheduler
        loss = adapt_rate(state, now)
        self.trace.append({"t": now, "divisor": state.tx_divisor, "loss": loss})
        self.wakeups += 1
        self.divisor_sum += state.tx_divisor
        if state.eligible(k):
            frame = Frame(
                node_id=self.node_id,
                seq=state.next_seq(),
                superframe_idx=k,
                payload=self.payload_for(k),
            )
            sim.transmit(frame)
            self.frames_tx += 1
        sim.schedule((k + 1) * state.superframe_period + state.slot_index * state.slot_width,
                     _RANK_WAKE, self._slot_callback, sim, k + 1)

    def on_receive(self, sim: Simulator, frame: Frame, now: float) -> None:
        on_frame_received(self.scheduler, frame, now)
        self.handle_frame(sim, frame, now)


def run(
    behaviors: Iterable[BroadcastNode],
    duration: float,
    seed: int,
    medium: Optional[Medium] = None,
) -> list[SimEvent]:
    """Build a simulator around the behaviors and run it."""
    sim = Simulator(medium or Medium(), seed=seed)
    for b in behaviors:
        sim.add_node(b)
    return sim.run(duration)


def summarize(sim: Simulator) -> list[dict]:
    """Per-node frames_tx, frames_rx, collisions, loss_rate and mean_divisor of a
    run: one row per node of ``sim.behaviors``, from the counts each node keeps
    as its frames are sent, collide and land and as it wakes. mean_divisor is
    the exact sum of the wake-ups' divisors over one rounded division; a node's
    first wake-up is at superframe 0, and a run that ends before it leaves NaN."""
    rows = []
    for node_id, node in sorted(sim.behaviors.items()):
        potential = node.frames_tx * (len(sim.behaviors) - 1)  # copies that could have been delivered
        rows.append(
            {
                "node_id": node_id,
                "frames_tx": node.frames_tx,
                "frames_rx": node.frames_rx,
                "collisions": node.collisions,
                "loss_rate": 1.0 - node.delivered / potential if potential else 0.0,
                "mean_divisor": node.divisor_sum / node.wakeups if node.wakeups else math.nan,
            }
        )
    return rows
