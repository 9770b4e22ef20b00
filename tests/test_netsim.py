import base64
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covis.netproto import PeerTracker
from covis.netsim import (
    KIND_DELIVER,
    KIND_TICK,
    KIND_TX_END,
    KIND_TX_START,
    BroadcastNode,
    Medium,
    SimEvent,
    Simulator,
    _RANK_DELIVER,
    _RANK_TICK,
    capture_line,
    loss_probability,
    run,
    summarize,
)

LOSSLESS = Medium(base_loss=0.0, loss_slope=0.0)


def pinned(node):
    """Disable rate adaptation so a test isolates medium behavior."""
    node.scheduler.high_watermark = 2.0
    node.scheduler.low_watermark = -1.0
    return node


class TestLossProbability:
    def test_two_nodes(self):
        assert loss_probability(Medium(), 2) == pytest.approx(0.03)

    def test_seven_nodes(self):
        assert loss_probability(Medium(), 7) == pytest.approx(0.08)

    def test_cap(self):
        assert loss_probability(Medium(), 100) == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            loss_probability(Medium(), 0)


def exact_fit_pair():
    """Two nodes in two 50 ms slots whose frames take exactly one slot of airtime,
    so each frame ends at the instant the other node's slot begins."""
    medium = Medium(bitrate=16_000.0, base_loss=0.0, loss_slope=0.0)
    sim = Simulator(medium, seed=0, superframe_hz=10.0)
    for i in range(2):
        # 80 payload bytes + 20 framing bytes = 800 bits = 0.05 s at 16 kb/s.
        sim.add_node(pinned(BroadcastNode(i, n_slots=2, payload_bytes=80)))
    return sim


class TestMediumMechanics:
    def test_frame_ending_as_another_starts_does_not_collide(self):
        sim = exact_fit_pair()
        events = sim.run(0.45)
        ends = [e for e in events if e.kind == KIND_TX_END]
        starts = {e.t for e in events if e.kind == KIND_TX_START}
        assert len({e.t for e in ends} & starts) >= 8  # the intervals really do touch
        assert not any(e.collided for e in ends)
        assert sum(1 for e in events if e.kind == KIND_DELIVER) == len(ends)

    def test_same_instant_order(self):
        # At t = 0.1 node 1's frame ends and lands at node 0, superframe 1
        # begins and node 0 wakes in slot 0: tx end, delivery, tick, then the
        # wake-up's transmission, whatever order they were pushed in. Formation
        # needs the tick before the wake-up so a robot encodes its moved pose.
        sim = exact_fit_pair()
        events = sim.run(0.15)
        at = [e.kind for e in events if e.t == 0.1]
        assert at == [KIND_TX_END, KIND_DELIVER, KIND_TICK, KIND_TX_START]

    def test_two_disjoint_frames_delivered(self):
        sim = Simulator(LOSSLESS, seed=0)
        for i in range(2):
            sim.add_node(BroadcastNode(i, n_slots=2, payload_bytes=64))
        events = sim.run(0.2)
        delivers = [e for e in events if e.kind == KIND_DELIVER]
        assert delivers, "expected deliveries on a lossless medium"
        assert not any(e.collided for e in events if e.kind == KIND_TX_END)

    def test_one_delivery_entry_per_frame(self):
        # Each frame that reaches a receiver pushes one delivery entry, which
        # hands the frame to its receivers in id order, one after another.
        sim = Simulator(Medium(base_loss=0.3, loss_slope=0.0), seed=2)
        for i in range(5):
            sim.add_node(BroadcastNode(i, n_slots=4, payload_bytes=64))
        ranks, schedule = [], sim.schedule

        def counted(t, rank, fn, *args):
            ranks.append(rank)
            schedule(t, rank, fn, *args)

        sim.schedule = counted
        events = sim.run(3.0)
        frames = []  # (sender, seq) of each run of deliveries
        receivers = {}
        for e in events:
            if e.kind == KIND_DELIVER:
                if not frames or frames[-1] != (e.peer, e.seq):
                    frames.append((e.peer, e.seq))
                receivers.setdefault((e.peer, e.seq), []).append(e.node)
        assert any(len(r) < 4 for r in receivers.values())  # some copies were lost
        assert len(frames) == len(set(frames)) == ranks.count(_RANK_DELIVER)
        assert all(r == sorted(r) for r in receivers.values())

    def test_overlapping_frames_all_lost(self):
        # Two nodes forced into the same slot (ids 0 and 2 with 2 slots).
        sim = Simulator(LOSSLESS, seed=0)
        sim.add_node(BroadcastNode(0, n_slots=2, payload_bytes=512))
        sim.add_node(BroadcastNode(2, n_slots=2, payload_bytes=512))
        sim.add_node(BroadcastNode(1, n_slots=2, payload_bytes=512))
        events = sim.run(0.05)  # within the first superframe: no backoff yet
        slot0 = [e for e in events if e.kind == KIND_TX_END and e.node in (0, 2)]
        assert slot0 and all(e.collided for e in slot0)
        assert not any(
            e.kind == KIND_DELIVER and e.peer in (0, 2) for e in events
        )

    def test_bernoulli_loss_rate(self):
        # ~10^5 frame copies at the configured 3% loss; divisors pinned so the
        # estimate measures the medium, not the backoff.
        sim = Simulator(Medium(base_loss=0.03, loss_slope=0.0), seed=7)
        for i in range(2):
            sim.add_node(pinned(BroadcastNode(i, n_slots=2, payload_bytes=16)))
        events = sim.run(100_000 / 15.0 / 2.0)
        sent = sum(1 for e in events if e.kind == KIND_TX_START)
        delivered = sum(1 for e in events if e.kind == KIND_DELIVER)
        assert sent >= 100_000
        loss = 1.0 - delivered / sent
        assert loss == pytest.approx(0.03, abs=0.005)

    def test_conservation(self):
        events = run(
            [BroadcastNode(i, n_slots=4, payload_bytes=128) for i in range(4)],
            duration=5.0,
            seed=3,
        )
        starts = sum(1 for e in events if e.kind == KIND_TX_START)
        ends = sum(1 for e in events if e.kind == KIND_TX_END)
        assert starts == ends
        per_frame = {}
        for e in events:
            if e.kind == KIND_DELIVER:
                per_frame[(e.peer, e.seq)] = per_frame.get((e.peer, e.seq), 0) + 1
        assert all(v <= 3 for v in per_frame.values())

    def test_seq_and_superframe_monotone_per_node(self):
        events = run(
            [BroadcastNode(i, n_slots=4, payload_bytes=128) for i in range(4)],
            duration=5.0,
            seed=3,
        )
        by_node = {}
        for e in events:
            if e.kind == KIND_TX_START:
                by_node.setdefault(e.node, []).append((e.seq, e.superframe))
        for rows in by_node.values():
            seqs = [s for s, _ in rows]
            superframes = [k for _, k in rows]
            assert seqs == sorted(set(seqs))  # strictly increasing
            assert superframes == sorted(superframes)  # non-decreasing


class TestDeterminism:
    def test_identical_seeds_identical_logs(self):
        kwargs = dict(duration=3.0, seed=11, medium=Medium())
        # repr keeps every float bit, -0.0 included.
        a = repr(run([BroadcastNode(i, payload_bytes=256) for i in range(3)], **kwargs))
        b = repr(run([BroadcastNode(i, payload_bytes=256) for i in range(3)], **kwargs))
        assert a == b

    def test_different_seed_differs(self):
        a = repr(run([BroadcastNode(i, payload_bytes=256) for i in range(3)], duration=3.0, seed=1))
        b = repr(run([BroadcastNode(i, payload_bytes=256) for i in range(3)], duration=3.0, seed=2))
        assert a != b

    def test_empty_world_only_ticks(self):
        events = run([], duration=1.0, seed=0)
        assert events
        assert all(e.kind == KIND_TICK for e in events)
        assert len(events) == 16  # superframes 0..15 inclusive


class TestTdmaIntegration:
    def test_distinct_slots_zero_collisions(self):
        # 4 nodes in 4 slots, airtime below slot width: collision-free run.
        events = run(
            [BroadcastNode(i, n_slots=4, payload_bytes=6144) for i in range(4)],
            duration=60.0,
            seed=5,
            medium=LOSSLESS,
        )
        assert not any(e.collided for e in events if e.kind == KIND_TX_END)

    def test_goodput_tracks_loss(self):
        medium = Medium(base_loss=0.04, loss_slope=0.0)
        sim = Simulator(medium, seed=9)
        for i in range(4):
            sim.add_node(pinned(BroadcastNode(i, n_slots=4, payload_bytes=1024)))
        events = sim.run(60.0)
        rows = {r["node_id"]: r for r in summarize(sim)}
        for node_id, row in rows.items():
            offered = row["frames_tx"] / 60.0
            assert offered == pytest.approx(15.0, rel=0.02)
            goodput = sum(
                1 for e in events if e.kind == KIND_DELIVER and e.peer == node_id
            ) / (3 * 60.0)
            assert goodput == pytest.approx(15.0 * (1.0 - row["loss_rate"]), rel=0.05)

    def test_offered_load_equals_15_over_divisor(self):
        # Superframes 0..1200 inclusive fall inside an 80 s run.
        for divisor in (1, 2, 4):
            node = pinned(BroadcastNode(0, n_slots=1, payload_bytes=64))
            node.scheduler.tx_divisor = divisor
            events = run([node], duration=80.0, seed=1, medium=LOSSLESS)
            sent = sum(1 for e in events if e.kind == KIND_TX_START)
            assert sent == 1200 // divisor + 1


class TestWakeSchedule:
    @pytest.mark.parametrize(
        "superframe_hz, n_nodes, duration",
        [(15.0, 4, 20.0), (1000.0, 4, 5.0), (15.0, 9, 20.0)],
        ids=["15Hz", "1000Hz", "9_nodes_backoff"],
    )
    def test_one_wakeup_per_superframe_in_own_slot(self, superframe_hz, n_nodes, duration):
        # Wake-up k of a node is at k * period + slot offset, for k = 0, 1, 2, ...
        # with no gap and no repeat, whether or not the node transmits then.
        sim = Simulator(LOSSLESS, seed=3, superframe_hz=superframe_hz)
        for i in range(n_nodes):
            sim.add_node(BroadcastNode(i, n_slots=4, payload_bytes=64, roster=range(n_nodes)))
        sim.run(duration)
        for node in sim.behaviors.values():
            s = node.scheduler
            times = [sample["t"] for sample in node.trace]
            assert len(times) == math.floor(duration * superframe_hz + 1e-9) + (s.slot_index == 0)
            assert times == [k * s.superframe_period + s.slot_index * s.slot_width for k in range(len(times))]

    def test_heap_holds_only_the_next_tick(self):
        # Each tick schedules the next, so at every tick the heap holds one
        # tick entry, and none at the last tick of the run.
        seen = []

        class TickCounter(BroadcastNode):
            def on_tick(self, sim, superframe_idx, now):
                seen.append(sum(entry[1] == _RANK_TICK for entry in sim._heap))

        sim = Simulator(Medium(), seed=6)
        for i in range(2):
            sim.add_node(TickCounter(i, payload_bytes=256))
        sim.run(60.0)
        assert seen == [1] * (2 * 900) + [0, 0]  # superframes 0..900, two nodes each

    def test_frames_carry_their_wakeup_superframe(self):
        sim = Simulator(LOSSLESS, seed=4, superframe_hz=1000.0)
        for i in range(4):
            sim.add_node(BroadcastNode(i, n_slots=4, payload_bytes=64))
        sim.run(5.0)
        starts = [e for e in sim.events if e.kind == KIND_TX_START]
        assert len(starts) == 4 * 5000 + 1
        for e in starts:
            s = sim.behaviors[e.node].scheduler
            assert e.t == e.superframe * s.superframe_period + s.slot_index * s.slot_width


class TestLossMeasurement:
    def test_one_loss_measurement_per_wakeup(self, monkeypatch):
        calls = []
        measure = PeerTracker.loss_estimate

        def counted(tracker, now):
            calls.append(now)
            return measure(tracker, now)

        monkeypatch.setattr(PeerTracker, "loss_estimate", counted)
        behaviors = [BroadcastNode(i, payload_bytes=256, roster=range(3)) for i in range(3)]
        run(behaviors, duration=3.0, seed=1)
        wakeups = sum(len(b.trace) for b in behaviors)
        assert wakeups > 0
        assert len(calls) == wakeups * 2  # each node measures its 2 peers once

    @pytest.mark.parametrize(
        "n_nodes, n_slots, medium",
        [
            (4, 2, Medium()),  # two nodes per slot: collisions
            (4, 4, Medium(propagation=0.05)),  # deliveries land in later slots and superframes
            (2, 2, Medium(bitrate=80_000.0, base_loss=0.0, loss_slope=0.0)),  # 0.104 s airtime
        ],
        ids=["collisions", "propagation", "airtime_over_superframe"],
    )
    def test_delivered_seqs_increase_per_peer(self, n_nodes, n_slots, medium):
        # PeerTracker.loss_estimate spans a peer's seqs from the window's two
        # ends, so each receiver must get each sender's frames in seq order.
        roster = range(n_nodes)
        behaviors = [BroadcastNode(i, n_slots, payload_bytes=1024, roster=roster) for i in roster]
        events = run(behaviors, duration=20.0, seed=6, medium=medium)
        seqs = {}
        for e in events:
            if e.kind == KIND_DELIVER:
                seqs.setdefault((e.node, e.peer), []).append(e.seq)
        assert len(seqs) == n_nodes * (n_nodes - 1)
        for got in seqs.values():
            assert all(a < b for a, b in zip(got, got[1:]))
        if n_slots < n_nodes:
            assert any(e.collided for e in events if e.kind == KIND_TX_END)


class TestContention:
    def test_same_slot_contenders_recover(self):
        # Nodes 0 and 4 share slot 0 of 4; without backoff they collide on
        # every superframe forever. The adaptive schedule must bring measured
        # loss under the high watermark within 10 simulated seconds.
        behaviors = [
            BroadcastNode(0, n_slots=4, payload_bytes=2048, roster=(4,)),
            BroadcastNode(4, n_slots=4, payload_bytes=2048, roster=(0,)),
        ]
        events = run(behaviors, duration=12.0, seed=2, medium=LOSSLESS)
        by_node = {b.node_id: b for b in behaviors}
        for node_id, b in by_node.items():
            dips = [s for s in b.trace if s["t"] <= 10.0 and s["loss"] < 0.10 and s["t"] > 4.0]
            assert dips, f"node {node_id} never measured loss below the watermark"
            assert any(s["divisor"] > 1 for s in b.trace), "backoff never engaged"
        # After recovery there are actual deliveries both ways.
        late_delivers = [e for e in events if e.kind == KIND_DELIVER and e.t > 6.0]
        assert late_delivers

    def test_jammer_recovery(self):
        # A node whose frames span half the superframe jams half the slots.
        # Divisors must rise within three loss windows and every node must
        # measure sub-watermark loss within 10 s.
        jam_payload = 8192  # ~10.9 ms airtime at 6 Mb/s vs 16.7 ms superframe/4*...
        behaviors = [
            BroadcastNode(i, n_slots=4, payload_bytes=1024, roster=(0, 1, 2, 3, 4))
            for i in range(4)
        ]
        behaviors.append(
            BroadcastNode(4, n_slots=4, payload_bytes=jam_payload, roster=(0, 1, 2, 3, 4))
        )
        run(behaviors, duration=12.0, seed=4, medium=LOSSLESS)
        three_windows = 3 * behaviors[0].scheduler.loss_window
        assert any(
            s["divisor"] > 1
            for b in behaviors
            for s in b.trace
            if s["t"] <= three_windows + 1.0
        )
        for b in behaviors:
            dips = [s for s in b.trace if 4.0 < s["t"] <= 10.0 and s["loss"] < 0.10]
            assert dips, f"node {b.node_id} stayed above the watermark"


class TestBlackout:
    def test_tiny_bitrate_kills_everything(self):
        # Airtime longer than the superframe: every frame overlaps, nothing
        # is ever delivered.
        medium = Medium(base_loss=0.0, loss_slope=0.0, bitrate=100.0)
        events = run(
            [BroadcastNode(i, n_slots=4, payload_bytes=512) for i in range(3)],
            duration=5.0,
            seed=6,
            medium=medium,
        )
        assert not any(e.kind == KIND_DELIVER for e in events)


class TestSummaryCounts:
    """Each node keeps its summary counts as its frames are sent, collide and
    land and as it wakes; the event log and its trace are the reference."""

    @staticmethod
    def logged_counts(sim, node_id):
        """The node's counts as ``sim.events`` and its ``trace`` record them."""
        events, trace = sim.events, sim.behaviors[node_id].trace
        return {
            "frames_tx": sum(e.kind == KIND_TX_START and e.node == node_id for e in events),
            "frames_rx": sum(e.kind == KIND_DELIVER and e.node == node_id for e in events),
            "collisions": sum(e.kind == KIND_TX_END and e.collided and e.node == node_id for e in events),
            "delivered": sum(e.kind == KIND_DELIVER and e.peer == node_id for e in events),
            "wakeups": len(trace),
            "divisor_sum": sum(s["divisor"] for s in trace),
        }

    # At 2 Hz a node in slot 1 of 2 first wakes at 0.25 s, so the shortest
    # runs end before some nodes' first wake-up.
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.floats(0.0, 0.5),
        st.floats(0.0, 1e-3),
        st.integers(0, 2048),
        st.floats(0.05, 4.0),
        st.sampled_from((2.0, 15.0)),
        st.integers(0, 2**32 - 1),
    )
    @example(2, 2, 0.0, 0.0, 64, 0.05, 2.0, 1)  # node 1 never wakes: a NaN mean divisor
    @example(6, 3, 0.2, 5e-4, 2048, 4.0, 15.0, 101)  # two nodes in each slot: collisions
    @example(2, 2, 0.0, 1e-3, 2048, 0.9366, 15.0, 1)  # the last frame ends on air but lands after the run
    @example(1, 1, 0.5, 1e-3, 0, 0.05, 15.0, 0)  # a lone node sends to nobody
    def test_counts_match_the_logs(self, n_nodes, n_slots, base_loss, propagation, payload, duration, hz, seed):
        sim = Simulator(Medium(base_loss=base_loss, propagation=propagation), seed=seed, superframe_hz=hz)
        for i in range(n_nodes):
            sim.add_node(BroadcastNode(i, n_slots, payload_bytes=payload, roster=range(n_nodes)))
        sim.run(duration)
        for node_id, node in sim.behaviors.items():
            logged = self.logged_counts(sim, node_id)
            assert {key: getattr(node, key) for key in logged} == logged
        # summarize reads the counts alone: emptying the logs changes no row.
        rows = repr(summarize(sim))
        sim.events.clear()
        for node in sim.behaviors.values():
            node.trace.clear()
        assert repr(summarize(sim)) == rows


# Finite floats, with the values whose repr is easiest to get wrong pinned as examples.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
UINT16 = st.integers(0, 2**16 - 1)
UINT32 = st.integers(0, 2**32 - 1)
PINNED = (-0.0, 5e-324, 1e300, 1e16, 0.1)


def trace_node(node_id, samples):
    node = BroadcastNode(node_id)
    node.trace = [{"t": t, "divisor": divisor, "loss": loss} for t, divisor, loss in samples]
    return node


class TestLogLines:
    """Each fixed-key line template writes the bytes ``json.dumps`` writes."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        FINITE,
        st.sampled_from((KIND_TX_START, KIND_TX_END, KIND_DELIVER, KIND_TICK)),
        st.integers(-1, 2**16 - 1),
        st.integers(-1, 2**16 - 1),
        st.integers(-1, 2**32 - 1),
        st.integers(-1, 2**32 - 1),
        st.booleans(),
    )
    @example(-0.0, KIND_TX_END, 65535, 65535, 2**32 - 1, 2**32 - 1, True)
    @example(5e-324, KIND_DELIVER, 0, 65535, 2**32 - 1, 0, False)
    @example(1e300, KIND_TX_START, 65535, -1, 0, 2**32 - 1, False)
    @example(1e16, KIND_TICK, -1, -1, -1, 7, False)
    @example(0.1, KIND_TX_END, 3, -1, 12, 5, True)
    def test_event_line(self, t, kind, node, peer, seq, superframe, collided):
        event = SimEvent(t, kind, node, peer, seq, superframe, collided)
        assert event.line() == json.dumps(dataclasses.asdict(event), sort_keys=True)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(UINT16, st.lists(st.tuples(FINITE, st.integers(1, 8192), FINITE), max_size=4))
    @example(65535, [(x, 8192, x) for x in PINNED])
    def test_trace_line(self, node_id, samples):
        node = trace_node(node_id, samples)
        assert list(node.trace_lines()) == [
            json.dumps({"node_id": node_id, **s}, sort_keys=True) for s in node.trace
        ]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(FINITE, st.binary(max_size=64))
    @example(-0.0, b"")
    @example(5e-324, bytes(range(256)))
    @example(1e300, b"\xff" * 8)
    @example(1e16, b"\x00")
    @example(0.1, b"CV")
    def test_capture_line(self, t, wire):
        # Unsorted: the capture keys are written in this order.
        expected = json.dumps({"t": t, "frame_b64": base64.b64encode(wire).decode("ascii")})
        assert capture_line(t, wire) == expected

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
    def test_non_finite_floats_raise(self, x):
        with pytest.raises(ValueError, match="non-finite"):
            SimEvent(x, KIND_TICK).line()
        with pytest.raises(ValueError, match="non-finite"):
            list(trace_node(0, [(0.0, 1, x)]).trace_lines())
        with pytest.raises(ValueError, match="non-finite"):
            list(trace_node(0, [(x, 1, 0.0)]).trace_lines())
        with pytest.raises(ValueError, match="non-finite"):
            capture_line(x, b"")

    @pytest.mark.parametrize("x", PINNED + (1 / 3, 2.5e-308, 123456.789))
    def test_numpy_float64_writes_the_python_float(self, x):
        y = np.float64(x)  # whose repr under numpy 2 is np.float64(...)
        assert SimEvent(y, KIND_TICK).line() == SimEvent(x, KIND_TICK).line()
        assert list(trace_node(1, [(y, 2, y)]).trace_lines()) == list(trace_node(1, [(x, 2, x)]).trace_lines())
        assert capture_line(y, b"ab") == capture_line(x, b"ab")
