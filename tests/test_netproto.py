import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from covis.netproto import (
    MAX_PAYLOAD,
    BadCrc,
    BadMagic,
    BadVersion,
    Frame,
    FrameError,
    OverlongPayload,
    PeerTracker,
    SchedulerState,
    Truncated,
    adapt_rate,
    decode,
    encode,
    next_tx_time,
    on_frame_received,
)

PERIOD = 1.0 / 15.0


def heartbeat(node=1, seq=0, sf=0):
    return Frame(node_id=node, seq=seq, superframe_idx=sf, payload=b"", msg_type=1)


def brute_loss(pairs, now, window, registered_at):
    """The gap fraction over the recorded (time, seq) pairs still in the window
    at ``now``, or the silence rule when none is, recomputed from all the pairs."""
    kept = [seq for t, seq in pairs if not t < now - window]
    if not kept:
        reference = pairs[-1][0] if pairs else registered_at
        return 1.0 if now - reference >= window else 0.0
    expected = kept[-1] - kept[0] + 1
    return (expected - len(kept)) / expected


# One peer's history: steps that record a frame or query the loss, each
# (is_query, time step, seq step), at non-decreasing times and increasing seqs.
STEPS = st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.5), st.integers(1, 4)), max_size=40)


class TestCodec:
    def test_heartbeat_wire_size(self):
        # Header fields sum to 16 bytes, plus the 4-byte CRC.
        data = encode(heartbeat())
        assert len(data) == 20

    def test_roundtrip_embedding(self):
        rng = np.random.default_rng(0)
        f = Frame(node_id=3, seq=42, superframe_idx=99, payload=rng.bytes(6144))
        assert decode(encode(f)) == f

    def test_flipped_bit_bad_crc(self):
        data = bytearray(encode(Frame(node_id=1, seq=2, superframe_idx=3, payload=b"hello")))
        data[18] ^= 0x01  # a payload byte
        with pytest.raises(BadCrc):
            decode(bytes(data))

    def test_bad_magic(self):
        data = bytearray(encode(heartbeat()))
        data[0] = 0x00
        with pytest.raises(BadMagic):
            decode(bytes(data))

    def test_bad_version(self):
        data = bytearray(encode(heartbeat()))
        data[2] = 9
        body = bytes(data[:-4])
        import zlib

        with pytest.raises(BadVersion):
            decode(body + zlib.crc32(body).to_bytes(4, "little"))

    def test_truncated(self):
        data = encode(Frame(node_id=1, seq=0, superframe_idx=0, payload=b"abc"))
        with pytest.raises(Truncated):
            decode(data[:-1])
        with pytest.raises(Truncated):
            decode(data + b"\x00")
        with pytest.raises(Truncated):
            decode(b"")

    def test_overlong_payload(self):
        with pytest.raises(OverlongPayload):
            encode(Frame(node_id=0, seq=0, superframe_idx=0, payload=b"x" * (MAX_PAYLOAD + 1)))
        # Declared overlong length in the header.
        data = bytearray(encode(heartbeat()))
        data[14:16] = (MAX_PAYLOAD + 1).to_bytes(2, "little")
        with pytest.raises(OverlongPayload):
            decode(bytes(data))

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(1)
        classified = 0
        for _ in range(20_000):
            n = int(rng.integers(0, 64))
            blob = rng.bytes(n)
            try:
                decode(blob)
            except FrameError:
                classified += 1
        assert classified == 20_000  # nothing this small is a valid frame

    @pytest.mark.parametrize("version", [-1, 256])
    def test_version_out_of_uint8_range(self, version):
        with pytest.raises(ValueError, match="version out of uint8 range"):
            Frame(node_id=0, seq=0, superframe_idx=0, version=version)

    def test_any_uint8_version_encodes(self):
        for version in (0, 255):
            with pytest.raises(BadVersion):
                decode(encode(Frame(node_id=0, seq=0, superframe_idx=0, version=version)))

    def test_field_validation(self):
        with pytest.raises(ValueError):
            Frame(node_id=-1, seq=0, superframe_idx=0)
        with pytest.raises(ValueError):
            Frame(node_id=0, seq=1 << 32, superframe_idx=0)


class TestScheduler:
    def test_slot_zero_at_origin(self):
        s = SchedulerState(node_id=0, n_slots=4)
        assert next_tx_time(s, 0.0) == 0.0

    def test_slot_two_offset(self):
        s = SchedulerState(node_id=2, n_slots=4)
        assert next_tx_time(s, 0.0) == pytest.approx(2.0 / (15.0 * 4.0), abs=1e-12)

    def test_divisor_skips_superframes(self):
        s = SchedulerState(node_id=0, n_slots=4, tx_divisor=2)
        assert next_tx_time(s, 1e-6) == pytest.approx(2.0 * PERIOD, abs=1e-12)

    def test_distinct_slots_never_collide(self):
        # All transmission intervals over many superframes, airtime = slot width.
        n_slots = 4
        states = [SchedulerState(node_id=i, n_slots=n_slots) for i in range(n_slots)]
        airtime = states[0].slot_width
        intervals = []
        for s in states:
            t = next_tx_time(s, 0.0)
            for _ in range(500):
                intervals.append((t, t + airtime, s.node_id))
                t = next_tx_time(s, t + 0.5 * s.slot_width)
        intervals.sort()
        for (a0, a1, na), (b0, b1, nb) in zip(intervals, intervals[1:]):
            if na != nb:
                assert b0 >= a1 - 1e-12

    def test_offered_load_is_exact(self):
        for divisor in (1, 2, 4, 8):
            s = SchedulerState(node_id=1, n_slots=4, tx_divisor=divisor)
            count = 0
            t = next_tx_time(s, 0.0)
            horizon = 400 * PERIOD
            while t < horizon - 1e-9:
                count += 1
                t = next_tx_time(s, t + 0.5 * s.slot_width)
            assert count == 400 // divisor

    def test_phase_shifts_schedule(self):
        s = SchedulerState(node_id=0, n_slots=4, tx_divisor=4, tx_phase=3)
        assert next_tx_time(s, 0.0) == pytest.approx(3.0 * PERIOD, abs=1e-12)


class TestLossEstimator:
    def test_consecutive_no_loss(self):
        s = SchedulerState(node_id=0)
        for i, seq in enumerate((1, 2, 3)):
            on_frame_received(s, heartbeat(node=7, seq=seq), now=0.1 * i)
        assert s.peers[7].loss_estimate(0.3) == 0.0

    def test_gap_counted(self):
        s = SchedulerState(node_id=0)
        on_frame_received(s, heartbeat(node=7, seq=1), now=0.0)
        on_frame_received(s, heartbeat(node=7, seq=3), now=0.1)
        assert s.peers[7].loss_estimate(0.2) == pytest.approx(1.0 / 3.0)

    def test_unknown_peer_registered(self):
        s = SchedulerState(node_id=0)
        on_frame_received(s, heartbeat(node=9, seq=5), now=0.0)
        assert 9 in s.peers
        assert s.peers[9].loss_estimate(0.0) == 0.0

    def test_silence_counts_as_loss(self):
        s = SchedulerState(node_id=0, loss_window=2.0)
        s.register_peer(5, now=0.0)
        assert s.peers[5].loss_estimate(1.0) == 0.0  # grace period
        assert s.peers[5].loss_estimate(2.5) == 1.0

    def test_window_eviction(self):
        s = SchedulerState(node_id=0, loss_window=1.0)
        on_frame_received(s, heartbeat(node=7, seq=1), now=0.0)
        on_frame_received(s, heartbeat(node=7, seq=3), now=0.3)
        on_frame_received(s, heartbeat(node=7, seq=4), now=0.6)
        assert s.peers[7].loss_estimate(0.7) == pytest.approx(0.25)
        # After the window slides past the gap, only recent history counts.
        assert s.peers[7].loss_estimate(1.2) == 0.0

    @given(
        window=st.sampled_from([0.5, 1.0, 2.0]),
        registered_at=st.floats(0.0, 3.0),
        steps=STEPS,
    )
    @example(window=2.0, registered_at=0.0, steps=[(True, 1.0, 1), (True, 1.5, 1)])  # never heard from
    @example(window=1.0, registered_at=0.0, steps=[(False, 0.1, 1), (False, 0.2, 3), (True, 1.5, 1)])  # all evicted
    def test_loss_estimate_is_the_windowed_gap_fraction(self, window, registered_at, steps):
        tracker = PeerTracker(window=window, registered_at=registered_at)
        pairs, now, seq = [], registered_at, 0
        for is_query, dt, dseq in steps:
            now += dt
            if is_query:
                assert tracker.loss_estimate(now) == brute_loss(pairs, now, window, registered_at)
            else:
                seq += dseq
                tracker.record(now, seq)
                pairs.append((now, seq))
        assert tracker.loss_estimate(now + window) == brute_loss(pairs, now + window, window, registered_at)

    @given(histories=st.lists(STEPS, max_size=5), later=st.floats(0.0, 3.0))
    def test_adapt_rate_acts_on_the_largest_peer_loss(self, histories, later):
        state = SchedulerState(node_id=0, loss_window=1.0)
        recorded, end = {}, 0.0
        for peer, steps in enumerate(histories, start=1):
            state.register_peer(peer, 0.0)
            now, seq = 0.0, 0
            for _, dt, dseq in steps:
                now, seq = now + dt, seq + dseq
                state.peers[peer].record(now, seq)
                recorded.setdefault(peer, []).append((now, seq))
            end = max(end, now)
        now = end + later
        want = max((brute_loss(recorded.get(p, []), now, 1.0, 0.0) for p in state.peers), default=0.0)
        assert adapt_rate(state, now) == want

    def test_record_alone_bounds_memory(self):
        # Nobody asks for the loss, yet 1,000 s at 15 Hz keeps at most one
        # 2 s window of entries (31 frames, both ends inclusive).
        tracker = PeerTracker(window=2.0)
        longest = 0
        for seq in range(15 * 1000):
            tracker.record(seq / 15.0, seq)
            longest = max(longest, len(tracker.entries))
        assert longest <= 31


class TestAdaptRate:
    def make(self, **kw):
        return SchedulerState(node_id=0, n_slots=4, rng=np.random.default_rng(0), **kw)

    def feed_loss(self, state, loss, now):
        """Install a synthetic peer with the requested loss estimate."""

        class FakeTracker:
            def __init__(self, value):
                self.value = value

            def loss_estimate(self, _now):
                return self.value

        state.peers[99] = FakeTracker(loss)

    def test_zero_loss_converges_to_one(self):
        # Decreases are rate-limited to one per two loss windows; 8 -> 1 takes
        # seven steps, so give the loop ample simulated time.
        s = self.make(tx_divisor=8)
        self.feed_loss(s, 0.0, 0.0)
        t = 0.0
        for _ in range(600):
            adapt_rate(s, t)
            t += PERIOD
        assert s.tx_divisor == 1

    def test_persistent_loss_reaches_max(self):
        s = self.make()
        self.feed_loss(s, 0.5, 0.0)
        t = 0.0
        for _ in range(200):
            adapt_rate(s, t)
            t += PERIOD
        assert s.tx_divisor == s.max_divisor

    def test_hysteresis_band_holds(self):
        s = self.make(tx_divisor=4)
        t = 0.0
        for i in range(100):
            loss = 0.06 + 0.03 * (i % 2)  # oscillates inside [0.05, 0.10]
            self.feed_loss(s, loss, t)
            assert adapt_rate(s, t) == loss  # the value the step acted on
            t += PERIOD
        assert s.tx_divisor == 4

    def test_increase_redraws_phase_within_divisor(self):
        s = self.make()
        self.feed_loss(s, 1.0, 0.0)
        t = 0.0
        for _ in range(400):
            adapt_rate(s, t)
            t += PERIOD
        assert s.tx_divisor == s.max_divisor
        assert 0 <= s.tx_phase < s.tx_divisor

    def test_seq_strictly_increases(self):
        s = self.make()
        seqs = [s.next_seq() for _ in range(10)]
        assert seqs == sorted(set(seqs))
