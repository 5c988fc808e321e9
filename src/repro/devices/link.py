"""Ethernet link and traffic generation.

A :class:`EthernetLink` joins a NIC device model to a peer: frames the NIC
transmits are delivered to the peer callback; frames the peer injects
arrive at the NIC.  The link enforces line rate by pacing deliveries in
virtual time, which is what makes netperf throughput link-limited (as on
the paper's gigabit testbed) rather than CPU-limited.

:class:`TrafficGenerator` plays the remote netperf host for receive-side
benchmarks: it schedules back-to-back frames at a configurable rate.
"""


class EthernetLink:
    def __init__(self, kernel, bits_per_second=1_000_000_000, name="link"):
        self._kernel = kernel
        self.bits_per_second = bits_per_second  # fixed for the link's life
        # Wire time per frame size: transmit() looks it up per frame.
        self._wire_ns = {}
        self.name = name
        self.peer_rx = None  # callable(frame_bytes): the "remote host"
        self.nic_rx = None   # callable(frame_bytes): set by the NIC model
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self._tx_busy_until_ns = 0

    def frame_time_ns(self, nbytes):
        # Preamble (8B) + IFG (12B) per Ethernet frame.
        return int((nbytes + 20) * 8 * 1e9 / self.bits_per_second)

    def transmit(self, frame):
        """NIC puts a frame on the wire; returns completion time (ns)."""
        now = self._kernel.clock.now_ns
        start = max(now, self._tx_busy_until_ns)
        nbytes = len(frame)
        wire_ns = self._wire_ns.get(nbytes)
        if wire_ns is None:
            wire_ns = self._wire_ns[nbytes] = self.frame_time_ns(nbytes)
        done = start + wire_ns
        self._tx_busy_until_ns = done
        self.tx_frames += 1
        self.tx_bytes += nbytes
        if self.peer_rx is not None:
            self.peer_rx(bytes(frame))
        return done

    def inject(self, frame):
        """Remote host sends a frame toward the NIC."""
        self.rx_frames += 1
        self.rx_bytes += len(frame)
        if self.nic_rx is not None:
            if type(frame) is not bytes:
                frame = bytes(frame)
            self.nic_rx(frame)


class TrafficGenerator:
    """Injects frames into a link at a steady rate (the remote netperf)."""

    def __init__(self, kernel, link, frame_bytes=1500, utilization=0.95,
                 burst=1):
        self._kernel = kernel
        self._link = link
        self.frame_bytes = frame_bytes
        self.utilization = utilization
        # Frames arriving back-to-back per tick.  Real traffic is bursty
        # (TCP windows, GRO on the sender); ``burst=k`` injects k frames
        # every k intervals -- the same average rate as burst=1, but the
        # arrival pattern coalescing/NAPI was designed for.
        self.burst = max(1, int(burst))
        self._running = False
        self.frames_sent = 0
        # Frozen at start(): the payload and pacing interval are
        # constant for a run, so the per-frame tick does no arithmetic
        # and no allocation.
        self._payload = b""
        self._interval_ns = 0
        self._stop_at_ns = None

    def interframe_ns(self):
        return int(self._link.frame_time_ns(self.frame_bytes) / self.utilization)

    def start(self, stop_at_ns=None):
        """Begin injecting; ``stop_at_ns`` is a hard virtual deadline.

        A nested ``run_until`` (an event handler that consumes time near
        the end of a run) can overshoot the caller's target and fire
        ticks past it; the deadline makes the injected frame count a
        function of the duration alone, not of which handler happened to
        straddle the boundary.
        """
        self._running = True
        self._stop_at_ns = stop_at_ns
        self._payload = bytes(self.frame_bytes)
        self._interval_ns = self.interframe_ns() * self.burst
        self._schedule_next()

    def stop(self):
        self._running = False

    def _schedule_next(self):
        if not self._running:
            return
        self._kernel.events.schedule_after(
            self._interval_ns, self._tick, context="process", name="trafficgen"
        )

    def _tick(self):
        if not self._running:
            return
        stop_at = self._stop_at_ns
        if stop_at is not None and self._kernel.clock.now_ns > stop_at:
            self._running = False
            return
        # Schedule the next frame BEFORE processing this one, so the
        # injection rate is independent of receive-side processing time.
        self._kernel.events.schedule_after(
            self._interval_ns, self._tick, context="process", name="trafficgen"
        )
        inject = self._link.inject
        payload = self._payload
        for _ in range(self.burst):
            inject(payload)
        self.frames_sent += self.burst
