"""netperf: TCP/UDP-style streaming benchmarks (Table 3).

``netperf_send`` saturates the transmit path (flow-controlled by the
driver's queue state and the link's wire pacing); ``netperf_recv``
receives from a remote generator at near line rate; ``netperf_udp_rr``
is the 1-byte-message UDP test the paper ran on E1000.

Durations are virtual seconds.  The paper ran 600 s iterations on real
hardware; the simulator is deterministic, so a few virtual seconds
give exact, stable numbers (configurable for longer runs).
"""

from ..kernel import NETDEV_TX_OK, SkBuff
from ..trace import begin_trace, finish_trace
from .result import RunWindow, rig_result


def _open_dev(rig):
    if rig.endpoint is None:
        raise RuntimeError("no network device registered")
    rig.family.open(rig)
    # Let autonegotiation and the first watchdog tick finish.
    rig.kernel.run_for_ms(50)
    return rig.endpoint


def _wait_for_progress(kernel, end_ns, rig=None):
    """Advance to the next event, or fail loudly if there is none.

    A stopped queue with an empty event queue means the device lost its
    TX completion: nothing will ever restart the queue, and silently
    spinning the clock to ``end_ns`` would report it as a (bogus) idle
    run.  Raise instead so the regression is visible.

    Exception: while a supervised recovery is pending the quiesced
    driver legitimately has no TX completion in flight -- the restart
    work item will repopulate the event queue, so wait for it instead
    of reporting a wedge.
    """
    t = kernel.events.peek_time()
    if t is None:
        if rig is not None and rig.recovery_pending():
            kernel.run_for_ms(1)
            return
        raise RuntimeError(
            "netperf: device wedged -- queue stopped with no pending "
            "events to restart it")
    kernel.run_until(min(end_ns, t))


def netperf_send(rig, duration_s=2.0, msg_bytes=1500, trace=None):
    """Saturating send; returns throughput and CPU utilization.

    ``trace`` may be falsy (off), ``True`` (summary only), a path (write
    Chrome-trace JSON there) or an installed :class:`~repro.trace.Tracer`.
    """
    kernel = rig.kernel
    session = begin_trace(kernel, trace)
    dev = _open_dev(rig)
    payload = bytes(msg_bytes)

    window = RunWindow(kernel)
    end_ns = window.start_ns + int(duration_s * 1e9)
    sent_packets = 0
    sent_bytes = 0
    lost_packets = 0

    while kernel.clock.now_ns < end_ns:
        if dev.netif_queue_stopped():
            _wait_for_progress(kernel, end_ns, rig)
            continue
        rc = kernel.net.dev_queue_xmit(dev, SkBuff(payload))
        if rc == NETDEV_TX_OK:
            sent_packets += 1
            sent_bytes += msg_bytes
        else:
            if rig.recovery_pending():
                lost_packets += 1
            _wait_for_progress(kernel, end_ns, rig)

    result = rig_result(
        rig, window, "netperf-send", lost=lost_packets,
        bytes_moved=sent_bytes,
        packets=sent_packets,
        throughput_mbps=sent_bytes * 8 / window.elapsed_s() / 1e6,
    )
    finish_trace(session, result)
    kernel.net.dev_close(dev)
    return result


def netperf_recv(rig, duration_s=2.0, msg_bytes=1500, utilization=0.95,
                 sink_extra=None, trace=None, burst=1):
    """Receive from a remote generator at ~line rate.

    ``sink_extra(dev, skb)`` is called for every delivered packet while
    the skb's (possibly pooled, zero-copy) buffer is still valid --
    benchmarks use it to digest payloads without keeping references.
    ``burst`` makes arrivals bursty (k frames back-to-back every k
    intervals) at the same average rate.
    """
    from ..devices import TrafficGenerator

    kernel = rig.kernel
    session = begin_trace(kernel, trace)
    dev = _open_dev(rig)
    generator = TrafficGenerator(kernel, rig.link, frame_bytes=msg_bytes,
                                 utilization=utilization, burst=burst)

    received = [0, 0]  # packets, bytes -- list beats dict in the hot sink

    if sink_extra is None:
        def sink(_dev, skb):
            received[0] += 1
            received[1] += len(skb.data)
    else:
        def sink(_dev, skb):
            received[0] += 1
            received[1] += len(skb.data)
            sink_extra(_dev, skb)

    kernel.net.rx_sink = sink
    window = RunWindow(kernel)
    generator.start(stop_at_ns=window.start_ns + int(duration_s * 1e9))
    kernel.run_for_s(duration_s)
    generator.stop()
    # Drain in-flight frames (ITR windows, scheduled polls) so the
    # delivered set is identical whichever interrupt scheme ran.
    kernel.run_for_ms(2)

    result = rig_result(
        rig, window, "netperf-recv",
        bytes_moved=received[1],
        packets=received[0],
        throughput_mbps=received[1] * 8 / window.elapsed_s() / 1e6,
    )
    finish_trace(session, result)
    kernel.net.rx_sink = None
    kernel.net.dev_close(dev)
    return result


def netperf_udp_rr(rig, duration_s=1.0, msg_bytes=1, trace=None):
    """UDP request/response with 1-byte messages (E1000, section 4.2).

    Each round trip sends a tiny frame and receives the echo the link
    peer reflects back.
    """
    kernel = rig.kernel
    session = begin_trace(kernel, trace)
    dev = _open_dev(rig)

    # Remote host: echo every received frame back after a short RTT.
    def echo(frame):
        kernel.events.schedule_after(
            30_000, lambda: rig.link.inject(frame), name="udp-echo"
        )

    rig.link.peer_rx = echo

    responses = {"count": 0}

    def sink(_dev, skb):
        responses["count"] += 1

    kernel.net.rx_sink = sink
    # Minimum Ethernet payload still makes a 60-byte frame on the wire.
    payload = bytes(max(60, msg_bytes))

    window = RunWindow(kernel)
    end_ns = window.start_ns + int(duration_s * 1e9)
    sent = 0
    while kernel.clock.now_ns < end_ns:
        before = responses["count"]
        if kernel.net.dev_queue_xmit(dev, SkBuff(payload)) == NETDEV_TX_OK:
            sent += 1
        # Wait for the echo (request/response semantics).
        while responses["count"] == before:
            t = kernel.events.peek_time()
            if t is None or t > end_ns:
                break
            kernel.run_until(t)
        else:
            continue
        if responses["count"] == before:
            break

    result = rig_result(
        rig, window, "netperf-udp-rr",
        bytes_moved=sent * len(payload),
        packets=sent,
        # kTPS, not Mb/s: transactions per virtual ms.
        throughput_mbps=responses["count"] / window.elapsed_s() / 1000.0,
        extra={"transactions": responses["count"]},
    )
    finish_trace(session, result)
    kernel.net.rx_sink = None
    rig.link.peer_rx = None
    kernel.net.dev_close(dev)
    return result
