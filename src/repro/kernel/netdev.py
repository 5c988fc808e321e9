"""Network core: net_device, sk_buff, transmit/receive paths.

Workloads hand packets to :meth:`NetworkCore.dev_queue_xmit`, which calls
the driver's ``hard_start_xmit`` honoring the transmit-queue state the
driver controls with ``netif_stop_queue`` / ``netif_wake_queue``.  Receive
is ``netif_rx``: the driver (usually in its interrupt handler) pushes an
skb up; the core charges protocol-stack CPU cost and delivers it to an
optional sink installed by the workload.

This mirrors enough of the Linux data path that the 8139too and E1000
drivers' performance-critical code is structurally the same as in C.
"""

from collections import deque

from .errors import EBUSY, ENODEV
from .napi import NapiCore

NETDEV_TX_OK = 0
NETDEV_TX_BUSY = 1

IFF_UP = 0x1
IFF_PROMISC = 0x100
IFF_ALLMULTI = 0x200


class SkBuff:
    """A socket buffer: payload plus bookkeeping.

    ``data`` is either ``bytes`` (legacy per-packet allocation) or a
    writable ``memoryview`` slice of the pooled DMA arena (zero-copy
    NAPI path).  Pooled buffers must be returned with :meth:`recycle`
    once the stack is done with them; ``recycle`` on a non-pooled skb is
    a no-op.
    """

    __slots__ = ("data", "protocol", "timestamp_ns", "dev", "_pool", "_slot")

    def __init__(self, data, protocol=0x0800):
        self.data = data if type(data) is memoryview else bytes(data)
        self.protocol = protocol
        self.timestamp_ns = 0
        self.dev = None
        self._pool = None
        self._slot = -1

    def __len__(self):
        return len(self.data)

    def tobytes(self):
        data = self.data
        return data.tobytes() if type(data) is memoryview else data

    def recycle(self):
        """Return a pooled buffer to its arena (explicit, like kfree_skb)."""
        pool = self._pool
        if pool is not None:
            self._pool = None
            # Drop the device back-reference: the pool caches this header
            # per slot, and a stale ``dev`` would pin a hot-unplugged
            # device's whole object graph until the slot is reused.
            self.dev = None
            pool.free(self._slot)
            self._slot = -1


class SkbPool:
    """Zero-copy rx buffers: fixed slots in one pooled DMA arena.

    ``alloc`` hands out a writable memoryview slice of the arena instead
    of a fresh ``bytes`` per packet; ``recycle`` (via the skb) returns the
    slot.  The free list is FIFO, so a recycled slot is only rewritten
    after every other free slot has been used once -- consumers that keep
    an skb's view past ``recycle`` (sinks that inspect payloads after the
    run) get ``count`` packets of slack before the data is overwritten.
    On exhaustion or oversize requests, ``alloc`` falls back to a private
    bytearray-backed skb (counted as a miss).
    """

    def __init__(self, kernel, buf_size=2048, count=256, owner="skb-pool",
                 fallback=None):
        self._kernel = kernel
        self.buf_size = buf_size
        self.count = count
        self.region = kernel.memory.dma_alloc_coherent(
            buf_size * count, owner=owner)
        self._arena = memoryview(self.region.data)
        self._free = deque(range(count))
        # Per-slot SkBuff headers, reused across alloc/recycle cycles
        # the way real drivers reuse rx buffers: a steady-state receive
        # loop allocates nothing per packet.  The header is only rebuilt
        # when the requested length differs from the slot's last use.
        self._skbs = [None] * count
        # Per-CPU shards chain to the shared pool: exhaustion falls
        # back there instead of going straight to a private bytearray.
        # A fallback-allocated skb carries the *fallback's* `_pool`, so
        # recycle always returns a slot to the arena that owns it.
        self.fallback = fallback
        self.hits = 0
        self.misses = 0
        self.recycles = 0

    def alloc(self, length, protocol=0x0800):
        if self._free and length <= self.buf_size:
            slot = self._free.popleft()
            self.hits += 1
            skb = self._skbs[slot]
            if skb is None or len(skb.data) != length:
                base = slot * self.buf_size
                skb = SkBuff(self._arena[base:base + length], protocol)
                self._skbs[slot] = skb
            else:
                skb.protocol = protocol
            skb._pool = self
            skb._slot = slot
            return skb
        self.misses += 1
        if self.fallback is not None:
            return self.fallback.alloc(length, protocol)
        return SkBuff(memoryview(bytearray(length)), protocol)

    def free(self, slot):
        self.recycles += 1
        self._free.append(slot)

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class NetDeviceStats:
    """Mirrors ``struct net_device_stats``."""

    FIELDS = (
        "rx_packets", "tx_packets", "rx_bytes", "tx_bytes",
        "rx_errors", "tx_errors", "rx_dropped", "tx_dropped",
        "multicast", "collisions", "rx_fifo_errors", "rx_crc_errors",
        "rx_length_errors", "tx_fifo_errors", "tx_carrier_errors",
    )

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in self.FIELDS}


class NetDevice:
    """``struct net_device``: ops are attributes assigned by the driver."""

    def __init__(self, kernel, name="eth%d"):
        self._kernel = kernel
        self.name = name
        self.mtu = 1500
        self.dev_addr = bytes(6)
        self.flags = 0
        self.features = 0
        self.irq = 0
        self.base_addr = 0
        self.mem_start = 0
        self.priv = None
        self.stats = NetDeviceStats()

        # Driver-provided operations (subset of net_device_ops).
        self.open = None
        self.stop = None
        self.hard_start_xmit = None
        self.get_stats = None
        self.set_multicast_list = None
        self.set_mac_address = None
        self.change_mtu = None
        self.tx_timeout = None
        self.do_ioctl = None

        self._queue_stopped = True
        self._carrier_ok = False
        self.registered = False
        self.tx_queue_wakeups = 0
        # Virtual timestamp of the last running->stopped transition;
        # None while the queue runs.  The hung-task watchdog reads this
        # to spot a TX queue that stopped and never woke (lost
        # completions: the wedged-device signature).
        self._stopped_since_ns = None

    # -- queue control (driver side) -----------------------------------------

    def netif_start_queue(self):
        self._queue_stopped = False
        self._stopped_since_ns = None

    def netif_stop_queue(self):
        if not self._queue_stopped:
            self._stopped_since_ns = self._kernel.clock.now_ns
        self._queue_stopped = True

    def netif_wake_queue(self):
        if self._queue_stopped:
            self.tx_queue_wakeups += 1
        self._queue_stopped = False
        self._stopped_since_ns = None

    def netif_queue_stopped(self):
        return self._queue_stopped

    def netif_carrier_on(self):
        self._carrier_ok = True

    def netif_carrier_off(self):
        self._carrier_ok = False

    def netif_carrier_ok(self):
        return self._carrier_ok

    def netif_running(self):
        return bool(self.flags & IFF_UP)


def _dev_counts(dev):
    """A device's kstat counts, kept past its unregister."""
    return {"tx_packets": dev.stats.tx_packets,
            "rx_packets": dev.stats.rx_packets,
            "tx_queue_wakeups": dev.tx_queue_wakeups}


class NetworkCore:
    def __init__(self, kernel):
        self._kernel = kernel
        self._devices = []
        self.rx_sink = None  # callable(dev, skb) installed by workloads
        self.stack_rx_packets = 0
        self.stack_rx_bytes = 0
        self.napi = NapiCore(kernel, self)
        self.skb_pool = None  # created lazily at first netif_napi_add
        self.cpu_skb_pools = {}  # cpu index -> per-CPU SkbPool shard
        self._rx_batch_packets = 0
        self._rx_batch_bytes = 0
        kernel.kstat.register("napi", self._kstat_napi)
        kernel.kstat.register("net", self._kstat_net)

    def _kstat_napi(self):
        return self.napi.snapshot()

    def _kstat_net(self):
        out = {"stack_rx_packets": self.stack_rx_packets,
               "stack_rx_bytes": self.stack_rx_bytes}
        for dev in self._devices:
            for name, count in _dev_counts(dev).items():
                out["%s.%s" % (dev.name, name)] = count
            out["%s.queue_stopped" % dev.name] = dev._queue_stopped
        for label, counters in self.skb_pool_stats().items():
            total = counters["hits"] + counters["misses"]
            out["skb_pool.%s.hits" % label] = counters["hits"]
            out["skb_pool.%s.misses" % label] = counters["misses"]
            out["skb_pool.%s.recycles" % label] = counters["recycles"]
            out["skb_pool.%s.hit_rate" % label] = (
                counters["hits"] / total if total else 0.0)
        return out

    def get_skb_pool(self, cpu=None):
        """The zero-copy rx pool; allocated on first use.

        Lazy so that non-NAPI configurations (the per-packet-IRQ
        ablation, non-network tests) never pay for the DMA arena.  Must
        first be called from process context (the arena allocation may
        sleep); NAPI registration guarantees that.

        ``cpu`` selects that CPU's arena shard (created on demand, with
        the shared pool as exhaustion fallback) so the rx hot path
        allocates from CPU-local memory and recycles to the owning
        arena -- buffers never bounce between CPUs.
        """
        if self.skb_pool is None:
            self.skb_pool = SkbPool(self._kernel)
        if cpu is None:
            return self.skb_pool
        pool = self.cpu_skb_pools.get(cpu)
        if pool is None:
            pool = self.cpu_skb_pools[cpu] = SkbPool(
                self._kernel, owner="skb-pool-cpu%d" % cpu,
                fallback=self.skb_pool)
        return pool

    def alloc_rx_skb(self, length, protocol=0x0800):
        """Allocate an rx skb from the current CPU's pool shard.

        On a single-CPU kernel this is the shared pool (callers on the
        hot path bind ``pool.alloc`` directly instead); on SMP it is
        the shard of whichever CPU the caller's softirq runs on.
        """
        kernel = self._kernel
        if kernel.nr_cpus > 1:
            return self.get_skb_pool(kernel.current_cpu.index).alloc(
                length, protocol)
        return self.get_skb_pool().alloc(length, protocol)

    def skb_pool_stats(self):
        """Aggregate + per-CPU pool counters for result reporting."""
        pools = [("shared", self.skb_pool)] + [
            ("cpu%d" % cpu, pool)
            for cpu, pool in sorted(self.cpu_skb_pools.items())
        ]
        out = {}
        for label, pool in pools:
            if pool is not None:
                out[label] = {"hits": pool.hits, "misses": pool.misses,
                              "recycles": pool.recycles}
        return out

    @property
    def devices(self):
        return list(self._devices)

    def register_netdev(self, dev):
        if dev.registered:
            return -EBUSY
        if "%d" in dev.name:
            # The lowest free index, as Linux's dev_alloc_name picks:
            # a reloaded NIC is eth0 again, so the names (and the kstat
            # keys that retire its counts) stay bounded under churn.
            taken = {d.name for d in self._devices}
            index = 0
            while dev.name % index in taken:
                index += 1
            dev.name = dev.name % index
        dev.registered = True
        self._devices.append(dev)
        return 0

    def unregister_netdev(self, dev):
        dev.registered = False
        self._devices.remove(dev)
        self._kernel.kstat.retire("net." + dev.name, _dev_counts(dev))

    def find(self, name):
        for dev in self._devices:
            if dev.name == name:
                return dev
        return None

    # -- up/down (ifconfig) ------------------------------------------------------

    def dev_open(self, dev):
        if dev.flags & IFF_UP:
            return 0
        ret = dev.open(dev) if dev.open else 0
        if ret == 0:
            dev.flags |= IFF_UP
        return ret

    def dev_close(self, dev):
        if not dev.flags & IFF_UP:
            return 0
        # Clear the running state *before* the driver's stop op, as
        # Linux clears __LINK_STATE_START ahead of ndo_stop: anything
        # observing netif_running() mid-teardown (the hung-TX watchdog
        # in particular) must see the device as going down.
        dev.flags &= ~IFF_UP
        return dev.stop(dev) if dev.stop else 0

    # -- transmit path -------------------------------------------------------------

    def dev_queue_xmit(self, dev, skb):
        """Send one skb; returns NETDEV_TX_OK or NETDEV_TX_BUSY.

        Charges the protocol-stack cost the paper's netperf workload pays
        per packet above the driver.
        """
        if not dev.registered or not (dev.flags & IFF_UP):
            return -ENODEV
        if dev.netif_queue_stopped():
            return NETDEV_TX_BUSY
        kernel = self._kernel
        kernel.consume(
            int(kernel.costs.packet_cpu_ns + len(skb) * kernel.costs.byte_copy_ns),
            busy=True,
            category="netstack",
        )
        skb.timestamp_ns = kernel.clock.now_ns
        return dev.hard_start_xmit(skb, dev)

    # -- receive path ----------------------------------------------------------------

    def netif_rx(self, dev, skb):
        """Driver hands a received skb to the stack.

        Charges protocol processing plus the copy to user space the
        receive path pays (transmit is zero-copy DMA).
        """
        kernel = self._kernel
        kernel.consume(
            int(
                kernel.costs.rx_packet_cpu_ns
                + len(skb)
                * (kernel.costs.byte_copy_ns + kernel.costs.rx_user_copy_byte_ns)
            ),
            busy=True,
            category="netstack",
        )
        skb.dev = dev
        self.stack_rx_packets += 1
        self.stack_rx_bytes += len(skb)
        if self.rx_sink is not None:
            self.rx_sink(dev, skb)
        return 0

    def netif_receive_skb(self, dev, skb):
        """NAPI delivery: same accounting as netif_rx, batched CPU charge.

        Per-packet protocol cost is accumulated and charged once per poll
        by :meth:`flush_rx_batch` -- the *virtual* total is identical to
        per-packet ``netif_rx``, but the simulator pays one consume per
        poll instead of one per packet.  The pooled buffer is recycled
        after the sink returns; sinks that need the payload later must
        copy it (see SkbPool's FIFO slack).
        """
        size = len(skb.data)
        self._rx_batch_packets += 1
        self._rx_batch_bytes += size
        skb.dev = dev
        if self.rx_sink is not None:
            self.rx_sink(dev, skb)
        pool = skb._pool
        if pool is not None:  # inlined skb.recycle()
            skb._pool = None
            skb.dev = None  # don't pin a hot-unplugged device via the cache
            pool.recycles += 1
            pool._free.append(skb._slot)
            skb._slot = -1
        return 0

    def flush_rx_batch(self):
        """Charge the accumulated protocol-stack cost for one poll."""
        packets = self._rx_batch_packets
        if not packets:
            return
        nbytes = self._rx_batch_bytes
        self._rx_batch_packets = 0
        self._rx_batch_bytes = 0
        # Stack counters are batched too -- same totals, one update.
        self.stack_rx_packets += packets
        self.stack_rx_bytes += nbytes
        kernel = self._kernel
        kernel.consume(
            int(
                packets * kernel.costs.rx_packet_cpu_ns
                + nbytes
                * (kernel.costs.byte_copy_ns + kernel.costs.rx_user_copy_byte_ns)
            ),
            busy=True,
            category="netstack",
        )
