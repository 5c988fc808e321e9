"""PCI bus, I/O space, network core, sound core, USB core, input core."""

import pytest

from repro.kernel import (
    NETDEV_TX_OK,
    NetDevice,
    PciBar,
    PciDriver,
    PciFunction,
    SkBuff,
    SimulationError,
)


class _Regs:
    """Trivial I/O handler: a register file backed by a dict."""

    def __init__(self):
        self.values = {}

    def read(self, offset, size):
        return self.values.get(offset, 0)

    def write(self, offset, value, size):
        self.values[offset] = value


def _function(io_base=0x1000, mmio=False, vendor=0x1234, device=0x5678):
    return PciFunction(
        vendor_id=vendor, device_id=device, irq=5,
        bars=[PciBar(io_base, 0x100, is_mmio=mmio, handler=_Regs())],
    )


class TestPciBus:
    def test_probe_on_register(self, kernel):
        func = _function()
        kernel.pci.add_function(func)
        probed = []

        class Driver(PciDriver):
            name = "t"
            id_table = ((0x1234, 0x5678),)

            def probe(self, k, pdev):
                probed.append(pdev)
                return 0

            def remove(self, k, pdev):
                pass

        assert kernel.pci.register_driver(Driver()) == 1
        assert probed == [func]
        assert func.driver is not None

    def test_probe_on_hotplug(self, kernel):
        probed = []

        class Driver(PciDriver):
            name = "t"
            id_table = ((0x1234, 0x5678),)

            def probe(self, k, pdev):
                probed.append(pdev)
                return 0

            def remove(self, k, pdev):
                pass

        kernel.pci.register_driver(Driver())
        func = _function()
        kernel.pci.add_function(func)
        assert probed == [func]

    def test_no_match_no_probe(self, kernel):
        class Driver(PciDriver):
            name = "t"
            id_table = ((0x9999, 0x9999),)

            def probe(self, k, pdev):
                raise AssertionError("should not probe")

            def remove(self, k, pdev):
                pass

        kernel.pci.add_function(_function())
        assert kernel.pci.register_driver(Driver()) == 0

    def test_driver_override_names_the_owner_module(self, kernel):
        probed = []

        class Driver(PciDriver):
            name = "t"  # both variants share the driver name
            id_table = ((0x1234, 0x5678),)

            def probe(self, k, pdev):
                probed.append((self.owner, pdev))
                return 0

            def remove(self, k, pdev):
                probed.remove((self.owner, pdev))

        pinned, free = _function(), _function(io_base=0x2000)
        pinned.driver_override = "t+decaf"
        kernel.pci.add_function(pinned)
        kernel.pci.add_function(free)
        legacy = Driver()
        assert kernel.pci.register_driver(legacy, owner="t") == 1
        assert probed == [("t", free)]
        assert kernel.pci.register_driver(Driver(), owner="t+decaf") == 1
        assert probed == [("t", free), ("t+decaf", pinned)]
        kernel.pci.remove_function(pinned)  # hot-unplug runs remove
        assert probed == [("t", free)]
        kernel.pci.unregister_driver(legacy)
        assert probed == [] and free.driver is None

    def test_enable_sets_command_bits(self, kernel):
        func = _function()
        kernel.pci.add_function(func)
        kernel.pci.enable_device(func)
        assert func.enabled
        assert kernel.pci.read_config_word(func, 0x04) & 0x3

    def test_request_release_regions(self, kernel):
        func = _function()
        kernel.pci.add_function(func)
        assert kernel.pci.request_regions(func, "t") == 0
        # Double-claim of the same range fails.
        func2 = _function()
        kernel.pci.add_function(func2)
        assert kernel.pci.request_regions(func2, "t2") != 0
        kernel.pci.release_regions(func)
        assert kernel.pci.request_regions(func2, "t2") == 0

    def test_config_space_roundtrip(self, kernel):
        func = _function()
        kernel.pci.write_config_dword(func, 0x40, 0xDEADBEEF)
        assert kernel.pci.read_config_dword(func, 0x40) == 0xDEADBEEF

    def test_vendor_device_in_config(self, kernel):
        func = _function()
        assert kernel.pci.read_config_word(func, 0x00) == 0x1234
        assert kernel.pci.read_config_word(func, 0x02) == 0x5678


class TestIoSpace:
    def test_port_roundtrip(self, kernel):
        func = _function(io_base=0x2000)
        kernel.pci.add_function(func)
        kernel.pci.request_regions(func, "t")
        kernel.io.outl(0xCAFEBABE, 0x2010)
        assert kernel.io.inl(0x2010) == 0xCAFEBABE
        assert kernel.io.inb(0x2010) == 0xBE & 0xFF

    def test_unclaimed_access_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel.io.inb(0x9999)

    def test_access_advances_clock(self, kernel):
        func = _function(io_base=0x2000)
        kernel.pci.add_function(func)
        kernel.pci.request_regions(func, "t")
        t0 = kernel.now_ns()
        kernel.io.inb(0x2000)
        assert kernel.now_ns() == t0 + kernel.costs.port_io_ns

    def test_mmio_cheaper_than_port(self, kernel):
        assert kernel.costs.mmio_ns < kernel.costs.port_io_ns


class TestNetworkCore:
    def _dev(self, kernel):
        dev = NetDevice(kernel, "eth%d")
        dev.open = lambda d: 0
        dev.stop = lambda d: 0
        sent = []
        dev.hard_start_xmit = lambda skb, d: sent.append(skb) or NETDEV_TX_OK
        dev._sent = sent
        return dev

    def test_register_names_device(self, kernel):
        dev = self._dev(kernel)
        assert kernel.net.register_netdev(dev) == 0
        assert dev.name == "eth0"
        dev2 = self._dev(kernel)
        dev2.name = "eth%d"
        kernel.net.register_netdev(dev2)
        assert dev2.name == "eth1"

    def test_xmit_requires_up(self, kernel):
        dev = self._dev(kernel)
        kernel.net.register_netdev(dev)
        assert kernel.net.dev_queue_xmit(dev, SkBuff(b"x")) < 0
        kernel.net.dev_open(dev)
        dev.netif_start_queue()
        assert kernel.net.dev_queue_xmit(dev, SkBuff(b"x")) == NETDEV_TX_OK

    def test_stopped_queue_returns_busy(self, kernel):
        from repro.kernel import NETDEV_TX_BUSY

        dev = self._dev(kernel)
        kernel.net.register_netdev(dev)
        kernel.net.dev_open(dev)
        dev.netif_stop_queue()
        assert kernel.net.dev_queue_xmit(dev, SkBuff(b"x")) == NETDEV_TX_BUSY

    def test_netif_rx_counts_and_sinks(self, kernel):
        dev = self._dev(kernel)
        got = []
        kernel.net.rx_sink = lambda d, s: got.append((d, s))
        skb = SkBuff(b"hello")
        kernel.net.netif_rx(dev, skb)
        assert kernel.net.stack_rx_packets == 1
        assert got[0][1] is skb

    def test_carrier_and_wakeups(self, kernel):
        dev = self._dev(kernel)
        dev.netif_carrier_on()
        assert dev.netif_carrier_ok()
        dev.netif_stop_queue()
        dev.netif_wake_queue()
        assert dev.tx_queue_wakeups == 1


class TestSoundCore:
    def test_card_registration(self, kernel):
        from repro.kernel import SndCard

        card = SndCard(kernel, "t")
        assert kernel.sound.snd_card_register(card) == 0
        assert card in kernel.sound.cards
        kernel.sound.snd_card_free(card)
        assert card not in kernel.sound.cards

    def test_ctl_add_rejects_duplicates(self, kernel):
        from repro.kernel import SndCard

        card = SndCard(kernel, "t")
        assert kernel.sound.snd_ctl_add(card, "Master") == 0
        assert kernel.sound.snd_ctl_add(card, "Master") != 0

    def test_spinlock_library_forbids_sleeping_trigger(self, kernel):
        """The stock sound library holds a spinlock across driver ops:
        a trigger that sleeps crashes -- the paper's section 3.1.3."""
        from repro.kernel import SleepInAtomicError, SndCard

        card = SndCard(kernel, "t")
        pcm = card.new_pcm("p")

        class Ops:
            @staticmethod
            def trigger(substream, cmd):
                kernel.msleep(1)
                return 0

        pcm.playback.ops = Ops
        with pytest.raises(SleepInAtomicError):
            kernel.sound.pcm_trigger(pcm.playback, 1)

    def test_mutex_library_allows_sleeping_trigger(self, mutex_kernel):
        from repro.kernel import SndCard

        kernel = mutex_kernel
        card = SndCard(kernel, "t")
        pcm = card.new_pcm("p")

        class Ops:
            @staticmethod
            def trigger(substream, cmd):
                kernel.msleep(1)
                return 0

        pcm.playback.ops = Ops
        assert kernel.sound.pcm_trigger(pcm.playback, 1) == 0


class TestInputCore:
    def test_serio_byte_delivery_in_irq_context(self, kernel):
        port = kernel.input.new_serio_port()
        seen = []

        class Model:
            def handle_byte(self, p, byte):
                p.deliver(byte ^ 0xFF)

        port.attach_device(Model())
        port.open(lambda p, byte, flags: seen.append(
            (byte, kernel.context.in_irq())))
        port.write(0x0F)
        assert seen == [(0xF0, True)]

    def test_serio_driver_binds_every_port_and_hotplug(self, kernel):
        bound = []

        class SerioDriver:
            name = "mouse"

            def matches(self, port):
                return True

            def probe(self, k, port):
                bound.append(port.name)
                return 0

            def remove(self, k, port):
                bound.remove(port.name)

        kernel.input.new_serio_port("serio0")
        driver = SerioDriver()
        assert kernel.input.register_driver(driver) == 1
        late = kernel.input.new_serio_port("serio1")
        assert bound == ["serio0", "serio1"] and late.driver is driver
        kernel.input.remove_port(late)
        assert bound == ["serio0"]
        assert [p.name for p in kernel.input.serio_ports] == ["serio0"]
        kernel.input.unregister_driver(driver)
        assert bound == []

    def test_input_dev_event_batching(self, kernel):
        from repro.kernel.input import EV_REL, REL_X, InputDev

        dev = InputDev(kernel, "t")
        batches = []
        dev.sink = lambda evs: batches.append(evs)
        dev.input_report_rel(REL_X, 5)
        dev.input_report_rel(REL_X, 0)  # zero motion suppressed
        dev.input_sync()
        assert batches == [[(EV_REL, REL_X, 5)]]
        assert dev.events_reported == 1
