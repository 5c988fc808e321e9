"""The Linux kernel API surface drivers program against.

This is the reproduction's equivalent of the kernel headers: a facade
over the simulated kernel exposing the C function names drivers call
(``pci_enable_device``, ``request_irq``, ``netif_stop_queue``,
``snd_card_register``...).  Legacy drivers hold a module-global
``linux`` bound at ``insmod`` time, so their bodies read like the C
originals, and DriverSlicer classifies ``linux.X(...)`` calls as kernel
entry points by name.
"""

from ..kernel.errors import (
    EBUSY,
    EINVAL,
    EIO,
    ENODEV,
    ENOMEM,
    ETIMEDOUT,
)
from ..kernel.irq import IRQ_HANDLED, IRQ_NONE
from ..kernel.locks import Mutex, SpinLock
from ..kernel.memory import GFP_ATOMIC, GFP_KERNEL
from ..kernel.netdev import NETDEV_TX_BUSY, NETDEV_TX_OK, NetDevice, SkBuff
from ..kernel.sound import (
    SNDRV_PCM_TRIGGER_START,
    SNDRV_PCM_TRIGGER_STOP,
    Ac97Codec,
    SndCard,
)
from ..kernel.timers import KernelTimer, WorkItem


class LinuxApi:
    """C kernel-API names over one simulated kernel instance."""

    # Re-exported constants so driver code reads like C.
    EBUSY = EBUSY
    EINVAL = EINVAL
    EIO = EIO
    ENODEV = ENODEV
    ENOMEM = ENOMEM
    ETIMEDOUT = ETIMEDOUT
    IRQ_HANDLED = IRQ_HANDLED
    IRQ_NONE = IRQ_NONE
    NETDEV_TX_OK = NETDEV_TX_OK
    NETDEV_TX_BUSY = NETDEV_TX_BUSY
    GFP_KERNEL = GFP_KERNEL
    GFP_ATOMIC = GFP_ATOMIC
    SNDRV_PCM_TRIGGER_START = SNDRV_PCM_TRIGGER_START
    SNDRV_PCM_TRIGGER_STOP = SNDRV_PCM_TRIGGER_STOP
    HZ = 1000  # jiffies per second

    def __init__(self, kernel):
        self.kernel = kernel
        # Hot-path passthrough bound once: NAPI delivery runs once per
        # packet and the extra wrapper frame is measurable.
        self.netif_receive_skb = kernel.net.netif_receive_skb

    # -- time ------------------------------------------------------------------

    def jiffies(self):
        return int(self.kernel.clock.now_ms)

    def msleep(self, msecs):
        self.kernel.msleep(msecs)

    def mdelay(self, msecs):
        self.kernel.mdelay(msecs)

    def udelay(self, usecs):
        self.kernel.udelay(usecs)

    def msec_delay_irq(self, msecs):
        # Busy delay usable in irq context (e1000_hw idiom).
        self.kernel.udelay(msecs * 1000)

    def printk(self, message):
        self.kernel.printk(message)

    # -- memory ------------------------------------------------------------------

    def kmalloc(self, size, flags=GFP_KERNEL, owner="driver"):
        return self.kernel.memory.kmalloc(size, flags, owner)

    def kfree(self, alloc):
        self.kernel.memory.kfree(alloc)

    def dma_alloc_coherent(self, size, owner="driver"):
        return self.kernel.memory.dma_alloc_coherent(size, owner)

    def dma_free_coherent(self, region):
        self.kernel.memory.dma_free_coherent(region)

    # -- interrupts ------------------------------------------------------------------

    def request_irq(self, irq, handler, name, dev_id=None):
        return self.kernel.irq.request_irq(irq, handler, name, dev_id)

    def free_irq(self, irq, dev_id=None):
        self.kernel.irq.free_irq(irq, dev_id)

    def disable_irq(self, irq):
        self.kernel.irq.disable_irq(irq)

    def enable_irq(self, irq):
        self.kernel.irq.enable_irq(irq)

    def irq_set_affinity(self, irq, cpu):
        return self.kernel.irq.set_affinity(irq, cpu)

    def num_online_cpus(self):
        return self.kernel.nr_cpus

    # -- locking ------------------------------------------------------------------------

    def spin_lock_init(self, name="lock"):
        return SpinLock(self.kernel, name)

    def spin_lock(self, lock):
        lock.lock()

    def spin_unlock(self, lock):
        lock.unlock()

    def spin_lock_irqsave(self, lock):
        lock.lock_irqsave()

    def spin_unlock_irqrestore(self, lock):
        lock.unlock_irqrestore()

    def mutex_init(self, name="mutex"):
        return Mutex(self.kernel, name)

    def mutex_lock(self, mutex):
        mutex.lock()

    def mutex_unlock(self, mutex):
        mutex.unlock()

    # -- timers and work ----------------------------------------------------------------

    def init_timer(self, function, data=None, name="timer"):
        return KernelTimer(self.kernel, function, data, name)

    def mod_timer(self, timer, expires_ms_from_now):
        timer.mod_timer_after(int(expires_ms_from_now * 1_000_000))

    def del_timer_sync(self, timer):
        return timer.del_timer()

    def init_work(self, function, data=None, name="work"):
        return WorkItem(self.kernel, function, data, name)

    def schedule_work(self, work):
        return self.kernel.workqueue.schedule_work(work)

    def cancel_work_sync(self, work):
        return self.kernel.workqueue.cancel_work(work)

    def flush_scheduled_work(self):
        self.kernel.workqueue.flush()

    # -- port and memory-mapped I/O --------------------------------------------------------

    def inb(self, port):
        return self.kernel.io.inb(port)

    def inw(self, port):
        return self.kernel.io.inw(port)

    def inl(self, port):
        return self.kernel.io.inl(port)

    def outb(self, value, port):
        self.kernel.io.outb(value, port)

    def outw(self, value, port):
        self.kernel.io.outw(value, port)

    def outl(self, value, port):
        self.kernel.io.outl(value, port)

    def readb(self, addr):
        return self.kernel.io.readb(addr)

    def readw(self, addr):
        return self.kernel.io.readw(addr)

    def readl(self, addr):
        return self.kernel.io.readl(addr)

    def writeb(self, value, addr):
        self.kernel.io.writeb(value, addr)

    def writew(self, value, addr):
        self.kernel.io.writew(value, addr)

    def writel(self, value, addr):
        self.kernel.io.writel(value, addr)

    # -- PCI ----------------------------------------------------------------------------------

    def pci_enable_device(self, pdev):
        return self.kernel.pci.enable_device(pdev)

    def pci_disable_device(self, pdev):
        self.kernel.pci.disable_device(pdev)

    def pci_set_master(self, pdev):
        self.kernel.pci.set_master(pdev)

    def pci_request_regions(self, pdev, name):
        return self.kernel.pci.request_regions(pdev, name)

    def pci_release_regions(self, pdev):
        self.kernel.pci.release_regions(pdev)

    def pci_resource_start(self, pdev, bar):
        return pdev.resource_start(bar)

    def pci_resource_len(self, pdev, bar):
        return pdev.resource_len(bar)

    def pci_read_config_word(self, pdev, offset):
        return self.kernel.pci.read_config_word(pdev, offset)

    def pci_write_config_word(self, pdev, offset, value):
        self.kernel.pci.write_config_word(pdev, offset, value)

    def pci_read_config_dword(self, pdev, offset):
        return self.kernel.pci.read_config_dword(pdev, offset)

    def pci_write_config_dword(self, pdev, offset, value):
        self.kernel.pci.write_config_dword(pdev, offset, value)

    # -- network --------------------------------------------------------------------------------

    def alloc_etherdev(self, name="eth%d"):
        return NetDevice(self.kernel, name)

    def register_netdev(self, dev):
        return self.kernel.net.register_netdev(dev)

    def unregister_netdev(self, dev):
        self.kernel.net.unregister_netdev(dev)

    def netif_rx(self, dev, skb):
        return self.kernel.net.netif_rx(dev, skb)

    def netif_start_queue(self, dev):
        dev.netif_start_queue()

    def netif_stop_queue(self, dev):
        dev.netif_stop_queue()

    def netif_wake_queue(self, dev):
        dev.netif_wake_queue()

    def netif_queue_stopped(self, dev):
        return dev.netif_queue_stopped()

    def netif_carrier_on(self, dev):
        dev.netif_carrier_on()

    def netif_carrier_off(self, dev):
        dev.netif_carrier_off()

    def netif_carrier_ok(self, dev):
        return dev.netif_carrier_ok()

    def netif_running(self, dev):
        return dev.netif_running()

    def alloc_skb(self, size):
        return SkBuff(bytes(size))

    def skb_from_data(self, data):
        return SkBuff(data)

    # -- NAPI -------------------------------------------------------------------------------------

    def netif_napi_add(self, dev, poll, weight=64, irq=None, cpu=None):
        return self.kernel.net.napi.register(
            dev, poll, weight=weight,
            irq=dev.irq if irq is None else irq, cpu=cpu)

    def napi_enable(self, napi):
        self.kernel.net.napi.enable(napi)

    def napi_disable(self, napi):
        self.kernel.net.napi.disable(napi)

    def napi_schedule(self, napi):
        return self.kernel.net.napi.schedule(napi)

    def napi_complete(self, napi):
        self.kernel.net.napi.complete(napi)

    def netif_receive_skb(self, dev, skb):
        return self.kernel.net.netif_receive_skb(dev, skb)

    def napi_alloc_skb(self, size):
        """Zero-copy rx skb backed by the pooled DMA arena."""
        net = self.kernel.net
        if self.kernel.nr_cpus > 1:
            # SMP: the shard depends on which CPU's softirq is polling,
            # so dispatch per call (recycle-to-owner still holds via
            # the skb's back-pointer to its arena).
            self.napi_alloc_skb = net.alloc_rx_skb
            return net.alloc_rx_skb(size)
        pool = net.get_skb_pool()
        # Rebind to the pool's allocator so later calls on this instance
        # go straight to it -- this runs once per packet on the rx path.
        self.napi_alloc_skb = pool.alloc
        return pool.alloc(size)

    # -- sound ------------------------------------------------------------------------------------

    def snd_card_new(self, shortname):
        return SndCard(self.kernel, shortname)

    def snd_card_register(self, card):
        return self.kernel.sound.snd_card_register(card)

    def snd_card_free(self, card):
        return self.kernel.sound.snd_card_free(card)

    def snd_pcm_period_elapsed(self, substream):
        self.kernel.sound.snd_pcm_period_elapsed(substream)

    def snd_ctl_add(self, card, name):
        return self.kernel.sound.snd_ctl_add(card, name)

    def snd_ac97_codec_new(self, read_reg, write_reg):
        return Ac97Codec(read_reg, write_reg)

    # -- USB ----------------------------------------------------------------------------------------

    def usb_register_hcd(self, hcd):
        self.kernel.usb.register_hcd(hcd)

    def usb_unregister_hcd(self, hcd):
        self.kernel.usb.unregister_hcd(hcd)

    def usb_connect_device(self, device, hcd=None):
        return self.kernel.usb.connect_device(device, hcd=hcd)

    def usb_disconnect_device(self, device):
        self.kernel.usb.disconnect_device(device)

    def usb_giveback_urb(self, urb, status, actual_length):
        self.kernel.usb._giveback_urb(urb, status, actual_length)

    # -- input ----------------------------------------------------------------------------------------

    def input_allocate_device(self, name):
        from ..kernel.input import InputDev

        return InputDev(self.kernel, name)

    def input_register_device(self, dev):
        return self.kernel.input.register_device(dev)

    def input_unregister_device(self, dev):
        self.kernel.input.unregister_device(dev)
