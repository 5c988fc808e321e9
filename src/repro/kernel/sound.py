"""Sound core: an ALSA-like card/PCM layer.

The structure mirrors ALSA closely enough that the ens1371 driver's shape
is preserved: a card object, a PCM with a playback substream and driver
ops (open / hw_params / prepare / trigger / pointer).  The driver reaches
its AC97 codec through its own register accessors.

One detail is load-bearing for the paper (section 3.1.3): the original
kernel sound library acquired a **spinlock** before calling into the
driver, which would forbid the driver from ever calling up to user level.
The paper's authors modified the sound library to use **mutexes**.  The
:class:`SoundCore` reproduces both behaviours behind ``use_mutex``: with
``use_mutex=False`` a decaf driver upcall under the library lock raises
``SleepInAtomicError``, demonstrating exactly why the modification was
needed; the decaf stack runs with ``use_mutex=True``.
"""

from .errors import EBUSY, EINVAL
from .locks import Mutex, SpinLock

# Trigger commands.
SNDRV_PCM_TRIGGER_STOP = 0
SNDRV_PCM_TRIGGER_START = 1

SNDRV_PCM_STATE_OPEN = "open"
SNDRV_PCM_STATE_SETUP = "setup"
SNDRV_PCM_STATE_PREPARED = "prepared"
SNDRV_PCM_STATE_RUNNING = "running"
SNDRV_PCM_STATE_CLOSED = "closed"


class PcmRuntime:
    """Hardware parameters and ring-buffer positions for one substream."""

    def __init__(self):
        self.rate = 44100
        self.channels = 2
        self.sample_bytes = 2
        self.period_bytes = 4096
        self.periods = 4
        self.dma_region = None
        self.hw_ptr = 0     # bytes consumed by hardware
        self.appl_ptr = 0   # bytes written by application
        self.periods_elapsed = 0

    @property
    def buffer_bytes(self):
        return self.period_bytes * self.periods

    def bytes_free(self):
        return self.buffer_bytes - (self.appl_ptr - self.hw_ptr)

    def frame_bytes(self):
        return self.channels * self.sample_bytes


class PcmSubstream:
    def __init__(self, pcm, direction="playback"):
        self.pcm = pcm
        self.direction = direction
        self.runtime = PcmRuntime()
        self.state = SNDRV_PCM_STATE_CLOSED
        self.private_data = None
        self.ops = None  # driver fills in: open/close/hw_params/prepare/trigger/pointer


class SndPcm:
    def __init__(self, card, name):
        self.card = card
        self.name = name
        self.playback = PcmSubstream(self, "playback")
        self.private_data = None


class SndCard:
    def __init__(self, kernel, shortname):
        self._kernel = kernel
        self.shortname = shortname
        self.registered = False
        self.pcms = []
        self.controls = []
        self.private_data = None

    def new_pcm(self, name):
        pcm = SndPcm(self, name)
        self.pcms.append(pcm)
        return pcm


class SoundCore:
    """The sound 'library' between applications and the driver."""

    def __init__(self, kernel, use_mutex=False):
        self._kernel = kernel
        self.use_mutex = use_mutex
        self._cards = []
        if use_mutex:
            self._lib_lock = Mutex(kernel, name="snd-lib-mutex")
        else:
            self._lib_lock = SpinLock(kernel, name="snd-lib-spinlock")
        # Open/close/hw_params run under a mutex in every ALSA variant;
        # it is the prepare/trigger path whose lock the paper changed.
        self._open_mutex = Mutex(kernel, name="snd-open-mutex")
        self.driver_op_calls = 0

    @property
    def cards(self):
        return list(self._cards)

    def snd_card_register(self, card):
        if card.registered:
            return -EBUSY
        card.registered = True
        self._cards.append(card)
        return 0

    def snd_card_free(self, card):
        card.registered = False
        if card in self._cards:
            self._cards.remove(card)
        return 0

    def snd_ctl_add(self, card, name):
        """Register one mixer control (ALSA's snd_ctl_add)."""
        if name in card.controls:
            return -EBUSY
        self._kernel.charge(self._kernel.costs.kmalloc_ns, "snd-ctl")
        card.controls.append(name)
        return 0

    def _call_op(self, substream, op_name, *args, lock=None):
        """Invoke a driver op under the given library lock.

        ``lock`` defaults to the prepare/trigger library lock -- a
        spinlock in the stock 2.6.18 sound library, a mutex in the
        paper's modified one.
        """
        op = getattr(substream.ops, op_name, None)
        if op is None:
            return -EINVAL
        self.driver_op_calls += 1
        with (lock if lock is not None else self._lib_lock):
            return op(substream, *args)

    # -- application-facing PCM API --------------------------------------------

    def pcm_open(self, substream):
        ret = self._call_op(substream, "open", lock=self._open_mutex)
        if ret == 0:
            substream.state = SNDRV_PCM_STATE_OPEN
        return ret

    def pcm_hw_params(self, substream, rate, channels, sample_bytes,
                      period_bytes, periods):
        rt = substream.runtime
        rt.rate = rate
        rt.channels = channels
        rt.sample_bytes = sample_bytes
        rt.period_bytes = period_bytes
        rt.periods = periods
        ret = self._call_op(substream, "hw_params", lock=self._open_mutex)
        if ret == 0:
            substream.state = SNDRV_PCM_STATE_SETUP
        return ret

    def pcm_prepare(self, substream):
        rt = substream.runtime
        rt.hw_ptr = 0
        rt.appl_ptr = 0
        rt.periods_elapsed = 0
        ret = self._call_op(substream, "prepare")
        if ret == 0:
            substream.state = SNDRV_PCM_STATE_PREPARED
        return ret

    def pcm_trigger(self, substream, cmd):
        ret = self._call_op(substream, "trigger", cmd)
        if ret == 0:
            substream.state = (
                SNDRV_PCM_STATE_RUNNING
                if cmd == SNDRV_PCM_TRIGGER_START
                else SNDRV_PCM_STATE_PREPARED
            )
        return ret

    def pcm_close(self, substream):
        ret = self._call_op(substream, "close", lock=self._open_mutex)
        substream.state = SNDRV_PCM_STATE_CLOSED
        return ret

    def pcm_write(self, substream, data):
        """Application writes the audio bytes ``data`` into the ring.

        Each accepted chunk is copied into the DMA ring at the
        application pointer, wrapping at the ring's end.  Blocks
        (advances virtual time) until space is available.  Returns
        bytes accepted.
        """
        rt = substream.runtime
        kernel = self._kernel
        data = memoryview(data)
        nbytes = len(data)
        written = 0
        quiet_waits = 0
        while written < nbytes:
            free = rt.bytes_free()
            if free <= 0:
                if substream.state != SNDRV_PCM_STATE_RUNNING:
                    return -EINVAL
                quiet_waits += 1
                if quiet_waits > 1000:
                    # Hardware stopped consuming: report a short write
                    # instead of blocking forever (xrun-ish behaviour).
                    return written
                # Wait one period for the hardware to drain.
                period_ns = int(
                    rt.period_bytes * 1e9 / (rt.rate * rt.frame_bytes())
                )
                kernel.consume(period_ns, busy=False, category="snd-wait")
                continue
            quiet_waits = 0
            chunk = min(free, nbytes - written)
            kernel.consume(
                int(chunk * kernel.costs.byte_copy_ns), busy=True, category="snd"
            )
            ring = rt.dma_region.data
            pos = rt.appl_ptr % rt.buffer_bytes
            head = min(chunk, rt.buffer_bytes - pos)
            ring[pos:pos + head] = data[written:written + head]
            ring[:chunk - head] = data[written + head:written + chunk]
            rt.appl_ptr += chunk
            written += chunk
        return written

    # -- driver-facing API -----------------------------------------------------------

    def snd_pcm_period_elapsed(self, substream):
        """Called by the driver (from its interrupt handler) per period.

        Runs in irq context, so the library mutex is NOT taken here; the
        ``pointer`` op must be irq-safe, which is why it always stays in
        the driver nucleus.
        """
        rt = substream.runtime
        rt.periods_elapsed += 1
        op = getattr(substream.ops, "pointer", None)
        ring_pos = None
        if op is not None:
            self.driver_op_calls += 1
            ptr = op(substream)
            if isinstance(ptr, int) and ptr >= 0:
                ring_pos = ptr % rt.buffer_bytes
        # The driver reports a ring offset; unwrap it against the
        # monotonically-growing application pointer.
        if ring_pos is None:
            rt.hw_ptr += rt.period_bytes
        else:
            base = rt.hw_ptr - (rt.hw_ptr % rt.buffer_bytes)
            unwrapped = base + ring_pos
            while unwrapped < rt.hw_ptr:
                unwrapped += rt.buffer_bytes
            rt.hw_ptr = min(unwrapped, rt.appl_ptr)
