"""A dead user half: remove reclaims its kernel side, restarts start one.

When the user half has failed and nothing will restart it -- no
supervisor, or one that gave up -- it cannot run its own remove or
close.  The nucleus then silences the device with the same
``fault_quiesce`` recovery runs and releases what probe registered,
kernel side only, so unloading leaks nothing and no interrupt outlives
the references it needs.  Recovery starts each new user half exactly
the way probe started the first.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
)

ALL_RIGS = [
    ("8139too", make_8139too_rig),
    ("e1000", make_e1000_rig),
    ("ens1371", make_ens1371_rig),
    ("uhci_hcd", make_uhci_rig),
    ("psmouse", make_psmouse_rig),
]
IDS = [name for name, _ in ALL_RIGS]


def _kill(rig):
    """Mark the channel FAILED, as a contained fault does."""
    channel = rig.channel
    channel.failed = True
    channel.failure = (RuntimeError("user half died"), "test",
                       rig.kernel.clock.now_ns)


def _assert_released(rig):
    kernel = rig.kernel
    assert kernel.net.devices == []
    assert kernel.sound.cards == []
    assert kernel.usb.devices == []
    assert kernel.usb.hcd is None
    assert kernel.input.devices == []
    irq = getattr(rig.bus_device, "irq", None)
    if irq is not None:
        assert kernel.irq._line(irq).handler is None
        assert rig.bus_device._regions == []


@pytest.mark.parametrize("name,make_rig", ALL_RIGS, ids=IDS)
def test_unload_after_the_user_half_died_reclaims_the_kernel_side(
        name, make_rig):
    rig = make_rig(decaf=True)
    rig.insmod()
    _kill(rig)
    rig.rmmod(check_leaks=True)  # raises MemoryLeakError on leaks
    _assert_released(rig)


@pytest.mark.parametrize("make_rig,callsite", [
    (make_8139too_rig, "thread"),
    (make_e1000_rig, "watchdog"),
], ids=["8139too", "e1000"])
def test_unload_after_the_supervisor_gave_up(make_rig, callsite):
    rig = make_rig(decaf=True)
    rig.insmod()
    rig.supervise(max_recoveries=0)
    dev = rig.netdev()
    assert rig.kernel.net.dev_open(dev) == 0
    rig.inject_faults(FaultPlan([FaultSpec("xpc_raise", callsite=callsite)]))
    rig.kernel.run_for_ms(4500)
    assert rig.supervisor.gave_up and rig.channel.failed
    assert rig.kernel.net.dev_close(dev) < 0  # the dead half cannot close
    rig.rmmod(check_leaks=True)
    _assert_released(rig)


@pytest.mark.parametrize("supervised", [False, True],
                         ids=["unsupervised", "gave-up"])
def test_closing_a_dead_ens1371_silences_dac2(supervised):
    rig = make_ens1371_rig(decaf=True)
    rig.insmod()
    if supervised:
        rig.supervise(max_recoveries=0)
    sound, substream = rig.kernel.sound, rig.endpoint
    assert sound.pcm_open(substream) == 0
    assert sound.pcm_hw_params(substream, 44100, 2, 2, 4096, 4) == 0
    assert sound.pcm_prepare(substream) == 0
    assert sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_START) == 0
    rig.kernel.run_for_ms(30)
    rig.inject_faults(FaultPlan([
        FaultSpec("xpc_raise", callsite="trigger")]))
    assert sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_STOP) == -5
    sound.pcm_close(substream)
    interrupts = rig.device.period_interrupts
    rig.kernel.run_for_ms(50)  # DAC2 left running would fault here
    assert rig.device.period_interrupts == interrupts
    rig.rmmod(check_leaks=True)
    _assert_released(rig)


def test_a_supervisor_that_gave_up_has_no_recovery_pending():
    rig = make_ens1371_rig(decaf=True)
    rig.insmod()
    supervisor = rig.supervise(max_recoveries=0)
    sound, substream = rig.kernel.sound, rig.endpoint
    assert sound.pcm_open(substream) == 0
    assert sound.pcm_hw_params(substream, 44100, 2, 2, 4096, 4) == 0
    assert sound.pcm_prepare(substream) == 0
    assert sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_START) == 0
    rig.inject_faults(FaultPlan([
        FaultSpec("xpc_raise", callsite="trigger")]))
    assert sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_STOP) == -5
    # The fault queued the recovery work item; the sync caller's own
    # recover() already gave up, so nothing is pending from here on.
    assert supervisor.gave_up
    assert not supervisor.recovery_pending()
    rig.kernel.run_for_ms(1)
    assert not supervisor.recovery_pending()
    sound.pcm_close(substream)
    rig.rmmod(check_leaks=True)
    _assert_released(rig)


@pytest.mark.parametrize("name,make_rig", ALL_RIGS, ids=IDS)
def test_recovery_starts_the_user_half_the_way_probe_does(name, make_rig):
    rig = make_rig(decaf=True)
    rig.insmod()
    supervisor = rig.supervise()
    for _ in range(2):
        _kill(rig)
        assert supervisor.recover()
    kernel = rig.kernel
    assert supervisor.recoveries == 2
    assert (kernel.kstat.snapshot()["kernel.cpu0.jvm_ns"]
            == 3 * kernel.costs.jvm_startup_ns)
    nucleus = rig.nucleus
    hook = nucleus.channel.user_tracker.release_hook
    assert hook.__self__ is nucleus.decaf_rt
    assert nucleus.decaf.rt is nucleus.decaf_rt
    rig.rmmod(check_leaks=True)
