"""Fleet slots stretch every decaf poll period by ``POLL_STRETCH``.

Each polling family's nucleus re-arms its periodic poll (watchdog,
link watch, root-hub status, resync) at a fixed period on a rig; in a
fleet slot the same poll must re-arm at exactly ``POLL_STRETCH`` times
that period.  The period is read off the ``timer.arm`` tracepoint: the
deadline minus the time of arming.
"""

import pytest

from repro.family import FAMILIES
from repro.fleet.slots import DeviceSlot
from repro.kernel import make_kernel
from repro.trace import Tracer

POLLS = {"e1000": "e1000-watchdog", "8139too": "8139too-thread",
         "uhci_hcd": "uhci-rh-poll", "psmouse": "psmouse-resync"}


def _arm_periods(kernel, timer, fires):
    """Run until ``timer`` re-armed ``fires`` times after its first arm;
    the set of its arming periods."""
    tracer = Tracer(kernel, enable={"timer.arm"}).install()
    try:
        arms = []
        while len(arms) <= fires:
            kernel.run_for_ms(100)
            arms = [ev for ev in tracer.events
                    if ev["args"]["timer"] == timer]
    finally:
        tracer.uninstall()
    return {ev["args"]["at_ns"] - ev["ts"] for ev in arms}


def _rig_period(family):
    rig = FAMILIES[family].rig(decaf=True)
    rig.insmod()
    rig.supervise()
    rig.family.open(rig)
    periods = _arm_periods(rig.kernel, POLLS[family], fires=2)
    assert len(periods) == 1
    return periods.pop()


@pytest.mark.parametrize("family", sorted(POLLS))
def test_slot_polls_at_stretched_rig_period(family):
    period = _rig_period(family)
    kernel = make_kernel(nr_cpus=1, nr_irqs=16, sound_use_mutex=True)
    slot = DeviceSlot(0, True, family).attach(kernel)
    slot.probe()
    assert _arm_periods(kernel, POLLS[family], fires=1) == {
        period * DeviceSlot.POLL_STRETCH}
