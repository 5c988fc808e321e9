"""Watchdog -> supervisor integration: a wedged decaf e1000 TX queue is
detected by the hung-task watchdog, the flight recorder dumps, and the
PR-4 supervisor restarts the driver -- deterministically across seeds.

The wedge is a ``reg_wedge`` fault on the e1000 TDT register: doorbell
writes vanish, so the device never sees new descriptors, TX completions
stop, the ring fills, and ``netif_stop_queue`` parks the queue forever.
That is the classic lost-interrupt/wedged-device signature the hung-TX
watchdog exists for.
"""

import json
import os

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.fleet.slots import DeviceSlot
from repro.health import HealthPlane, postmortem
from repro.kernel import make_kernel
from repro.workloads import make_8139too_rig, make_e1000_rig, netperf_send

# e1000 BAR0 at 0xF0000000; TDT (TX descriptor tail doorbell) at 0x3818.
E1000_TDT = 0xF0000000 + 0x03818

HEALTH = {"hung_task_ns": 20_000_000,    # 20 virtual ms: fast test
          "period_ns": 5_000_000}


def _run_wedged(seed, dump_dir, duration_s=0.5):
    """One wedged send run; returns (result, rig)."""
    rig = make_e1000_rig(decaf=True,
                         health=dict(HEALTH, dump_dir=str(dump_dir)))
    kernel = rig.kernel
    rig.insmod()
    rig.supervise()
    injector = FaultInjector(
        rig, FaultPlan([FaultSpec("reg_wedge", addr=E1000_TDT)]))
    # Arm mid-send-window (the window opens after the ~1.2 s virtual
    # JVM startup insmod just paid); the seed varies the wedge moment.
    delay_ms = 150 + seed * 37
    kernel.events.schedule_after(delay_ms * 1_000_000, injector.arm,
                                 name="wedge-arm")
    # Un-wedge when the watchdog fires, as a repaired device would
    # start taking doorbells again -- recovery must then succeed.
    kernel.health.on_watchdog.append(
        lambda ev: injector.disarm() if ev.kind == "hung_task" else None)
    result = netperf_send(rig, duration_s=duration_s)
    return result, rig


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wedged_tx_queue_detected_and_recovered(seed, tmp_path):
    result, rig = _run_wedged(seed, tmp_path)
    health = rig.kernel.health
    supervisor = rig.supervisor

    # Exactly one hung-task episode: detected once, not a fire storm,
    # and no spurious soft-lockup/xpc fires ride along.
    assert health.watchdog.fires["hung_task"] == 1
    assert health.watchdog.fires["soft_lockup"] == 0
    (event,) = [e for e in health.watchdog.events if e.kind == "hung_task"]
    assert event.target == rig.netdev().name
    assert event.detail["stalled_ns"] >= HEALTH["hung_task_ns"]

    # The supervisor recovered the driver exactly once and kept going.
    assert supervisor.wedges == 1
    assert supervisor.faults_seen == 1
    assert supervisor.recoveries == 1
    assert not supervisor.gave_up
    assert any("WedgedDriverError" in msg
               for _t, _l, msg in rig.kernel.dmesg(level="err"))

    # Traffic resumed after the restart: the run moved real packets
    # despite losing the wedge window and the restart outage.
    assert result.packets > 1000
    assert result.kstat["recovery.recoveries"] == 1

    # The WorkloadResult's kstat window carries the health counters.
    assert result.kstat["health.watchdog_fires.hung_task"] == 1
    assert result.kstat["health.dumps_written"] >= 1

    # A flight-recorder dump landed on disk and postmortem parses it.
    dumps = sorted(p for p in os.listdir(tmp_path) if p.endswith(".json"))
    assert len(dumps) == 1
    path = os.path.join(tmp_path, dumps[0])
    with open(path) as fh:
        report = json.load(fh)
    assert report["reason"] == "watchdog:hung_task"
    assert report["detail"]["target"] == rig.netdev().name
    # The ring holds the story leading up to the fire.
    names = [entry["name"] for entry in report["ring"]]
    assert "health.watchdog" in names
    assert postmortem.main([path]) == 0


def test_recovery_is_deterministic(tmp_path):
    """Same seed, same virtual universe: two runs agree exactly."""
    a, rig_a = _run_wedged(2, tmp_path / "a")
    b, rig_b = _run_wedged(2, tmp_path / "b")
    assert a.packets == b.packets
    assert a.bytes_moved == b.bytes_moved
    assert rig_a.kernel.clock.now_ns == rig_b.kernel.clock.now_ns
    ev_a = [e.as_dict() for e in rig_a.kernel.health.watchdog.events]
    ev_b = [e.as_dict() for e in rig_b.kernel.health.watchdog.events]
    assert ev_a == ev_b


def test_seeds_wedge_at_different_times(tmp_path):
    """The three seeds exercise genuinely different wedge moments."""
    packets = set()
    for seed in (1, 2, 3):
        result, _rig = _run_wedged(seed, tmp_path / str(seed))
        packets.add(result.packets)
    assert len(packets) == 3


def test_wedge_restarts_only_the_owning_driver():
    """Two supervised NICs on one kernel: a stalled e1000 TX queue
    restarts the e1000 driver and leaves the 8139too alone."""
    kernel = make_kernel(nr_irqs=16)
    HealthPlane(kernel, **HEALTH).install()
    slots = [DeviceSlot(index, True, family).attach(kernel)
             for index, family in enumerate(("e1000", "8139too"))]
    for slot in slots:
        slot.probe()
    kernel.run_for_ms(60)
    e1000, rtl8139 = slots
    e1000.endpoint.netif_stop_queue()
    kernel.run_for_ms(300)
    assert (e1000.supervisor.wedges, e1000.supervisor.recoveries) == (1, 1)
    assert (rtl8139.supervisor.wedges,
            rtl8139.supervisor.recoveries) == (0, 0)
    assert kernel.health.watchdog.fires["hung_task"] == 1


@pytest.mark.parametrize("make_rig,callsite", [
    (make_e1000_rig, "watchdog"),
    (make_8139too_rig, "thread"),
])
def test_recovery_is_not_a_hung_task(make_rig, callsite):
    """A contained fault's restart parks the TX queue for the JVM
    startup it pays; the hung-task check skips a netdev whose
    supervisor has that recovery pending, so the only dump is the
    boundary fault's."""
    rig = make_rig(decaf=True, health=True)
    rig.insmod()
    rig.supervise()
    rig.inject_faults(FaultPlan([FaultSpec("xpc_raise", callsite=callsite)]))
    netperf_send(rig, duration_s=2.0)
    health = rig.kernel.health
    assert (rig.supervisor.recoveries, rig.supervisor.wedges) == (1, 0)
    assert health.watchdog.fires["hung_task"] == 0
    assert [dump["reason"] for dump in health.dumps] == ["boundary-fault"]
