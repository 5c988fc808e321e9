"""Re-armable events: one ``Event`` per recurring source.

A :class:`~repro.kernel.events.RecurringEvent` pushes its one event
again after each firing, drawing the seq at arm time.  These tests pin
that it is indistinguishable from allocating a fresh event per firing
(same dispatch log, clock and seq counter), that it never has two
firings queued, and that the sources moved onto it -- the receive
datapath and the nucleus's deferred poll -- allocate no event in steady
state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import make_kernel
from repro.kernel import events as events_mod
from repro.kernel.context import PROCESS, SOFTIRQ
from repro.kernel.errors import SimulationError
from repro.kernel.locks import SpinLock
from repro.kernel.timers import WorkItem
from repro.workloads import make_e1000_rig, netperf_recv


# -- (a) the handle against a per-firing oracle ------------------------------


class _HandleSource:
    """A recurring source on one re-armed event."""

    def __init__(self, kernel, log, name, period, absolute, limit, context):
        self._kernel = kernel
        self._log = log
        self.name = name
        self.period = period
        self.absolute = absolute
        self.limit = limit
        self.fired = 0
        self._ev = kernel.events.recurring(self.fire, context=context,
                                           name=name)

    def arm(self):
        if self.absolute:
            self._ev.arm_at(self._kernel.clock.now_ns + self.period)
        else:
            self._ev.arm_after(self.period)

    def cancel(self):
        self._ev.cancel()

    @property
    def pending(self):
        return self._ev.pending

    def fire(self):
        self._log.append((self._kernel.clock.now_ns, self.name))
        self.fired += 1
        if self.fired < self.limit:
            self.arm()


class _OracleSource(_HandleSource):
    """The same source allocating one event per firing."""

    def __init__(self, kernel, log, name, period, absolute, limit, context):
        self._kernel = kernel
        self._log = log
        self.name = name
        self.period = period
        self.absolute = absolute
        self.limit = limit
        self.fired = 0
        self._context = context
        self._event = None

    def arm(self):
        events = self._kernel.events
        if self.absolute:
            self._event = events.schedule_at(
                self._kernel.clock.now_ns + self.period, self.fire,
                context=self._context, name=self.name)
        else:
            self._event = events.schedule_after(
                self.period, self.fire, context=self._context,
                name=self.name)

    def cancel(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def pending(self):
        return self._event is not None

    def fire(self):
        self._event = None
        super().fire()


sources = st.lists(st.tuples(
    st.integers(0, 6),                      # period (ns): ties are common
    st.booleans(),                          # arm_at vs arm_after
    st.integers(1, 8),                      # firings before it stops
    st.sampled_from([PROCESS, SOFTIRQ]),
), min_size=1, max_size=5)

steps = st.lists(st.one_of(
    st.tuples(st.just("run"), st.integers(0, 12)),
    st.tuples(st.just("cancel"), st.integers(0, 4)),
    st.tuples(st.just("rearm"), st.integers(0, 4)),
    st.tuples(st.just("oneshot"), st.integers(0, 6)),
), max_size=40)


def _play(source_cls, spec, script):
    kernel = make_kernel()
    log = []
    made = [source_cls(kernel, log, "src%d" % i, period, absolute, limit,
                       context)
            for i, (period, absolute, limit, context) in enumerate(spec)]
    for source in made:
        source.arm()
    for n, (op, arg) in enumerate(script):
        if op == "run":
            kernel.run_for_ns(arg)
        elif op == "oneshot":
            name = "oneshot%d" % n
            kernel.events.schedule_after(
                arg, lambda name=name: log.append(
                    (kernel.clock.now_ns, name)), name=name)
        else:
            source = made[arg % len(made)]
            if op == "cancel":
                source.cancel()
            else:
                # mod_timer semantics: a queued firing moves.
                source.cancel()
                source.fired = 0
                source.arm()
    kernel.run_for_ns(200)
    return log, kernel.clock.now_ns, next(kernel.events._seq)


@settings(max_examples=200, deadline=None)
@given(spec=sources, script=steps)
def test_rearmed_sources_match_per_firing_oracle(spec, script):
    assert _play(_HandleSource, spec, script) == \
        _play(_OracleSource, spec, script)


# -- (b) at most one firing queued -------------------------------------------


def test_arming_a_queued_handle_raises(kernel):
    handle = kernel.events.recurring(lambda: None, name="once")
    handle.arm_after(10)
    with pytest.raises(SimulationError):
        handle.arm_after(5)
    with pytest.raises(SimulationError):
        handle.arm_at(50)
    kernel.run_for_ns(10)
    assert not handle.pending
    handle.arm_at(20)       # fired: the same event goes back on the heap
    assert handle.pending


def test_cancel_then_arm_fires_once_and_the_tombstone_never_runs(kernel):
    fired = []
    handle = kernel.events.recurring(
        lambda: fired.append(kernel.clock.now_ns), name="moved")
    handle.arm_after(100)
    tombstone = handle.event
    assert handle.cancel() is True
    assert handle.cancel() is False
    handle.arm_after(300)
    assert handle.event is not tombstone
    assert tombstone.cancelled and tombstone.callback is None
    dispatched = kernel.events_dispatched
    kernel.run_for_ns(1_000)
    assert fired == [300]
    assert kernel.events_dispatched == dispatched + 1


def test_a_fired_handle_reuses_its_event(kernel):
    handle = kernel.events.recurring(lambda: None, name="tick")
    handle.arm_after(1)
    first = handle.event
    for _ in range(5):
        kernel.run_for_ns(1)
        handle.arm_after(1)
    assert handle.event is first


def test_work_parked_while_atomic_counts_as_pending(kernel):
    ran = []
    work = WorkItem(kernel, lambda _d: ran.append(kernel.clock.now_ns),
                    name="parked")
    assert kernel.workqueue.schedule_work(work, delay_ns=1_000)
    lock = SpinLock(kernel, "rearm-parked")
    lock.lock()
    kernel.consume(5_000)
    assert len(kernel._parked_process_events) == 1
    assert ran == [] and work.pending
    assert kernel.workqueue.schedule_work(work) is False
    with pytest.raises(SimulationError):
        work._event.arm_after(0)
    lock.unlock()
    kernel.run_for_ns(1)
    assert len(ran) == 1 and not work.pending
    assert kernel.workqueue.schedule_work(work) is True


# -- (c) the receive datapath allocates no event in steady state -------------


WARMUP_NS = 10_000_000
WINDOW_NS = 50_000_000


def test_steady_receive_constructs_no_event(monkeypatch):
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    kernel = rig.kernel
    made = []

    class CountedEvent(events_mod.Event):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append((kernel.clock.now_ns, self.name))

    monkeypatch.setattr(events_mod, "Event", CountedEvent)
    netperf_recv(rig, duration_s=(WARMUP_NS + WINDOW_NS) / 1e9)
    start_ns = min(t for t, name in made if name == "trafficgen")
    steady = [name for t, name in made
              if start_ns + WARMUP_NS <= t < start_ns + WARMUP_NS + WINDOW_NS]
    assert steady == []


# -- (d) the nucleus's deferred poll ------------------------------------------


def test_watchdog_poll_fires_on_one_event():
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    kernel = rig.kernel
    kernel.net.dev_open(rig.netdev())
    poll = rig.nucleus.poll
    assert poll.timer.pending
    timer_ev = poll.timer._event.event
    period_ns = poll.period_ns * rig.nucleus.nuclear.poll_stretch
    fired, executed = poll.timer.fired, poll.work.executed
    work_evs = set()
    # Each poll re-arms one period after its body ran, so polls drift
    # a little later than whole periods.
    while poll.timer.fired - fired < 5:
        kernel.run_for_ns(period_ns // 8)
        assert poll.timer._event.event is timer_ev
        if poll.work._event.event is not None:
            work_evs.add(poll.work._event.event)
    assert poll.work.executed - executed == 5
    assert len(work_evs) == 1

    # del_timer + mod_timer: one firing, never the cancelled one.
    fired = poll.timer.fired
    poll.timer.del_timer()
    poll.timer.mod_timer_after(period_ns // 2)
    assert poll.timer._event.event is not timer_ev
    kernel.run_for_ns(period_ns - 1)
    assert poll.timer.fired - fired == 1
