"""The ``kernel.dispatch_depth_max`` gauge: how deep event dispatches nest.

A handler that advances the clock (``msleep``, ``consume``) dispatches
every event that falls due meanwhile, one level deeper.  The gauge
records the deepest such nesting; a kernel whose dispatches never nest
reads 0.
"""

from repro.kernel import KernelTimer, WorkItem


def _depth(kernel):
    return kernel.kstat.snapshot()["kernel.dispatch_depth_max"]


def test_unnested_dispatches_read_zero(kernel):
    ran = []
    timer = KernelTimer(kernel, ran.append, name="flat")
    timer.mod_timer_after(1_000_000)
    kernel.run_for_ms(2)
    assert ran and _depth(kernel) == 0


def test_a_timer_body_that_sleeps_nests_a_dispatch(kernel):
    """A timer deferred to a work item (the nuclear runtime's poll
    shape) whose body sleeps while another timer falls due."""
    fired = []
    other = KernelTimer(kernel, fired.append, name="other")

    def body(_data):
        other.mod_timer_after(1_000_000)
        kernel.msleep(5)

    work = WorkItem(kernel, body, name="sleeper-work")
    timer = KernelTimer(
        kernel, lambda _data: kernel.workqueue.schedule_work(work),
        name="sleeper")
    timer.mod_timer_after(1_000_000)
    kernel.run_for_ms(10)
    assert fired
    assert _depth(kernel) >= 2
