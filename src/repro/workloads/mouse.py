"""move-and-click: 30 seconds of continuous mouse input (Table 3).

Moves the mouse at its sample rate (100 Hz) with a click every second;
the driver decodes each packet in interrupt context.  Bandwidth is too
low to measure (as the paper notes), so the result reports CPU
utilization and event counts.
"""

from ..trace import begin_trace, finish_trace
from .result import rig_mark, rig_result


def move_and_click(rig, duration_s=30.0, trace=None):
    kernel = rig.kernel
    session = begin_trace(kernel, trace)
    mouse = rig.device
    input_devs = kernel.input.devices
    if not input_devs:
        raise RuntimeError("no input device registered")
    input_dev = input_devs[0]

    events = {"count": 0}
    input_dev.sink = lambda evs: events.__setitem__(
        "count", events["count"] + len(evs)
    )

    mark = rig_mark(rig)
    kernel.cpu.start_window()
    start_ns = kernel.clock.now_ns
    sample_interval_ns = int(1e9 / max(1, mouse.sample_rate))

    t = 0
    packets = 0
    clicks = 0
    lost = 0
    while t < duration_s * 1e9:
        buttons = 1 if (t // 1_000_000_000) % 2 == 0 else 0
        if buttons and clicks * 1_000_000_000 <= t:
            clicks += 1
        if mouse.move(3, -1, buttons=buttons):
            packets += 1
        elif rig.supervisor is not None:
            # The device drops samples while reporting is off -- i.e.
            # during a supervised restart, until the replayed connect
            # re-enables it.
            lost += 1
        kernel.run_for_ns(sample_interval_ns)
        t += sample_interval_ns

    elapsed_s = (kernel.clock.now_ns - start_ns) / 1e9
    result = rig_result(
        rig, "move-and-click", mark, lost=lost,
        duration_s=elapsed_s,
        packets=packets,
        cpu_utilization=kernel.cpu.utilization(),
        extra={"input_events": events["count"], "clicks": clicks},
    )
    finish_trace(session, result)
    return result
