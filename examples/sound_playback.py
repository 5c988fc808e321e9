#!/usr/bin/env python3
"""MP3 playback through the decaf sound driver (the paper's mpg123 run).

Demonstrates the sound-specific parts of the Decaf story:

* the decaf ens1371 refuses to load on a stock kernel whose sound
  library holds spinlocks across driver ops (section 3.1.3), and runs
  on the mutex-based library;
* during playback, the decaf driver is invoked only at start/stop (the
  paper counted 15 calls); the per-period interrupt path stays in the
  driver nucleus.

Run:  python examples/sound_playback.py
"""

from repro.devices import Ens1371Device
from repro.family import FAMILIES
from repro.kernel import make_kernel
from repro.workloads import make_ens1371_rig, mpg123_play


def main():
    print("1) Decaf sound driver on the STOCK (spinlock) sound library:")
    kernel = make_kernel(sound_use_mutex=False)
    card = Ens1371Device(kernel)
    kernel.pci.add_function(card.pci)
    ret = kernel.modules.insmod(FAMILIES["ens1371"].module(decaf=True))
    print("   insmod -> %d (refused; upcalls under a spinlock would "
          "sleep in atomic context)" % ret)
    for _t, message in kernel.log_lines:
        print("   printk: %s" % message)

    print("\n2) On the paper's mutex-based sound library:")
    rig = make_ens1371_rig(decaf=True)
    rig.insmod()
    print("   insmod ok, init latency %.2fs, %d crossings"
          % (rig.init_latency_ns / 1e9, rig.crossings()))

    result = mpg123_play(rig, duration_s=10.0)
    print("\n   played 10 s of 256 Kbps MP3 (44.1 kHz stereo PCM)")
    print("   periods elapsed:        %d" % result.extra["periods_elapsed"])
    print("   device interrupts:      %d" % result.extra["device_interrupts"])
    print("   decaf-driver calls:     %d  (paper: 15, all at start/end)"
          % result.row()["decaf_invocations"])
    print("   CPU utilization:        %.2f%%  (paper: 0.1%%)"
          % (100 * result.cpu_utilization))
    print("   mixer controls:         %d registered via one downcall each"
          % len(rig.kernel.sound.cards[0].controls))


if __name__ == "__main__":
    main()
