"""Decaf Drivers: a full-system reproduction in Python.

Reproduces "Decaf: Moving Device Drivers to a Modern Language"
(Renzelmann & Swift, USENIX ATC 2009): the Decaf architecture (XPC,
object trackers, XDR marshaling, combolocks, runtimes), the
DriverSlicer tool, five converted drivers, and the simulated kernel
and hardware they run on.

Package map:

* :mod:`repro.kernel` -- the simulated Linux kernel substrate;
* :mod:`repro.devices` -- register-level device models;
* :mod:`repro.core` -- the Decaf architecture itself;
* :mod:`repro.slicer` -- DriverSlicer;
* :mod:`repro.drivers` -- legacy and decaf drivers;
* :mod:`repro.analysis` -- the case-study analyses;
* :mod:`repro.evolution` -- the Table 4 patch machinery;
* :mod:`repro.family` -- each driver's device/module/endpoint glue,
  written once for rigs, fleet slots and conformance;
* :mod:`repro.workloads` -- the Table 3 workloads and rigs.

Quick start::

    from repro.workloads import make_e1000_rig, netperf_send
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    print(netperf_send(rig, duration_s=1.0).row())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
