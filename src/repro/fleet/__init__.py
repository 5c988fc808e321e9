"""repro.fleet: hotplug harness for thousands of devices in one kernel.

Every workload before this package drove *one* device through one
driver.  The fleet harness probes N mixed device instances (both NICs,
USB, sound, mouse; legacy and decaf) concurrently under a single
``make_kernel(nr_cpus=...)``, drives them with interleaved traffic and
probe/remove/re-probe churn over the kernel event queue, and injects
fleet-wide faults so the recovery supervisors restart drivers under
load -- the simulated analogue of one host multiplexing thousands of
tenants.

Layout:

* :mod:`repro.fleet.slots` -- device slots: a :mod:`repro.family`
  instance per slot with identity-filtered bus glue and traffic.  The
  drivers keep per-device state on the device, so every slot's module
  binds the one shared driver module.
* :mod:`repro.fleet.harness` -- the churn engine, fault injection and
  metrics (events/s, bytes/device, recovery latency percentiles).

Run ``python -m repro.fleet --help`` for the CLI.
"""

from .harness import FleetHarness, FleetSpec, fleet_workload

__all__ = ["FleetHarness", "FleetSpec", "fleet_workload"]
