"""The Decaf Drivers core: domains, XPC, marshaling, object tracking.

This package implements the paper's primary contribution:

* :mod:`repro.core.domains` -- the three execution domains (kernel,
  user-level driver library, user-level decaf driver) and the heap
  discipline between them.
* :mod:`repro.core.cstruct` -- C-layout struct definitions with the
  marshaling annotations DriverSlicer consumes.
* :mod:`repro.core.marshal` -- XDR-style selective-field marshaling with
  recursive/cyclic structure support.
* :mod:`repro.core.objtracker` -- object identity across domains.
* :mod:`repro.core.xpc` -- extension procedure call: control transfer,
  crossing counters, cost accounting.
* :mod:`repro.core.combolock` -- spinlock/semaphore hybrid locks.
* :mod:`repro.core.runtime` -- the nuclear runtime (kernel side) and
  decaf runtime (user side) shared by all decaf drivers.
"""

from .cstruct import (
    Array,
    CStruct,
    Exp,
    I8,
    I16,
    I32,
    I64,
    Null,
    Opaque,
    Ptr,
    Str,
    Struct,
    StructRegistry,
    U8,
    U16,
    U32,
    U64,
)
from .domains import DECAF, DRIVER_LIB, KERNEL, DomainManager
from .marshal import (
    FieldAccess,
    MarshalCodec,
    MarshalError,
    MarshalPlan,
    TO_KERNEL,
    TO_USER,
    TypeRegistry,
)
from .objtracker import KernelObjectTracker, UserObjectTracker
from .xpc import Xpc, XpcChannel
from .combolock import ComboLock
from .runtime import DecafRuntime, NuclearRuntime

__all__ = [
    "CStruct",
    "StructRegistry",
    "U8",
    "U16",
    "U32",
    "U64",
    "I8",
    "I16",
    "I32",
    "I64",
    "Str",
    "Array",
    "Ptr",
    "Struct",
    "Exp",
    "Opaque",
    "Null",
    "KERNEL",
    "DRIVER_LIB",
    "DECAF",
    "DomainManager",
    "FieldAccess",
    "MarshalCodec",
    "MarshalError",
    "MarshalPlan",
    "TO_KERNEL",
    "TO_USER",
    "TypeRegistry",
    "KernelObjectTracker",
    "UserObjectTracker",
    "Xpc",
    "XpcChannel",
    "ComboLock",
    "NuclearRuntime",
    "DecafRuntime",
]
