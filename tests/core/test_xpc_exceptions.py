"""XPC exception safety: a raising callee must not corrupt state."""

import pytest

from repro.core import CStruct, DomainManager, U32, Xpc, XpcChannel
from repro.core.domains import DECAF, KERNEL
from repro.drivers.decaf.exceptions import (
    DriverException,
    HardwareException,
    errno_of,
)
from repro.drivers.decaf.plumbing import (
    RECORD,
    DecafPlumbing,
    unrecord,
    xpc_stubs,
)
from repro.core.marshal import MarshalPlan


class x_state(CStruct):
    FIELDS = [("v", U32)]


class xs_stub_dev(CStruct):
    FIELDS = [("v", U32), ("mode", U32)]


class _StubDecaf:
    """User half: reaches the kernel only through ``down``."""

    def __init__(self, down):
        self.down = down

    def open(self, dev):
        dev.v += 1
        return 0

    def close(self, dev):
        return 0

    def set_mode(self, dev, mode):
        dev.mode = mode
        return 0

    def poke(self, dev):
        raise HardwareException("dead device", errno=19)


@xpc_stubs
class _StubNucleus:
    UPCALLS = {
        "open": RECORD,
        "close": unrecord("open"),
        "set_mode": RECORD,
        "poke": RECORD,
    }

    def __init__(self, kernel):
        self.calls = []
        self.plumbing = DecafPlumbing(kernel, "stubtest", plan=MarshalPlan(),
                                      nucleus=self)
        self.decaf = _StubDecaf(self.plumbing.down)
        self.dev = xs_stub_dev(v=1)
        self.plumbing.channel.kernel_tracker.register(self.dev)

    def k_bump(self, dev, step=1, tag=None):
        self.calls.append((dev, step, tag))
        dev.v += step
        return 0

    def k_scalars(self, a, b):
        self.calls.append((a, b))
        return a + b

    def k_fail(self):
        return -12  # -ENOMEM

    def k_pair(self):
        return -1, [0xFA]

    def helper(self):
        return 0


class TestGenericStubs:
    """``plumbing.down``/``plumbing.up``: one generic stub per direction."""

    def test_down_exposes_exactly_the_kernel_entry_points(self):
        names = {n for n in vars(_StubNucleus.Down) if not n.startswith("_")}
        assert names == {"k_bump", "k_scalars", "k_fail", "k_pair"}
        assert set(_StubNucleus.Up.__dict__) >= set(_StubNucleus.UPCALLS)

    def test_struct_argument_marshals_and_crosses_once(self, kernel):
        nucleus = _StubNucleus(kernel)
        channel = nucleus.plumbing.channel
        user_twin = channel.upcall(lambda twin: twin,
                                   args=[(nucleus.dev, xs_stub_dev)])
        crossings = channel.xpc.kernel_user_crossings
        downcalls = channel.xpc.downcalls
        user_twin.v = 5
        assert nucleus.plumbing.down.k_bump(user_twin) == 0
        assert channel.xpc.downcalls == downcalls + 1
        assert channel.xpc.kernel_user_crossings == crossings + 1
        # The kernel side got its own object, with the user's write.
        (dev, step, tag), = nucleus.calls
        assert dev is nucleus.dev and (step, tag) == (1, None)
        assert nucleus.dev.v == 6
        # ... and the kernel's write came back to the user twin.
        assert user_twin.v == 6

    def test_scalars_pass_as_extra(self, kernel):
        nucleus = _StubNucleus(kernel)
        down = nucleus.plumbing.down
        user_twin = nucleus.plumbing.channel.upcall(
            lambda twin: twin, args=[(nucleus.dev, xs_stub_dev)])
        assert down.k_bump(user_twin, 3, "x") == 0
        assert down.k_scalars(2, 5) == 7
        assert nucleus.calls == [(nucleus.dev, 3, "x"), (2, 5)]

    def test_negative_errno_raises_the_callers_class(self, kernel):
        down = _StubNucleus(kernel).plumbing.down
        with pytest.raises(HardwareException) as excinfo:
            down.k_fail(exc=HardwareException)
        assert excinfo.value.errno == 12
        with pytest.raises(DriverException):
            down.k_fail()
        # Any other return passes through unchanged.
        assert down.k_pair() == (-1, [0xFA])

    def test_down_calls_the_current_entry_point(self, kernel):
        nucleus = _StubNucleus(kernel)
        nucleus.k_scalars = lambda a, b: a * b
        assert nucleus.plumbing.down.k_scalars(2, 5) == 10

    def test_up_record_is_latest_wins_and_unrecord_drops(self, kernel):
        nucleus = _StubNucleus(kernel)
        up, log = nucleus.plumbing.up, nucleus.plumbing.replay_log
        dev = nucleus.dev
        assert up.open(dev) == 0
        assert dev.v == 2  # the decaf half's write came back
        assert up.set_mode(dev, 1) == 0
        assert up.open(dev) == 0
        assert up.set_mode(dev, 2) == 0
        assert [(fn.__name__, args) for fn, args in log.entries()] == [
            ("open", (dev,)), ("set_mode", (dev, 2))]
        assert up.close(dev) == 0
        assert [(fn.__name__, args) for fn, args in log.entries()] == [
            ("set_mode", (dev, 2))]
        # Replay re-enters through the stub.
        fn, args = log.entries()[0]
        assert fn(*args) == 0 and dev.mode == 2

    def test_up_failure_is_an_errno_and_not_recorded(self, kernel):
        nucleus = _StubNucleus(kernel)
        assert nucleus.plumbing.up.poke(nucleus.dev) == -19
        assert len(nucleus.plumbing.replay_log) == 0


@pytest.fixture
def channel(kernel):
    return XpcChannel(Xpc(kernel), DomainManager())


class TestXpcExceptionSafety:
    def test_domain_stack_restored_after_upcall_raise(self, channel):
        obj = x_state()
        channel.kernel_tracker.register(obj)

        def boom(twin):
            raise RuntimeError("user code crashed")

        with pytest.raises(RuntimeError):
            channel.upcall(boom, args=[(obj, x_state)])
        assert channel.domains.current == KERNEL
        assert channel.domains.depth == 1

    def test_domain_stack_restored_after_downcall_raise(self, channel):
        obj = x_state()
        channel.kernel_tracker.register(obj)
        channel.domains.push(DECAF)

        def boom(twin):
            raise RuntimeError("kernel entry crashed")

        with pytest.raises(RuntimeError):
            channel.downcall(boom, args=[(obj, x_state)])
        assert channel.domains.current == DECAF
        channel.domains.pop(DECAF)

    def test_channel_usable_after_exception(self, channel):
        obj = x_state(v=1)
        channel.kernel_tracker.register(obj)

        def boom(twin):
            twin.v = 99
            raise RuntimeError("late crash")

        with pytest.raises(RuntimeError):
            channel.upcall(boom, args=[(obj, x_state)])
        # Writes before the crash are NOT propagated (no return
        # marshal), matching RPC semantics.
        assert obj.v == 1
        # The channel still works.
        ret = channel.upcall(lambda twin: twin.v, args=[(obj, x_state)])
        assert ret == 1

    def test_plumbing_translates_driver_exceptions(self, kernel):
        plumbing = DecafPlumbing(kernel, "8139too", plan=MarshalPlan())

        def boom():
            raise HardwareException("dead device", errno=19)

        ret = plumbing.upcall(boom)
        assert ret == -19

    def test_plumbing_contains_foreign_exceptions(self, kernel):
        # A non-DriverException escaping the decaf half is a driver
        # *bug*; the failure boundary converts it to an errno and marks
        # the driver failed instead of letting it unwind kernel code.
        plumbing = DecafPlumbing(kernel, "8139too", plan=MarshalPlan())

        def boom():
            raise ValueError("a genuine bug, not a driver error")

        ret = plumbing.upcall(boom)
        assert ret == errno_of(ValueError())
        assert plumbing.channel.failed
        assert plumbing.xpc.boundary_faults == 1

    def test_errno_mapping(self):
        assert errno_of(HardwareException("x", errno=5)) == -5
        assert errno_of(DriverException("y")) == -5
        assert errno_of(ValueError()) == -5

