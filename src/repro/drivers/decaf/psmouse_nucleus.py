"""psmouse driver nucleus.

The interrupt-side byte decoder and the PS/2 command engine stay in
the kernel (the command engine's responses arrive through the
interrupt handler); detection and initialization -- most of psmouse's
code -- run in the decaf driver, issuing commands through the
``k_ps2_command`` kernel entry point.
"""

from ..legacy import psmouse as legacy
from ..legacy.psmouse import DRV_NAME, psmouse_struct
from ..linuxapi import LinuxApi
from ..modulebase import DecafDriverModule
from .plumbing import DecafPlumbing
from .psmouse_decaf import PsmouseDecafDriver


class PsmouseNucleus:
    # Legacy modules whose ``linux`` global this nucleus binds.
    bound_modules = (legacy,)

    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = LinuxApi(kernel)
        for module in self.bound_modules:
            module.linux = self.linux
        self.state = legacy.psmouse_state()
        self.plumbing = None
        self.decaf = None
        self.serio = None
        self.port_hint = None  # fleet slots pin their own serio port
        self.resync_timer = None
        self.resync_period_ns = 1_000_000_000  # fleet slots stretch this

    # -- module lifecycle ------------------------------------------------------

    def init(self):
        ports = self.kernel.input.serio_ports
        if not ports:
            return -self.linux.ENODEV
        self.serio = self.port_hint if self.port_hint is not None \
            else ports[0]
        self.plumbing = DecafPlumbing(self.kernel, "psmouse")
        self.decaf = PsmouseDecafDriver(self.plumbing.decaf_rt, self)
        self.plumbing.decaf_rt.start()

        psmouse = psmouse_struct()
        psmouse.state = legacy.PSMOUSE_STATE_INITIALIZING
        psmouse._kstate = self.state
        self.state.psmouse = psmouse
        self.state.serio = self.serio
        self.serio.drvdata = psmouse
        self.plumbing.channel.kernel_tracker.register(psmouse)

        err = self.serio.open(legacy.psmouse_interrupt)
        if err:
            self.state.psmouse = None
            return err

        ret = self.plumbing.upcall(
            self.decaf.connect, args=[(psmouse, psmouse_struct)]
        )
        if ret:
            self.serio.close()
            self.state.psmouse = None
        else:
            self.plumbing.record("connect")
        return ret

    def cleanup(self):
        self.stop_resync()
        if self.decaf is not None and self.state.psmouse is not None:
            self.plumbing.upcall(
                self.decaf.disconnect,
                args=[(self.state.psmouse, psmouse_struct)],
            )
        if self.serio is not None:
            self.serio.close()
            self.serio.drvdata = None
        self.state.psmouse = None
        self.state.input_dev = None

    # -- deferred resync check: timer -> work item -> decaf driver -----------------
    #
    # Only runs under supervision: an unsupervised mouse's decaf half is
    # never invoked by movement (the decoder is interrupt-resident), and
    # the periodic health poll would break that contract.

    def supervision_started(self):
        if self.state.psmouse is not None and self.resync_timer is None:
            self.start_resync()

    def start_resync(self):
        self.resync_timer = self.plumbing.nuclear.defer_timer(
            self._resync_work, name="psmouse-resync"
        )
        self.resync_timer.mod_timer_after(self.resync_period_ns)

    def stop_resync(self):
        if self.resync_timer is not None:
            self.resync_timer.del_timer()
            self.resync_timer = None

    def _resync_work(self, _data):
        if self.decaf is None or self.state.psmouse is None:
            return
        self.plumbing.upcall(
            self.decaf.resync_check,
            args=[(self.state.psmouse, psmouse_struct)],
        )
        if self.resync_timer is not None:
            self.resync_timer.mod_timer_after(self.resync_period_ns)

    # -- kernel entry points ------------------------------------------------------

    def k_ps2_command(self, command, params_out, params_in):
        """Run one PS/2 command through the kernel command engine.

        The response bytes arrive via the interrupt handler, which is
        why the engine cannot move to user level.
        Returns (errno, responses).
        """
        return legacy.ps2_command(self.state.psmouse, command, params_out,
                                  tuple(params_in))

    def k_register_input_device(self, psmouse):
        if self.state.input_dev is not None:
            # Recovery replay: the input device (and whatever readers
            # hold it) survives the user-half restart.
            return 0
        input_dev = self.linux.input_allocate_device(psmouse.name)
        input_dev.set_capability(legacy.EV_KEY, legacy.BTN_LEFT)
        input_dev.set_capability(legacy.EV_KEY, legacy.BTN_RIGHT)
        input_dev.set_capability(legacy.EV_KEY, legacy.BTN_MIDDLE)
        input_dev.set_capability(legacy.EV_REL, legacy.REL_X)
        input_dev.set_capability(legacy.EV_REL, legacy.REL_Y)
        if psmouse.pktsize == 4:
            input_dev.set_capability(legacy.EV_REL, legacy.REL_WHEEL)
        err = self.linux.input_register_device(input_dev)
        if err:
            return err
        self.state.input_dev = input_dev
        return 0

    def k_unregister_input_device(self):
        if self.state.input_dev is not None:
            self.linux.input_unregister_device(self.state.input_dev)
            self.state.input_dev = None
        return 0

    def k_set_state(self, psmouse, state):
        self.state.psmouse.state = state
        psmouse.state = state
        return 0

    # -- supervised recovery ------------------------------------------------------

    def fault_quiesce(self):
        """Kernel-side quiesce after a user-half failure (no upcalls).

        Stops the resync timer and drops the mouse back to the
        initializing state so interrupt bytes are discarded until the
        replayed connect re-activates it.  The serio port and input
        device survive the user-half restart.
        """
        self.stop_resync()
        psmouse = self.state.psmouse
        if psmouse is None:
            return 0
        psmouse.state = legacy.PSMOUSE_STATE_INITIALIZING
        self.state.packet = []
        return 0

    def rebuild_user_half(self):
        self.decaf = PsmouseDecafDriver(self.plumbing.decaf_rt, self)

    def replay_op(self, op, args):
        if op == "connect":
            ret = self.plumbing.upcall(
                self.decaf.connect,
                args=[(self.state.psmouse, psmouse_struct)],
            )
            if ret == 0:
                self.start_resync()
            return ret
        return 0


def make_module():
    return DecafDriverModule(DRV_NAME, PsmouseNucleus)
