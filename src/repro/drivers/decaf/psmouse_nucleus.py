"""psmouse driver nucleus.

The interrupt-side byte decoder and the PS/2 command engine stay in
the kernel (the command engine's responses arrive through the
interrupt handler); detection and initialization -- most of psmouse's
code -- run in the decaf driver, issuing commands through the
``k_ps2_command`` kernel entry point.
"""

from ..legacy import psmouse as legacy
from ..legacy.psmouse import DRV_NAME, psmouse_struct
from ..modulebase import DecafDriverModule
from .plumbing import DecafPlumbing, xpc_stubs
from .psmouse_decaf import PsmouseDecafDriver


@xpc_stubs
class PsmouseNucleus:
    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = legacy.linux
        self.state = legacy.psmouse_state()
        self.plumbing = None
        self.decaf = None
        self.resync = None

    # -- connect / disconnect (serio driver probe / remove) ----------------------

    UPCALLS = {
        "connect": None,  # recorded as _connect
        "disconnect": None,
        "resync_check": None,
    }

    def probe(self, serio):
        self.plumbing = DecafPlumbing(self.kernel, "psmouse", nucleus=self)
        self.resync = self.plumbing.nuclear.defer_timer(
            self._resync_check, 1_000_000_000, "psmouse-resync")
        self.rebuild_user_half()
        self.plumbing.decaf_rt.start()

        psmouse = psmouse_struct()
        psmouse.state = legacy.PSMOUSE_STATE_INITIALIZING
        psmouse._kstate = self.state
        self.state.psmouse = psmouse
        self.state.serio = serio
        serio.drvdata = psmouse
        self.plumbing.channel.kernel_tracker.register(psmouse)

        err = serio.open(legacy.psmouse_interrupt)
        if err:
            serio.drvdata = None
            self.state.psmouse = None
            return err

        ret = self._connect()
        if ret:
            serio.close()
            serio.drvdata = None
            self.state.psmouse = None
        else:
            self.plumbing.record(self._connect)
        return ret

    def _connect(self):
        """The decaf connect, at probe and again in recovery replay; a
        supervised mouse (so, in replay) restarts its resync poll."""
        ret = self.plumbing.up.connect(self.state.psmouse)
        if ret == 0 and self.plumbing.supervisor is not None:
            self.resync.start()
        return ret

    def remove(self, serio):
        self.resync.stop()
        if self.decaf is not None and self.state.psmouse is not None:
            self.plumbing.up.disconnect(self.state.psmouse)
        serio.close()
        serio.drvdata = None
        self.state.psmouse = None
        self.state.input_dev = None

    # -- resync check: the nuclear runtime defers its timer to a work item ----
    #
    # Only runs under supervision: an unsupervised mouse's decaf half is
    # never invoked by movement (the decoder is interrupt-resident), and
    # the periodic health poll would break that contract.

    def supervision_started(self):
        if self.state.psmouse is not None and not self.resync.running:
            self.resync.start()

    def _resync_check(self):
        if self.decaf is None or self.state.psmouse is None:
            return False
        self.plumbing.up.resync_check(self.state.psmouse)
        return True

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
        self.resync.stop()
        psmouse = self.state.psmouse
        if psmouse is None:
            return 0
        psmouse.state = legacy.PSMOUSE_STATE_INITIALIZING
        self.state.packet = []
        return 0

    def rebuild_user_half(self):
        self.decaf = PsmouseDecafDriver(self.plumbing.decaf_rt,
                                        self.plumbing.down)


def make_module():
    return DecafDriverModule(DRV_NAME, legacy, legacy.PsmouseSerioGlue(),
                             PsmouseNucleus, bus="input")
