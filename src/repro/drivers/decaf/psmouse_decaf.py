"""psmouse decaf driver: detection and initialization in managed style.

The probe/extension/initialize flow of the legacy driver, rewritten
with exceptions: a failed command raises :class:`ProtocolException`
instead of returning ``-ENODEV`` through four levels of callers.  Each
PS/2 command goes through the kernel command engine (a downcall), so
mouse bring-up is the chatty, crossing-heavy initialization the paper
measures (24 crossings, 0.40 s for psmouse).
"""

from ..legacy.psmouse import (
    PSMOUSE_CMD_DISABLE,
    PSMOUSE_CMD_ENABLE,
    PSMOUSE_CMD_GETID,
    PSMOUSE_CMD_GETINFO,
    PSMOUSE_CMD_RESET_BAT,
    PSMOUSE_CMD_SETRATE,
    PSMOUSE_CMD_SETRES,
    PSMOUSE_CMD_SETSCALE11,
    PSMOUSE_RET_BAT,
    PSMOUSE_RET_ID,
    PSMOUSE_STATE_ACTIVATED,
    PSMOUSE_STATE_CMD,
)
from .exceptions import DriverException, ProtocolException


class PsmouseDecafDriver:
    def __init__(self, rt, down):
        self.rt = rt
        self.down = down  # downcall stubs: the kernel entry points
        self.resyncs = 0

    # -- command plumbing ---------------------------------------------------------

    def command(self, command, params_out=0, params_in=()):
        """One PS/2 command via the kernel engine; raises on failure."""
        err, responses = self.down.k_ps2_command(command, params_out,
                                                 list(params_in))
        if err:
            raise ProtocolException(
                "PS/2 command %#04x failed" % command, errno=err
            )
        return responses

    def try_command(self, command, params_out=0, params_in=()):
        """Command variant for probes that are allowed to fail."""
        try:
            return self.command(command, params_out, params_in)
        except ProtocolException:
            return None

    # -- probing (converted from the legacy detection chain) --------------------------

    def probe(self, psmouse):
        resp = self.command(PSMOUSE_CMD_GETID, params_out=1)
        if resp[0] not in (0x00, 0x03, 0x04):
            raise ProtocolException("no PS/2 mouse present")

    def reset(self, psmouse):
        resp = self.command(PSMOUSE_CMD_RESET_BAT, params_out=2)
        if len(resp) < 2 or resp[0] != PSMOUSE_RET_BAT or resp[1] != PSMOUSE_RET_ID:
            raise ProtocolException("self-test failed: %r" % (resp,))

    def synaptics_detect(self, psmouse):
        """Touchpad probe; plain mice fail the signature check."""
        self.command(PSMOUSE_CMD_SETSCALE11)
        for i in range(6, -2, -2):
            self.command(PSMOUSE_CMD_SETRES, params_in=((0 >> i) & 3,))
        resp = self.command(PSMOUSE_CMD_GETINFO, params_out=3)
        if len(resp) >= 2 and resp[1] == 0x47:
            return True
        return False

    def intellimouse_detect(self, psmouse):
        for rate in (200, 100, 80):
            self.command(PSMOUSE_CMD_SETRATE, params_in=(rate,))
        resp = self.command(PSMOUSE_CMD_GETID, params_out=1)
        if resp[0] == 3:
            psmouse.model = 3
            return True
        return False

    def im_explorer_detect(self, psmouse):
        for rate in (200, 200, 80):
            self.command(PSMOUSE_CMD_SETRATE, params_in=(rate,))
        resp = self.command(PSMOUSE_CMD_GETID, params_out=1)
        if resp[0] == 4:
            psmouse.model = 4
            return True
        return False

    def extensions(self, psmouse):
        """Protocol ladder, fanciest first (converted with a clean
        boolean chain instead of errno plumbing)."""
        try:
            if self.synaptics_detect(psmouse):
                psmouse.name = "Synaptics TouchPad"
                psmouse.pktsize = 6
                return
        except ProtocolException:
            pass

        if self.intellimouse_detect(psmouse):
            if self.im_explorer_detect(psmouse):
                psmouse.name = "IntelliMouse Explorer"
                psmouse.pktsize = 4
                return
            psmouse.name = "IntelliMouse"
            psmouse.pktsize = 4
            return

        psmouse.name = "PS/2 Mouse"
        psmouse.pktsize = 3

    # -- initialization ----------------------------------------------------------------

    def set_rate(self, psmouse, rate):
        self.command(PSMOUSE_CMD_SETRATE, params_in=(rate,))
        psmouse.rate = rate

    def set_resolution(self, psmouse, resolution):
        table = {25: 0, 50: 1, 100: 2, 200: 3}
        self.command(PSMOUSE_CMD_SETRES,
                     params_in=(table.get(resolution, 3),))
        psmouse.resolution = resolution

    def initialize(self, psmouse):
        self.set_resolution(psmouse, 200)
        self.set_rate(psmouse, 100)
        self.command(PSMOUSE_CMD_SETSCALE11)

    def activate(self, psmouse):
        self.command(PSMOUSE_CMD_ENABLE)
        self.down.k_set_state(psmouse, PSMOUSE_STATE_ACTIVATED)

    def deactivate(self, psmouse):
        self.try_command(PSMOUSE_CMD_DISABLE)
        self.down.k_set_state(psmouse, PSMOUSE_STATE_CMD)

    # -- connect / disconnect -------------------------------------------------------------

    def connect(self, psmouse):
        self.probe(psmouse)
        self.reset(psmouse)
        self.extensions(psmouse)
        self.initialize(psmouse)
        self.down.k_register_input_device(psmouse)
        try:
            self.activate(psmouse)
        except DriverException:
            self.down.k_unregister_input_device()
            raise
        return 0

    def disconnect(self, psmouse):
        self.deactivate(psmouse)
        self.down.k_unregister_input_device()
        return 0

    # -- periodic resync check (timer -> work item -> here) -----------------------

    def resync_check(self, psmouse):
        """Periodic health check of the activated mouse.

        Pure bookkeeping -- issuing PS/2 commands here would interleave
        with the motion stream -- but as an upcall that runs mid-
        workload it is the fault-injection point for this driver.
        """
        if psmouse.state != PSMOUSE_STATE_ACTIVATED:
            return 0
        self.resyncs += 1
        return 0
