"""psmouse: PS/2 mouse driver (legacy, C-idiomatic).

Mirrors drivers/input/mouse/psmouse-base.c and friends from Linux
2.6.18: a serio-port client with a command engine (send byte, collect
ACK and response bytes), protocol detection (bare PS/2, then the
IntelliMouse magic-knock upgrade, plus probes for protocols our mouse
doesn't speak), and an interrupt-side packet decoder that turns 3- or
4-byte packets into input events.

Most of the *code* here is device-specific detection and initialization
-- exactly the part the paper observes is movable to Java -- while the
byte-by-byte ``psmouse_interrupt`` path stays in the kernel.
"""

from ...core.cstruct import CStruct, Opaque, Ptr, Str, U8, U16, U32, I32

linux = None  # bound at insmod

DRV_NAME = "psmouse"

# Commands.
PSMOUSE_CMD_SETSCALE11 = 0xE6
PSMOUSE_CMD_SETSCALE21 = 0xE7
PSMOUSE_CMD_SETRES = 0xE8
PSMOUSE_CMD_GETINFO = 0xE9
PSMOUSE_CMD_SETSTREAM = 0xEA
PSMOUSE_CMD_POLL = 0xEB
PSMOUSE_CMD_GETID = 0xF2
PSMOUSE_CMD_SETRATE = 0xF3
PSMOUSE_CMD_ENABLE = 0xF4
PSMOUSE_CMD_DISABLE = 0xF5
PSMOUSE_CMD_RESET_DIS = 0xF6
PSMOUSE_CMD_RESET_BAT = 0xFF

PSMOUSE_RET_BAT = 0xAA
PSMOUSE_RET_ID = 0x00
PSMOUSE_RET_ACK = 0xFA
PSMOUSE_RET_NAK = 0xFE

# Protocol types.
PSMOUSE_PS2 = 1
PSMOUSE_IMPS = 2
PSMOUSE_IMEX = 3
PSMOUSE_SYNAPTICS = 4

# States for the command engine.
PSMOUSE_STATE_INITIALIZING = 0
PSMOUSE_STATE_CMD = 1
PSMOUSE_STATE_ACTIVATED = 2

# Input event codes (mirror linux/input.h).
EV_KEY = 0x01
EV_REL = 0x02
REL_X = 0x00
REL_Y = 0x01
REL_WHEEL = 0x08
BTN_LEFT = 0x110
BTN_RIGHT = 0x111
BTN_MIDDLE = 0x112


class psmouse_struct(CStruct):
    """struct psmouse: protocol state shared across the split."""

    FIELDS = [
        ("protocol_type", U8),
        ("model", U8),
        ("rate", U8),
        ("resolution", U8),
        ("pktsize", U8),
        ("pktcnt", U8),
        ("state", U8),
        ("resync_time", U32),
        ("name", Str(32)),
        ("vendor", Str(16)),
        ("devname", Str(32)),
        ("serio", Ptr("psmouse_struct"), Opaque()),
    ]


class psmouse_state:
    """The psmouse members that never cross the split, one per mouse:
    ``psmouse._kstate`` (see :mod:`repro.drivers.modulebase`)."""

    def __init__(self):
        self.psmouse = None
        self.serio = None
        self.input_dev = None
        self.packet = []
        self.cmd_response = []
        self.cmd_waiting = False


# ---------------------------------------------------------------------------
# Command engine: write bytes, collect ACK + response
# ---------------------------------------------------------------------------

def ps2_sendbyte(psmouse, byte):
    """Send one byte to the mouse and confirm the ACK."""
    st = psmouse._kstate
    st.cmd_response = []
    st.cmd_waiting = True
    err = st.serio.write(byte)
    st.cmd_waiting = False
    if err:
        return err
    if not st.cmd_response or st.cmd_response[0] != PSMOUSE_RET_ACK:
        return -linux.EIO
    return 0


def ps2_command(psmouse, command, params_out=0, params_in=()):
    """Full PS/2 command: command byte, argument bytes, response bytes.

    Returns (errno, response_list).  Response excludes the ACKs.
    """
    st = psmouse._kstate
    responses = []

    st.cmd_response = []
    st.cmd_waiting = True
    err = st.serio.write(command)
    if err:
        st.cmd_waiting = False
        return err, []
    if not st.cmd_response or st.cmd_response[0] != PSMOUSE_RET_ACK:
        st.cmd_waiting = False
        return -linux.EIO, []
    responses.extend(st.cmd_response[1:])

    for param in params_in:
        st.cmd_response = []
        err = st.serio.write(param)
        if err:
            st.cmd_waiting = False
            return err, []
        if (not st.cmd_response
                or st.cmd_response[0] != PSMOUSE_RET_ACK):
            st.cmd_waiting = False
            return -linux.EIO, []
        responses.extend(st.cmd_response[1:])

    st.cmd_waiting = False
    if len(responses) < params_out:
        return -linux.EIO, responses
    return 0, responses


# ---------------------------------------------------------------------------
# Probing and protocol detection
# ---------------------------------------------------------------------------

def psmouse_reset(psmouse):
    """Reset with self-test: expect ACK, 0xAA, 0x00."""
    err, resp = ps2_command(psmouse, PSMOUSE_CMD_RESET_BAT, params_out=2)
    if err:
        return err
    if len(resp) < 2 or resp[0] != PSMOUSE_RET_BAT or resp[1] != PSMOUSE_RET_ID:
        return -linux.EIO
    return 0


def psmouse_probe(psmouse):
    """Is there a mouse out there at all?"""
    err, resp = ps2_command(psmouse, PSMOUSE_CMD_GETID, params_out=1)
    if err:
        return err
    if resp[0] not in (0x00, 0x03, 0x04):
        return -linux.ENODEV
    return 0


def psmouse_sliced_command(psmouse, command):
    """Synaptics-style sliced command encoding (always NAKed by our
    plain mouse, which is how detection correctly fails)."""
    err, _resp = ps2_command(psmouse, PSMOUSE_CMD_SETSCALE11)
    if err:
        return err
    for i in range(6, -2, -2):
        err, _resp = ps2_command(psmouse, PSMOUSE_CMD_SETRES,
                                 params_in=((command >> i) & 3,))
        if err:
            return err
    return 0


def synaptics_detect(psmouse):
    """Probe for a Synaptics touchpad; our device is not one."""
    err = psmouse_sliced_command(psmouse, 0x00)
    if err:
        return -linux.ENODEV
    err, resp = ps2_command(psmouse, PSMOUSE_CMD_GETINFO, params_out=3)
    if err:
        return -linux.ENODEV
    if len(resp) >= 2 and resp[1] == 0x47:
        return 0
    return -linux.ENODEV


def genius_detect(psmouse):
    """Probe for a Genius NewNet mouse; ours is not one."""
    for _i in range(4):
        err, _resp = ps2_command(psmouse, PSMOUSE_CMD_SETSCALE11)
        if err:
            return -linux.ENODEV
    err, resp = ps2_command(psmouse, PSMOUSE_CMD_GETINFO, params_out=3)
    if err:
        return -linux.ENODEV
    if len(resp) >= 1 and resp[0] == 0x00:
        return -linux.ENODEV  # plain mice answer 0x20/0x00 status here
    return -linux.ENODEV


def intellimouse_detect(psmouse):
    """The magic knock: set rate 200, 100, 80, then read the ID."""
    for rate in (200, 100, 80):
        err, _resp = ps2_command(psmouse, PSMOUSE_CMD_SETRATE,
                                 params_in=(rate,))
        if err:
            return err
    err, resp = ps2_command(psmouse, PSMOUSE_CMD_GETID, params_out=1)
    if err:
        return err
    if resp[0] != 3:
        return -linux.ENODEV
    psmouse.model = 3
    return 0


def im_explorer_detect(psmouse):
    """IntelliMouse Explorer knock (200, 200, 80); ours stays ID 3."""
    for rate in (200, 200, 80):
        err, _resp = ps2_command(psmouse, PSMOUSE_CMD_SETRATE,
                                 params_in=(rate,))
        if err:
            return err
    err, resp = ps2_command(psmouse, PSMOUSE_CMD_GETID, params_out=1)
    if err:
        return err
    if resp[0] != 4:
        return -linux.ENODEV
    psmouse.model = 4
    return 0


def psmouse_extensions(psmouse):
    """Try protocol extensions from fanciest to plainest."""
    if synaptics_detect(psmouse) == 0:
        psmouse.protocol_type = PSMOUSE_SYNAPTICS
        psmouse.name = "Synaptics TouchPad"
        psmouse.pktsize = 6
        return PSMOUSE_SYNAPTICS

    if genius_detect(psmouse) == 0:
        psmouse.name = "Genius Mouse"
        psmouse.pktsize = 4
        return PSMOUSE_PS2

    if intellimouse_detect(psmouse) == 0:
        if im_explorer_detect(psmouse) == 0:
            psmouse.protocol_type = PSMOUSE_IMEX
            psmouse.name = "IntelliMouse Explorer"
            psmouse.pktsize = 4
            return PSMOUSE_IMEX
        psmouse.protocol_type = PSMOUSE_IMPS
        psmouse.name = "IntelliMouse"
        psmouse.pktsize = 4
        return PSMOUSE_IMPS

    psmouse.protocol_type = PSMOUSE_PS2
    psmouse.name = "PS/2 Mouse"
    psmouse.pktsize = 3
    return PSMOUSE_PS2


# ---------------------------------------------------------------------------
# Rate / resolution / enable
# ---------------------------------------------------------------------------

def psmouse_set_rate(psmouse, rate):
    err, _ = ps2_command(psmouse, PSMOUSE_CMD_SETRATE, params_in=(rate,))
    if err:
        return err
    psmouse.rate = rate
    return 0


def psmouse_set_resolution(psmouse, resolution):
    table = {25: 0, 50: 1, 100: 2, 200: 3}
    param = table.get(resolution, 3)
    err, _ = ps2_command(psmouse, PSMOUSE_CMD_SETRES, params_in=(param,))
    if err:
        return err
    psmouse.resolution = resolution
    return 0


def psmouse_initialize(psmouse):
    err = psmouse_set_resolution(psmouse, 200)
    if err:
        return err
    err = psmouse_set_rate(psmouse, 100)
    if err:
        return err
    err, _ = ps2_command(psmouse, PSMOUSE_CMD_SETSCALE11)
    if err:
        return err
    return 0


def psmouse_activate(psmouse):
    err, _ = ps2_command(psmouse, PSMOUSE_CMD_ENABLE)
    if err:
        return err
    psmouse.state = PSMOUSE_STATE_ACTIVATED
    return 0


def psmouse_deactivate(psmouse):
    err, _ = ps2_command(psmouse, PSMOUSE_CMD_DISABLE)
    if err:
        return err
    psmouse.state = PSMOUSE_STATE_CMD
    return 0


# ---------------------------------------------------------------------------
# Interrupt path (critical root): packet decode
# ---------------------------------------------------------------------------

def psmouse_interrupt(serio, byte, flags):
    """Byte from the mouse, in hardirq context."""
    psmouse = serio.drvdata
    st = psmouse._kstate
    if st.cmd_waiting:
        st.cmd_response.append(byte)
        return

    if psmouse.state != PSMOUSE_STATE_ACTIVATED:
        return

    st.packet.append(byte)
    if len(st.packet) < psmouse.pktsize:
        return
    packet = st.packet
    st.packet = []
    psmouse_process_byte(psmouse, packet)


def psmouse_process_byte(psmouse, packet):
    """Decode one complete movement packet into input events."""
    input_dev = psmouse._kstate.input_dev
    if input_dev is None:
        return

    b0 = packet[0]
    if not b0 & 0x08:
        return  # lost sync; drop

    buttons = b0 & 0x07
    dx = packet[1]
    dy = packet[2]
    if b0 & 0x10:
        dx -= 256
    if b0 & 0x20:
        dy -= 256

    input_dev.input_report_key(BTN_LEFT, buttons & 1)
    input_dev.input_report_key(BTN_RIGHT, (buttons >> 1) & 1)
    input_dev.input_report_key(BTN_MIDDLE, (buttons >> 2) & 1)
    input_dev.input_report_rel(REL_X, dx)
    input_dev.input_report_rel(REL_Y, dy)

    if psmouse.pktsize == 4:
        wheel = packet[3]
        if wheel >= 128:
            wheel -= 256
        input_dev.input_report_rel(REL_WHEEL, wheel)

    input_dev.input_sync()


# ---------------------------------------------------------------------------
# Connect / disconnect (serio driver interface)
# ---------------------------------------------------------------------------

def psmouse_connect(serio):
    """A new serio port appeared: probe and set up the mouse."""
    psmouse = psmouse_struct()
    psmouse._kstate = st = psmouse_state()
    psmouse.state = PSMOUSE_STATE_INITIALIZING
    st.psmouse = psmouse
    st.serio = serio
    serio.drvdata = psmouse

    err = serio.open(psmouse_interrupt)
    if err:
        serio.drvdata = None
        return err

    err = psmouse_probe(psmouse)
    if err:
        serio.close()
        serio.drvdata = None
        return err

    err = psmouse_reset(psmouse)
    if err:
        serio.close()
        serio.drvdata = None
        return err

    psmouse_extensions(psmouse)

    err = psmouse_initialize(psmouse)
    if err:
        serio.close()
        serio.drvdata = None
        return err

    input_dev = linux.input_allocate_device(psmouse.name)
    input_dev.set_capability(EV_KEY, BTN_LEFT)
    input_dev.set_capability(EV_KEY, BTN_RIGHT)
    input_dev.set_capability(EV_KEY, BTN_MIDDLE)
    input_dev.set_capability(EV_REL, REL_X)
    input_dev.set_capability(EV_REL, REL_Y)
    if psmouse.pktsize == 4:
        input_dev.set_capability(EV_REL, REL_WHEEL)
    err = linux.input_register_device(input_dev)
    if err:
        serio.close()
        serio.drvdata = None
        return err
    st.input_dev = input_dev

    psmouse.state = PSMOUSE_STATE_CMD
    err = psmouse_activate(psmouse)
    if err:
        linux.input_unregister_device(input_dev)
        serio.close()
        serio.drvdata = None
        return err
    return 0


def psmouse_disconnect(serio):
    psmouse = serio.drvdata
    if psmouse is None:
        return
    st = psmouse._kstate
    psmouse_deactivate(psmouse)
    if st.input_dev is not None:
        linux.input_unregister_device(st.input_dev)
        st.input_dev = None
    serio.close()
    serio.drvdata = None


def psmouse_init():
    return 0


def psmouse_exit():
    return 0


class PsmouseSerioGlue:
    """Binds the driver to a serio port at insmod.

    ``port`` selects which port (a fleet kernel has one per mouse);
    the default keeps the single-device behaviour of binding the
    first one.
    """

    def __init__(self, port=None):
        self.serio = None
        self._preferred = port

    def connect(self, kernel):
        ports = kernel.input.serio_ports
        if not ports:
            return -linux.ENODEV if linux else -19
        self.serio = self._preferred if self._preferred is not None \
            else ports[0]
        return psmouse_connect(self.serio)

    def disconnect(self):
        if self.serio is not None:
            psmouse_disconnect(self.serio)
            self.serio = None


def make_module():
    from ...kernel.module import KernelModule
    from ..linuxapi import LinuxApi
    import sys

    class PsmouseModule(KernelModule):
        name = DRV_NAME

        def __init__(self):
            self.glue = PsmouseSerioGlue()

        def init_module(self, kernel):
            sys.modules[__name__].linux = LinuxApi(kernel)
            ret = psmouse_init()
            if ret:
                return ret
            return self.glue.connect(kernel)

        def cleanup_module(self, kernel):
            self.glue.disconnect()
            psmouse_exit()

    return PsmouseModule()
