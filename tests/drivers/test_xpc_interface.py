"""The XPC interface of each decaf driver is enumerable and closed.

A user half reaches the kernel only through ``plumbing.down``: one
downcall stub per ``k_*`` entry point of its nucleus class.  A
misspelled entry point in a rarely run unwind handler would otherwise
fail only when that handler runs, so the check is a source scan.
"""

import ast
import importlib.util
import inspect
import os

import pytest

from repro.drivers.decaf import (
    e1000_decaf,
    e1000_nucleus,
    ens1371_decaf,
    ens1371_nucleus,
    psmouse_decaf,
    psmouse_nucleus,
    rtl8139_decaf,
    rtl8139_nucleus,
    uhci_decaf,
    uhci_nucleus,
)
from repro.family import FAMILIES

_EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples", "new_decaf_driver.py")


def _example_module():
    spec = importlib.util.spec_from_file_location("new_decaf_driver",
                                                  _EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _down_names(source):
    """Every ``<name>`` in ``self.down.<name>`` of ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "down"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"):
            names.add(node.attr)
    return names


def _entry_points(nucleus_cls):
    return {name for name in dir(nucleus_cls) if name.startswith("k_")}


_PAIRS = [
    (e1000_decaf, e1000_nucleus.E1000Nucleus),
    (rtl8139_decaf, rtl8139_nucleus.Rtl8139Nucleus),
    (ens1371_decaf, ens1371_nucleus.Ens1371Nucleus),
    (uhci_decaf, uhci_nucleus.UhciNucleus),
    (psmouse_decaf, psmouse_nucleus.PsmouseNucleus),
]


@pytest.mark.parametrize("decaf_module,nucleus_cls", _PAIRS,
                         ids=[m.__name__.rsplit(".", 1)[1]
                              for m, _cls in _PAIRS])
def test_every_downcall_names_an_entry_point(decaf_module, nucleus_cls):
    used = _down_names(inspect.getsource(decaf_module))
    assert used, "no downcalls found: the scan is looking at the wrong name"
    assert used <= _entry_points(nucleus_cls), sorted(
        used - _entry_points(nucleus_cls))


def test_example_downcalls_name_entry_points():
    example = _example_module()
    with open(_EXAMPLE) as f:
        used = _down_names(f.read())
    assert used
    assert used <= _entry_points(example.SensorNucleus)


@pytest.mark.parametrize("decaf_module,nucleus_cls", _PAIRS,
                         ids=[m.__name__.rsplit(".", 1)[1]
                              for m, _cls in _PAIRS])
def test_down_is_exactly_the_entry_points(decaf_module, nucleus_cls):
    stubs = {name for name in vars(nucleus_cls.Down)
             if not name.startswith("_")}
    assert stubs == _entry_points(nucleus_cls)
    assert "nucleus" not in inspect.getsource(decaf_module)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_user_half_does_not_hold_its_nucleus(family):
    rig = FAMILIES[family].rig(decaf=True)
    rig.insmod()
    nucleus = rig.nucleus
    decaf = nucleus.decaf
    assert decaf.down is nucleus.plumbing.down
    for name, value in vars(decaf).items():
        assert value is not nucleus, name
        assert not isinstance(value, type(nucleus)), name
    rig.rmmod()
