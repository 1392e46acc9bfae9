"""Tier-1 guard for the repository benchmark's probe entry points.

``perfbench/probe.py`` wraps named layer entry points of the program at
class level, looking each one up by name.  A refactor that drops or
renames one would otherwise fail only the benchmark's own CI step; this
test resolves every entry exactly as the probe does, so it fails here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.probe import _LAYER_CALLS  # noqa: E402


@pytest.mark.parametrize(
    "entry",
    _LAYER_CALLS,
    ids=[f"{cls or mod}.{attr}" for mod, cls, attr, _n, _w in _LAYER_CALLS],
)
def test_layer_entry_point_resolves(entry):
    mod_name, cls_name, attr, _name, _weight = entry
    mod = importlib.import_module(mod_name)
    if cls_name is None:
        fn = getattr(mod, attr)
    else:
        # The probe's lookup: the class's own attribute, not an inherited
        # one, so an override that disappears is caught.
        fn = getattr(mod, cls_name).__dict__[attr]
    assert callable(fn)


def test_par_table_class_exists():
    """The probe counts built tables on both table classes."""
    from repro.core.batch import NodeArrayTable
    from repro.sim.par import ParNodeArrayTable

    assert issubclass(ParNodeArrayTable, NodeArrayTable)
