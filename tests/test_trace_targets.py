"""Every name the benchmark harness traces resolves in the package.

The harness wraps each ``trace_targets`` entry with ``getattr`` when a traced
run starts and sets the wrapper back on the module, so a renamed or deleted
function would otherwise surface only there.  Each name must be a real module
attribute: a caller in the same module finds it through its globals, which a
module ``__getattr__`` never serves.  ``trapbench/workloads.py`` imports
nothing of trapshift at module level; this reads it and changes nothing in it.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "trapbench"


def trace_targets():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
    return [(name, target) for name, wl in workloads.WORKLOADS.items() for target in wl.trace_targets]


@pytest.mark.parametrize(("workload", "target"), trace_targets())
def test_traced_name_resolves(workload, target):
    module_name, attr = target.rsplit(".", 1)
    assert callable(vars(importlib.import_module(module_name)).get(attr)), f"{workload}: {target}"
