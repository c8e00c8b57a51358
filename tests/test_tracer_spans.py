"""The benchmark's tracer patches engine functions by name; every name it
lists must still exist, or a traced run fails before it measures anything."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name,site", sorted(_spans().items()))
def test_every_traced_name_resolves(name, site):
    module_name, attr, owner = site
    module = importlib.import_module(module_name)
    if owner is None:
        assert hasattr(module, attr), name
    else:
        assert attr in vars(getattr(module, owner)), name
