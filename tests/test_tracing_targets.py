"""Every function and method the benchmark's tracer wraps exists.

``perfbench/tracing.py`` looks each target up in its owner's ``__dict__``
and raises ``KeyError`` on a missing one, so a removed or renamed op would
otherwise fail only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._TARGETS


@pytest.mark.parametrize("target", load_targets(),
                         ids=lambda t: ".".join(filter(None, t[:3])))
def test_target_resolves(target):
    mod_name, owner_name, attr, span = target
    module = importlib.import_module(f"tabmt.{mod_name}")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"{span}: no {attr} in {owner.__name__}"
