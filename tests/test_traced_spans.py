"""Every layer that ``perfbench/traced.py`` times exists in the package.

The tracer reports a span it cannot find as missing instead of failing, so
a renamed or deleted layer function would otherwise only show at a full
traced benchmark run. The script is loaded from its file, as it is not a
package module, and nothing of it is run but its definitions.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.SPANS


@pytest.mark.parametrize("name", load_spans())
def test_traced_span_names_a_package_attribute(name):
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"resilsim.{module_name}")
    for attr in path:
        assert hasattr(owner, attr), f"{name}: {owner!r} has no {attr!r}"
        owner = getattr(owner, attr)
    assert callable(owner)
