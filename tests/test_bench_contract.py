"""What the benchmark under ``perfbench/`` needs from the package.

The traced run (``--trace 1``) wraps every function named in
``perfbench/tracer.py`` ``TARGETS``, and the set-up probes build the sweep
presets' configs in a fresh interpreter. Deleting or renaming any of those
breaks the benchmark, not the simulator, so it is checked here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from hbnoma.runner import fig2_config, fig3_config

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    """``TARGETS`` read from the tracer's source, without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


@pytest.mark.parametrize(
    "layer, qualname",
    [(layer, name) for layer, names in _targets().items() for name in names],
)
def test_every_traced_name_resolves(layer, qualname):
    owner = importlib.import_module(f"hbnoma.{layer}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_set_up_probes_build():
    assert fig2_config(50.0, 1, 1000, (0.0, 5.0)).snr_db == (0.0, 5.0)
    assert fig3_config(-90.0, 1).trials == 1
