"""The benchmark's traced pass wraps a fixed list of the program's entry
points (``perfbench/tracing.py``).  A renamed or deleted one breaks that
pass, so every entry must keep resolving to a callable.  The benchmark
module is read from its file; nothing under ``perfbench/`` is modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()


@pytest.mark.parametrize(
    "module, attr_path",
    [entry[:2] for entry in _MODULE.ENTRY_POINTS] + [_MODULE.WAVEFORM_ENTRY],
    ids=lambda part: part)
def test_entry_point_resolves(module, attr_path):
    owner, attr, value = _MODULE._resolve(module, attr_path)
    assert callable(value), f"{module}.{attr_path} is not callable"
