"""The benchmark's hook points name attributes that exist.

bench/hooks.py wraps module attributes by name and skips a name it does not
find, so a function moved or renamed in src/ would leave its per-layer
metrics reading zero calls with no error.  The hooks module is only read.
"""

import importlib.util
from pathlib import Path

import pytest

from germcone import hilbert, report

HOOKS = Path(__file__).resolve().parents[1] / "bench" / "hooks.py"


def _load_hooks():
    spec = importlib.util.spec_from_file_location("bench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hooks = _load_hooks()

# Hook points whose code was removed on purpose: report and hilbert ran
# Buchberger again after the cone, and no longer do.  Every run left goes
# through groebner.buchberger, which is hooked.
RETIRED = {(report, "buchberger"), (hilbert, "buchberger")}


def _label(owner, attr):
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{_label(owner, attr)}->{name}")
    for owner, attr, name, _ in hooks.HOOK_POINTS
    if (owner, attr) not in RETIRED])
def test_tracer_hook_point_exists(owner, attr):
    assert attr in owner.__dict__, _label(owner, attr)


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=stage)
    for owner, attr, stage in hooks.Deadline.STAGES])
def test_deadline_stage_exists(owner, attr):
    assert attr in owner.__dict__, _label(owner, attr)


def test_retired_hook_points_are_gone():
    # a retired name that comes back is traced again: drop it from RETIRED
    listed = {(owner, attr) for owner, attr, _, _ in hooks.HOOK_POINTS}
    for owner, attr in RETIRED:
        assert (owner, attr) in listed and attr not in owner.__dict__
