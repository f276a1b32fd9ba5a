"""The benchmark's tracer patches algdyn by name (perfbench/tracing.py
TARGETS); every name it wraps must still resolve, or `--trace 1` breaks."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("module, attr", [
    (m, a) for m, attrs in _targets().items() for a in attrs
])
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"algdyn.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_worker_and_installer_hooks_exist():
    from algdyn import _kernels, cli

    assert isinstance(_kernels.BACKEND, str)
    assert isinstance(cli._HANDLERS, dict) and cli._HANDLERS
