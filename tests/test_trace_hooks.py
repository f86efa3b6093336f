"""The benchmark's layer tracer must find every hook it wraps.

``perfbench/layertrace.py`` wraps package functions and methods by name
(``owner.__dict__[attr]``), so renaming or moving one of them breaks a
traced benchmark run.  This test installs and removes the hooks on the
package directly, so such a rename fails here first.
"""

import importlib.util
import pathlib

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "layertrace.py"
N_HOOKS = 17


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_found_and_restored():
    tracer = load_layertrace().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert len(patches) == N_HOOKS
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
