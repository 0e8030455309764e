"""The SCALAR_REFERENCES registry must describe the kernels that exist.

reprolint R013 checks this statically against the project call graph; this
test checks the same contract at runtime — every public kernel is
registered, and every registered dotted path resolves to a real callable —
so the registry cannot drift even when the linter is not run.
"""

from __future__ import annotations

import importlib
import inspect

from repro.perf import kernels

def _public_kernels():
    return {
        name
        for name, obj in vars(kernels).items()
        if inspect.isfunction(obj)
        and obj.__module__ == kernels.__name__
        and not name.startswith("_")
    }


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise AssertionError(f"scalar reference {dotted!r} does not resolve")


def test_every_public_kernel_is_registered():
    assert set(kernels.SCALAR_REFERENCES) == _public_kernels()


def test_every_reference_resolves_to_a_callable():
    for name, dotted in sorted(kernels.SCALAR_REFERENCES.items()):
        target = _resolve(dotted)
        assert callable(target), f"{name}: {dotted} is not callable"
