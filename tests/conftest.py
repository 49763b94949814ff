"""Helpers that the table-driven tests share: a digit limit held, and names patched."""

import sys
from contextlib import contextmanager

import pytest

import schreier


@contextmanager
def int_digits(limit):
    """Hold the int-to-str digit limit at ``limit`` (None: leave it), then restore it."""
    if limit is None:
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def forbid(honest):
    """A name that must not be called: it raises if it is."""

    def ran(*args):
        raise AssertionError(f"{honest.__name__} ran")

    return ran


def patched(monkeypatch, patches):
    """Patch each dotted name (``cli.schreier_sequence``) with fault(honest)."""
    for target, fault in patches.items():
        module_name, name = target.split(".")
        module = getattr(schreier, module_name)
        # raising=True, the default: a name that is gone fails its row
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
