"""The benchmark's tracer patches names in ``cuberec``; each must still exist.

A renamed or deleted traced function would otherwise only show up as a failed
traced benchmark run.  The tracer module is read, not imported as a package,
so nothing is written next to it.
"""

import types
from pathlib import Path

import pytest

from cuberec import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("perfbench/ is absent")
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_names_resolve_with_a_binding(tracing):
    missing = []
    for name, owner, attr in tracing.SPANNED + tracing.COUNTED:
        try:
            original = tracing._get(tracing._resolve(owner), attr)
        except (AttributeError, KeyError, ImportError):
            missing.append(name)
            continue
        if not tracing.bindings(original):
            missing.append(name)
    assert missing == []


def test_traced_properties_are_the_cli_properties(tracing):
    assert tuple(tracing.PROPERTIES) == tuple(cli.PROPERTIES)
