"""The benchmark's tracer patches names in ``cuberec``; each must still exist and be called.

A renamed or deleted traced function would otherwise only show up as a failed
traced benchmark run, and a call that bypasses the patched name not at all.
The tracer module is read, not imported as a package, so nothing is written
next to it.
"""

import types
from pathlib import Path

import pytest

from cuberec import cli, verify

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


def test_the_cli_runs_the_properties_the_tracer_patches():
    # The tracer patches the values of cli.PROPERTIES; verify.run calls them
    # through its own PROPERTIES, so the two must be one dict.
    assert cli.PROPERTIES is verify.PROPERTIES


def test_the_tracer_sees_each_property_and_what_it_calls(tracing, capsys):
    # verify calls the traced functions through their modules; one bound by
    # name at import would escape its span, and its calls would read too few.
    tracer = tracing.Tracer("verify-standard-2")
    tracer.install()
    try:
        code = cli.main(["verify", "--preset", "standard:2"])
    finally:
        tracer.remove()
    assert code == 0 and '"pass": true' in capsys.readouterr().out
    calls = tracer.aggregate()
    assert {p: calls.get(f"cli.verify.{p}.calls") for p in tracing.PROPERTIES} == \
        dict.fromkeys(tracing.PROPERTIES, 1)
    # f_symbolic and f_via_substitution run once for the context or main-theorem
    # and once inside octahedron_check.
    traced = {"recurrence.f_symbolic": 2, "recurrence.f_via_substitution": 2,
              "recurrence.abc_from_edge_vars": 1, "recurrence.octahedron_check": 1,
              "groves.enumerate_bruteforce": 1, "cli.cmd_verify": 1}
    assert {name: calls.get(f"{name}.calls") for name in traced} == traced
