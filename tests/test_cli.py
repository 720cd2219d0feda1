"""Command-line surface: outputs, formats, and exit codes."""

import argparse
import hashlib
import io
import json
import random
import sys

import pytest

from conftest import random_ic
from cuberec import cli, groves, laurent, lattice, recurrence, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_all_ones(capsys):
    code, out = run(capsys, "compute", "--preset", "standard:5", "--mode", "all-ones")
    assert code == 0 and out.strip() == "729"


def test_compute_polynomial_json(capsys):
    code, out = run(capsys, "compute", "--preset", "standard:2")
    assert code == 0
    poly = laurent.from_json(json.loads(out))
    assert poly == recurrence.f_symbolic(lattice.standard(2))


def test_compute_abc_prints_the_edge_vars_route_bytes(capsys):
    # The direct abc walk prints what abc_from_edge_vars of the edge-vars
    # polynomial printed; the digest pins those bytes.
    code, out = run(capsys, "compute", "--mode", "abc", "--preset", "standard:4")
    assert code == 0
    via = recurrence.abc_from_edge_vars(recurrence.f_symbolic(lattice.standard(4)))
    assert out == json.dumps(laurent.to_json(via)) + "\n"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "07ef231cf6bcbd1e64c79e7b603b6db32979b13771adb5ead61bea8ef2c2a6f5"


@pytest.mark.parametrize("argv, expected", [
    (("--preset", "standard:5"),
     "97cbf8547b197c43a2bb0e4eaf4f16ba13648d7e9fd04022e18fcc6c2a73af5a"),
    (("--preset", "kleber:2,3,2", "--mode", "shift-octa"),
     "c3811cfb5b751829b31d4d32ea512fdc5f35f3aaaa794d47e49b86487fd999a0"),
    (("--preset", "gale-robinson:4,1,2,13", "--mode", "abc"),
     "c38f67aea537313958bb38cc3991515a3f017e4bd650d26f761b5c4937cde3c2"),
])
def test_compute_bytes_through_exact_division(capsys, argv, expected):
    # Each walk divides at every step: all three by monomials, the first two
    # also by polynomials.  The digests pin the printed bytes.
    code, out = run(capsys, "compute", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_compute_shift_octa(capsys):
    code, out = run(capsys, "compute", "--preset", "standard:2", "--mode", "shift-octa")
    assert code == 0
    poly = laurent.from_json(json.loads(out))
    assert len(poly) == 2


@pytest.mark.parametrize("preset, expected", [
    ("standard:5", "db37a4072c1699dd3d35f3b2d6c1a2268321a7c34bdd49eb9e036bf3cf2674ed"),
    ("kleber:2,3,2", "8652067bf5c783f58c09524045bb8b3683243711d534dbeb15c6ddc211c3e946"),
    ("gale-robinson:4,1,2,12", "2afee6dad00f21bac185f584e14a83c011f05ed401780dc13f1af8592452fe6e"),
])
def test_enumerate_bytes(capsys, preset, expected):
    # The digests pin the lines and their order.
    code, out = run(capsys, "enumerate", "--preset", preset)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_enumerate_writes_each_line_as_it_is_made(monkeypatch):
    converted, at_write = [], []
    grove_to_json = groves.grove_to_json
    monkeypatch.setattr(groves, "grove_to_json", lambda g: converted.append(g) or grove_to_json(g))

    class Recording(io.StringIO):
        def write(self, s):
            at_write.append(len(converted))
            return super().write(s)

    out = Recording()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["enumerate", "--preset", "standard:4"]) == 0
    assert at_write == list(range(1, 82)) and out.getvalue().count("\n") == 81


def test_enumerate_lines(capsys):
    code, out = run(capsys, "enumerate", "--preset", "standard:3")
    lines = [json.loads(s) for s in out.strip().splitlines()]
    assert code == 0 and len(lines) == 9
    assert all(set(obj) == {"long_edges", "n", "degrees"} for obj in lines)


def _ic_file(tmp_path, ic, name="ic.json"):
    path = tmp_path / name
    path.write_text(json.dumps(lattice.to_json(ic)))
    return str(path)


def test_enumerate_bruteforce_matches(tmp_path, capsys):
    rng = random.Random(1515)
    sources = [["--preset", "standard:3"]]
    sources += [["--ic-file", _ic_file(tmp_path, random_ic(rng, depth=1), f"ic{i}.json")]
                for i in range(4)]
    for source in sources:
        _, brute = run(capsys, "enumerate", *source, "--method", "brute-force",
                       "--brute-cap", "80")
        _, local = run(capsys, "enumerate", *source)
        assert brute == local, source


def test_render_grove_index_draws_the_grove_on_that_enumerate_line(tmp_path, capsys):
    grove_file = tmp_path / "grove.jsonl"
    ic = _ic_file(tmp_path, random_ic(random.Random(2121)))
    for source in (["--preset", "standard:4"], ["--ic-file", ic]):
        _, out = run(capsys, "enumerate", *source)
        lines = out.splitlines()
        assert len(lines) > 50
        for i in (0, 1, 17, len(lines) // 2, len(lines) - 1):
            grove_file.write_text(lines[i] + "\n")
            _, by_index = run(capsys, "render", "grove", *source, "--grove-index", str(i))
            _, by_file = run(capsys, "render", "grove", *source, "--grove-file", str(grove_file))
            assert "<svg" in by_index and by_index == by_file, (source, i)


def test_sorted_groves_follow_the_sorted_long_edges():
    # The CLI ranks masks by their set bits; the order must be that of the
    # groves' sorted long-edge lists, which fixes the output bytes.
    def by_rhombi(gs):
        return sorted(gs, key=lambda g: tuple(g.sorted_long_edges()))

    rng = random.Random(1131)
    for _ in range(10):
        gs = groves.enumerate_local_moves(random_ic(rng, depth=1, boxes=4))
        masks = {g.mask for g in gs}
        assert sorted(masks, key=groves.grove_order) == [g.mask for g in by_rhombi(gs)]


def test_set_bits_order_is_the_order_of_the_set_bit_lists():
    # grove_order needs no mask length: masks of every length sort together.
    def set_bits(m):
        return [t for t in range(m.bit_length()) if m >> t & 1]

    rng = random.Random(1616)
    prefixes = [0, 0b1, 0b11, 0b100001, 0b111, 0b1011, 0b101, 0b10, 1 << 199, (1 << 200) - 1]
    everything = []
    for length in (1, 2, 3, 7, 64, 200):
        masks = [m for m in prefixes if m.bit_length() <= length]
        masks += [rng.getrandbits(rng.randint(1, length)) for _ in range(300)]
        masks += [m & ~(1 << rng.randrange(length)) for m in masks[:100]]  # shared prefixes
        assert sorted(masks, key=groves.grove_order) == sorted(masks, key=set_bits), length
        everything += masks
    assert sorted(everything, key=groves.grove_order) == sorted(everything, key=set_bits)


def test_verify_passes(capsys):
    code, out = run(
        capsys, "verify", "--preset", "standard:4",
        "--props", "main-theorem,acyclic,triineq,coeffone,degrees",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["results"]) == 5


def test_verify_all_props_small(capsys):
    code, out = run(capsys, "verify", "--preset", "standard:2")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert {r["property"] for r in report["results"]} == set(cli.PROPERTIES)


def test_verify_multiple_presets(capsys):
    code, out = run(
        capsys, "verify", "--preset", "standard:2", "--preset", "kleber:2,2,2",
        "--props", "main-theorem,oracle",
    )
    report = json.loads(out)
    assert code == 0 and len(report["results"]) == 4


def test_verify_reports_oracle_skip(capsys):
    code, out = run(capsys, "verify", "--preset", "standard:4", "--props", "oracle")
    (result,) = json.loads(out)["results"]
    assert code == 0 and result["status"] == "skipped"
    assert "--brute-cap" in result["reason"] and result["witness"] is None
    code, out = run(capsys, "verify", "--preset", "standard:2", "--props", "oracle")
    (result,) = json.loads(out)["results"]
    assert code == 0 and result["status"] == "pass" and "reason" not in result


def test_verify_run_gives_the_cli_report(tmp_path, capsys):
    rng = random.Random(2424)
    ics = [lattice.standard(3), lattice.kleber(2, 2, 2), random_ic(rng), random_ic(rng)]
    argv = ["verify", "--preset", "standard:3", "--preset", "kleber:2,2,2"]
    for i, ic in enumerate(ics[2:]):
        argv += ["--ic-file", _ic_file(tmp_path, ic, f"ic{i}.json")]
    code, out = run(capsys, *argv)
    report = verify.run(ics, None, 18)
    assert code == 0 and json.loads(out) == report
    assert len(report["results"]) == 4 * len(verify.PROPERTIES)
    assert "skipped" in {r["status"] for r in report["results"] if r["property"] == "oracle"}


def test_verify_run_refuses_unknown_properties():
    for props in (["imaginary"], ["oracle", "imaginary", "acyclic"], [""]):
        with pytest.raises(ValueError, match="unknown properties"):
            verify.run([lattice.standard(2)], props, 18)


def test_verify_run_refuses_a_negative_brute_cap(monkeypatch):
    # Refused before any property runs, so no property may be called.
    def never(ctx):
        raise AssertionError("a property ran with a negative brute cap")

    for name in verify.PROPERTIES:
        monkeypatch.setitem(verify.PROPERTIES, name, never)
    for props in (["oracle"], None):
        with pytest.raises(ValueError, match="brute_cap must be >= 0, not -1"):
            verify.run([lattice.standard(2)], props, -1)


def test_preset_and_json_forms_give_equal_ideals():
    # One table serves --preset kind:a,b,... and {"preset": kind, ...}.
    args = {lattice.standard: (3,), lattice.kleber: (2, 3, 2),
            lattice.gale_robinson: (4, 1, 2, 11)}
    assert set(lattice.PRESETS) == {"standard", "kleber", "gale-robinson", "gale_robinson"}
    for kind, (build, names) in lattice.PRESETS.items():
        values = args[build]
        ic = build(*values)
        assert cli._parse_preset(f"{kind}:{','.join(map(str, values))}") == ic, kind
        assert lattice.from_json({"preset": kind, **dict(zip(names, values))}) == ic, kind
    for spec in ("standard:3,1", "kleber:2,2", "gale_robinson:4,1,2", "diamond:1", "standard"):
        with pytest.raises(argparse.ArgumentTypeError, match=(
                f"^bad preset '{spec}'; expected standard:N, kleber:I,J,K, "
                "or gale-robinson:P,Q,R,L$")):
            cli._parse_preset(spec)
    for obj in ({"preset": "diamond"}, {"preset": ["standard"], "n": 3}, {"n": 3}):
        with pytest.raises(ValueError, match="^unrecognized initial-conditions object: "):
            lattice.from_json(obj)


def test_verify_builds_only_what_the_properties_read(monkeypatch, capsys):
    def unneeded(*args, **kwargs):
        raise AssertionError("a property built what it does not read")

    # The per-grove properties read masks; none builds a Grove.
    monkeypatch.setattr(groves, "enumerate_local_moves", unneeded)
    monkeypatch.setattr(groves, "_grove", unneeded)
    monkeypatch.setattr(groves.Grove, "__init__", unneeded)
    code, out = run(capsys, "verify", "--preset", "standard:3",
                    "--props", "acyclic,triineq,degrees,injectivity,simplified")
    assert code == 0 and json.loads(out)["pass"] is True
    # coeffone reads the polynomial and the window, no grove.
    monkeypatch.setattr(groves, "_local_move_masks", unneeded)
    code, out = run(capsys, "verify", "--preset", "standard:3", "--props", "coeffone")
    assert code == 0 and json.loads(out)["pass"] is True
    # rhombcount reads neither the polynomial nor the groves.
    monkeypatch.setattr(recurrence, "f_symbolic", unneeded)
    code, out = run(capsys, "verify", "--preset", "standard:3", "--props", "rhombcount")
    assert code == 0 and json.loads(out)["pass"] is True


def test_sequence_with_certificates(capsys):
    code, out = run(
        capsys, "sequence", "--gr", "4,1,2", "--count", "12", "--certify-up-to", "11",
    )
    assert code == 0
    report = json.loads(out)
    values = [int(t["value"]) for t in report["terms"]]
    assert values == [1, 1, 1, 1, 1, 1, 1, 3, 5, 9, 17, 41]
    assert all(t["integral"] for t in report["terms"])
    assert all(c["match"] for c in report["certificates"])
    assert report["certificates"][11]["groves"] == 41


def test_ic_file(tmp_path, capsys):
    path = tmp_path / "ic.json"
    path.write_text(json.dumps({"explicit": {"u_fin": [[0, 0, 0]]}}))
    code, out = run(capsys, "compute", "--ic-file", str(path), "--mode", "all-ones")
    assert code == 0 and out.strip() == "3"


def test_render_to_file(tmp_path, capsys):
    svg = tmp_path / "window.svg"
    code, _ = run(
        capsys, "render", "lattice", "--preset", "standard:3",
        "--cutoff", "3", "--out", str(svg),
    )
    assert code == 0
    assert svg.read_text().startswith('<?xml version="1.0"')

    grove_svg = tmp_path / "grove.svg"
    code, _ = run(
        capsys, "render", "grove", "--preset", "standard:2",
        "--grove-index", "1", "--out", str(grove_svg),
    )
    assert code == 0 and "grove-long" in grove_svg.read_text()

    asm_svg = tmp_path / "asm.svg"
    code, _ = run(
        capsys, "render", "asm", "--preset", "standard:4", "--out", str(asm_svg),
    )
    assert code == 0 and "asm-entry" in asm_svg.read_text()


def test_usage_errors_exit_2(tmp_path, capsys):
    bad_files = {
        "missing.json": None,
        "not-json.json": "{not json",
        "not-an-object.json": "[[0, 0, 0]]",
        "outside-cone.json": json.dumps({"explicit": {"u_fin": [[1, 0, 0]]}}),
        "not-upward-closed.json": json.dumps({"explicit": {"u_fin": [[-1, 0, 0]]}}),
        "no-order.json": json.dumps({"preset": "standard"}),
        "two-coordinate-point.json": json.dumps({"explicit": {"u_fin": [[0, 0]]}}),
        "non-integer-point.json": json.dumps({"explicit": {"u_fin": [[0, 0, "a"]]}}),
        "list-order.json": json.dumps({"preset": "standard", "n": [1]}),
        "string-index.json": json.dumps({"preset": "kleber", "i": "x", "j": 2, "k": 2}),
    }
    argvs = [
        ["compute"],
        ["verify", "--preset", "standard:2", "--props", "imaginary"],
        ["compute", "--preset", "standard:zero"],
    ]
    for name, text in bad_files.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        argvs.append(["compute", "--ic-file", str(path)])
    for argv in argvs:
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, argv


def test_library_usage_errors_exit_2_with_one_line(tmp_path, capsys):
    ic_file = tmp_path / "standard3.json"
    ic_file.write_text(json.dumps(lattice.to_json(lattice.standard(3))))
    both = ["--preset", "standard:2", "--ic-file", str(ic_file)]
    two_presets = ["--preset", "standard:2", "--preset", "standard:3"]
    two_files = ["--ic-file", str(ic_file), "--ic-file", str(ic_file)]
    # Long edges inside standard:3 that split a boundary class between components.
    not_a_grove = tmp_path / "not-a-grove.jsonl"
    not_a_grove.write_text(json.dumps(
        {"long_edges": [["a", -2, 0, 0], ["a", -1, -1, 0], ["a", -1, 0, -1]]}) + "\n")
    argvs = {
        "compute-preset-and-ic-file": ["compute", *both, "--mode", "all-ones"],
        "enumerate-preset-and-ic-file": ["enumerate", *both],
        "render-preset-and-ic-file": ["render", "lattice", *both],
        "compute-two-presets": ["compute", *two_presets, "--mode", "all-ones"],
        "enumerate-two-presets": ["enumerate", *two_presets],
        "render-two-presets": ["render", "lattice", *two_presets],
        "compute-two-ic-files": ["compute", *two_files, "--mode", "all-ones"],
        "enumerate-two-ic-files": ["enumerate", *two_files],
        "render-two-ic-files": ["render", "lattice", *two_files],
        "verify-negative-brute-cap": ["verify", "--preset", "standard:2", "--brute-cap", "-1"],
        "enumerate-negative-brute-cap": ["enumerate", "--preset", "standard:2",
                                         "--method", "brute-force", "--brute-cap", "-1"],
        "render-asm-kleber": ["render", "asm", "--preset", "kleber:2,2,2"],
        "render-cutoff-0": ["render", "lattice", "--preset", "standard:3", "--cutoff", "0"],
        "render-grove-not-a-grove": ["render", "grove", "--preset", "standard:3",
                                     "--grove-file", str(not_a_grove)],
        "render-asm-not-a-grove": ["render", "asm", "--preset", "standard:3",
                                   "--grove-file", str(not_a_grove)],
        "brute-force-cutoff-0": ["enumerate", "--preset", "standard:3",
                                 "--method", "brute-force", "--cutoff", "0"],
        "gr-two-values": ["sequence", "--gr", "1,2"],
        "gr-not-positive": ["sequence", "--gr", "0,1,2"],
        "negative-count": ["sequence", "--gr", "1,1,1", "--count", "-3"],
        "certificate-too-large": ["sequence", "--gr", "1,1,1", "--count", "3",
                                  "--certify-up-to", "8"],
        "negative-certify-up-to": ["sequence", "--gr", "1,1,1", "--count", "5",
                                   "--certify-up-to", "-2"],
        "zero-term": ["sequence", "--gr", "1,1,1", "--alpha", "0", "--beta", "0",
                      "--gamma", "0"],
        "cutoff-without-brute-force": ["enumerate", "--preset", "standard:2", "--cutoff", "0"],
        "render-scale-0": ["render", "lattice", "--preset", "standard:3", "--scale", "0"],
        "render-unknown-layer": ["render", "lattice", "--preset", "standard:3",
                                 "--layers", "foo"],
        "render-scale-nan": ["render", "lattice", "--preset", "standard:2", "--scale", "nan"],
        "render-scale-inf": ["render", "lattice", "--preset", "standard:2", "--scale", "inf"],
        "verify-empty-props": ["verify", "--preset", "standard:2", "--props", ""],
        # --out names a file in a directory that does not exist
        "no-such-dir/out.json": ["compute", "--preset", "standard:2"],
        "brute-force-too-large": ["enumerate", "--preset", "standard:4",
                                  "--method", "brute-force"],
    }
    for name, argv in argvs.items():
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--out", str(tmp_path / name)])
        assert err.value.code == 2, name
        message = capsys.readouterr().err
        assert message.startswith("error: ") and message.count("\n") == 1, name
        if "not-a-grove" in name:
            assert "class-split" in message, message
        assert not (tmp_path / name).exists(), name
    assert "--brute-cap" in message


def test_render_bad_grove_file_exits_2(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    code, _ = run(capsys, "enumerate", "--preset", "standard:2", "--out", str(good))
    assert code == 0
    bad_files = {
        "missing.jsonl": None,
        "not-json.jsonl": "{not json\n",
        "no-long-edges.jsonl": json.dumps({"n": [0, 0, 0]}) + "\n",
        "outside-ideal.jsonl": json.dumps({"long_edges": [["a", -5, 0, 0]]}) + "\n",
        "malformed-edge.jsonl": json.dumps({"long_edges": [["a", 0]]}) + "\n",
        # contained in standard:2, but beyond its minimal window (radius 1)
        "beyond-window.jsonl": json.dumps({"long_edges": [["a", 0, -3, 0]]}) + "\n",
    }
    paths = [good]
    for name, text in bad_files.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        paths.append(path)
    for path in paths:
        argv = ["render", "grove", "--preset", "standard:2", "--grove-file", str(path),
                "--out", str(tmp_path / "grove.svg")]
        if path is good:
            assert cli.main(argv) == 0
            continue
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, path.name
        if path.name == "beyond-window.jsonl":
            assert "Rhombus(axis='a', top=(0, -3, 0))" in capsys.readouterr().err


def _decoded_forest(ic, N, long_edges, keep=lambda edge: True):
    """Union-find over the decoded radius-N edges that keep accepts: the long
    edge on each rhombus in long_edges, else the short one.  The parent map,
    and whether an edge closed a cycle."""
    parent, cyclic = {}, False

    def find(p):
        while parent.get(p, p) != p:
            p = parent[p]
        return p

    for r in ic.rhombi_in_J(N):
        edge = r.long_edge() if r in long_edges else r.short_edge()
        if keep(edge):
            u, v = map(find, edge)
            cyclic |= u == v
            parent[u] = v
    return find, cyclic


def _line(g):
    """g as a --grove-file line, decoded through the Grove."""
    return json.dumps({"long_edges": [[r.axis, *r.top] for r in g.sorted_long_edges()]})


def _even_components_off(ic, g):
    N = ic.min_odd_cutoff
    find, _ = _decoded_forest(ic, N, g.long_edges, lambda edge: sum(edge[0]) % 2 == 0)
    even = [p for p in ic.points_in_J(N) if sum(p) % 2 == 0]
    return len({find(p) for p in even}) != (3 * N + 5) // 2


def _degrees_outside(ic, g):
    x = {v[1:]: e for v, e in groves.monomial_of(g).exps if v[0] == laurent.TAG_X}
    return any(not 1 <= 2 + x.get(p, 0) <= 6 for p in ic.points_in_J(ic.min_cutoff))


def _parity_broken(long_edges):
    n = [sum(r.axis == a for r in long_edges) for a in lattice.AXES]
    return any((sum(n) - 2 * c) < 0 or (sum(n) - 2 * c) % 2 for c in n)


REFERENCES = {
    "acyclic": lambda ic, g: _decoded_forest(ic, ic.min_cutoff, g.long_edges)[1],
    "triineq": lambda ic, g: _parity_broken(g.long_edges),
    "degrees": _degrees_outside,
    "simplified": _even_components_off,
}


def test_grove_properties_fail_exactly_when_their_references_do():
    # Groves with one or two mask bits flipped are mostly not groves; each
    # property must name one exactly when a reference that decodes the long
    # edges finds it at fault.
    rng = random.Random(1212)
    ics = [lattice.standard(3), lattice.standard(4), lattice.kleber(2, 2, 2),
           lattice.gale_robinson(4, 1, 2, 11)] + [random_ic(rng) for _ in range(4)]
    failed = dict.fromkeys(REFERENCES, 0)
    for ic in ics:
        ctx = verify.Context(ic, 18)
        ctx.f_sym = laurent.LaurentPoly.constant(1)  # passes the polynomial's own checks
        n = len(groves._window(ic, ic.min_cutoff).rhombi)
        masks = sorted(g.mask for g in groves.enumerate_local_moves(ic))
        for mask in rng.sample(masks, min(len(masks), 6)):
            flips = [1 << t for t in range(n)]
            flips += [1 << rng.randrange(n) | 1 << rng.randrange(n) for _ in range(4)]
            for flip in flips:
                g = groves._grove(ic, mask ^ flip)
                ctx.masks = [mask ^ flip]
                for name, reference in REFERENCES.items():
                    witness = verify.PROPERTIES[name](ctx)
                    assert (witness is not None) == reference(ic, g), (name, ic, g)
                    assert witness is None or _line(g) in witness
                    failed[name] += witness is not None
                # The simplified grove sees only the even edges, so it may
                # miss a fault of the whole graph, but never reports one it lacks.
                if verify.PROPERTIES["simplified"](ctx) is not None:
                    assert groves.check_grove(g, ic.min_odd_cutoff) is not None
    assert min(failed.values()) > 10, failed


def test_injectivity_names_both_groves_of_a_repeat():
    ic = lattice.standard(3)
    ctx = verify.Context(ic, 18)
    assert verify.PROPERTIES["injectivity"](ctx) is None
    masks = sorted(ctx.masks, key=groves.grove_order)
    ctx.masks = masks + [masks[4]]
    witness = verify.PROPERTIES["injectivity"](ctx)
    line = _line(groves._grove(ic, masks[4]))
    assert witness == f"groves {line} and {line} share a degree table"
    assert groves.grove_from_json(ic, json.loads(line)) == groves._grove(ic, masks[4])


def test_oracle_witness_names_a_grove_only_one_route_found():
    # Flip bit 0 of one local-move mask, drop one, or add one: the witness
    # names the least mask of the symmetric difference, in the groves' sorted
    # long-edge order, and the route that found it.
    ic = lattice.standard(3)
    ctx = verify.Context(ic, 18)
    assert verify.PROPERTIES["oracle"](ctx) is None
    masks = sorted(ctx.masks, key=groves.grove_order)
    brute = len(groves.enumerate_bruteforce(ic))
    corrupted = [masks[:i] + [masks[i] ^ 1] + masks[i + 1:] for i in range(len(masks))]
    corrupted += [masks[1:], masks[:-1], masks + [masks[-1] ^ 1]]
    routes = set()
    for bad in corrupted:
        ctx.masks = bad
        least = min(set(bad) ^ set(masks), key=lambda m: groves._grove(ic, m).sorted_long_edges())
        route = "local moves" if least in bad else "brute force"
        witness = verify.PROPERTIES["oracle"](ctx)
        head = (f"local moves found {len(set(bad))} groves, brute force {brute}; "
                f"only {route} found grove ")
        assert witness.startswith(head), witness
        line = witness[len(head):]
        assert line == _line(groves._grove(ic, least))
        assert groves.grove_from_json(ic, json.loads(line)).mask == least
        routes.add(route)
    assert routes == {"local moves", "brute force"}


def test_a_passing_verify_never_orders_the_groves(monkeypatch, tmp_path, capsys):
    def unneeded(mask):
        raise AssertionError("a passing property ordered the groves")

    monkeypatch.setattr(groves, "grove_order", unneeded)
    ic_file = _ic_file(tmp_path, random_ic(random.Random(2203), depth=1))
    for source in (["--preset", "standard:4"], ["--ic-file", ic_file]):
        code, out = run(capsys, "verify", *source, "--brute-cap", "30")
        statuses = {r["property"]: r["status"] for r in json.loads(out)["results"]}
        assert code == 0 and statuses == dict.fromkeys(cli.PROPERTIES, "pass"), source


def test_shuffled_masks_give_the_witnesses_of_the_ranked_ones():
    # Corrupt a few masks, sometimes repeat some: whatever the order of
    # ctx.masks, each per-grove witness names the first ranked grove that
    # fails alone, injectivity the first ranked repeat of a degree table, and
    # oracle the least grove that only one route found.
    rng = random.Random(3131)
    named = 0
    for ic in (lattice.standard(4), lattice.standard(5), lattice.kleber(2, 2, 2),
               lattice.kleber(2, 3, 2)):
        ctx = verify.Context(ic, 30)
        ctx.f_sym = laurent.LaurentPoly.constant(1)  # passes the polynomial's own checks
        window = ctx.window
        masks = sorted(ctx.masks, key=groves.grove_order)
        try:
            brute = {g.mask for g in groves.enumerate_bruteforce(ic, cap=30)}
        except groves.TooLarge:
            brute = None
        for _ in range(12):
            bad = list(masks)
            for i in rng.sample(range(len(bad)), rng.randint(1, 4)):
                bad[i] ^= 1 << rng.randrange(len(window.rhombi))
            bad += rng.sample(bad, rng.choice((0, 0, 1, 2, 3)))  # repeats, maybe several
            ranked = sorted(bad, key=groves.grove_order)

            def alone(name, m):
                ctx.masks = [m]
                return verify.PROPERTIES[name](ctx)

            want = {name: next(filter(None, (alone(name, m) for m in ranked)), None)
                    for name in ("acyclic", "triineq", "degrees", "simplified")}
            seen, want["injectivity"] = {}, None
            for i, m in enumerate(ranked):
                if (j := seen.setdefault(window.degree_vector(m), i)) != i:
                    want["injectivity"] = (f"groves {ctx.named(ranked[j])} and {ctx.named(m)} "
                                           "share a degree table")
                    break
            if brute is not None:
                ctx.masks = ranked
                want["oracle"] = verify.PROPERTIES["oracle"](ctx)
                least = min(set(bad) ^ brute, default=None,
                            key=lambda m: groves._grove(ic, m).sorted_long_edges())
                assert (want["oracle"] is None) == (least is None)
                assert least is None or want["oracle"].endswith(f" grove {ctx.named(least)}")
            for order in (ranked, bad, rng.sample(bad, len(bad)), ranked[::-1]):
                ctx.masks = order
                assert {name: verify.PROPERTIES[name](ctx) for name in want} == want, ic
            named += sum(w is not None for w in want.values())
    assert named > 50, named


def test_coeffone_witness_names_the_rhombi(monkeypatch):
    # The law holds on every real window, so corrupt a copy of one.
    ic = lattice.standard(3)
    ctx = verify.Context(ic, 18)
    assert verify.PROPERTIES["coeffone"](ctx) is None
    window = groves._Window(ic, ic.min_cutoff)
    r = window.rhombi[0]
    _, x, y = lattice._AXIS[r.axis]
    p = next(i for i, q in enumerate(window.points) if q[x] < r.top[x] and q[y] < r.top[y])
    window.base_degrees = window.base_degrees.copy()
    window.base_degrees[p] += 1
    monkeypatch.setattr(groves, "_window", lambda ic, N: window)
    witness = verify.PROPERTIES["coeffone"](ctx)
    assert witness == f"quadrant sum 1 at {r} in the base grove, expected 0"
