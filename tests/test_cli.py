"""Command-line surface: outputs, formats, and exit codes."""

import json

import pytest

from cuberec import cli, groves, laurent, lattice, recurrence


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


def test_compute_shift_octa(capsys):
    code, out = run(capsys, "compute", "--preset", "standard:2", "--mode", "shift-octa")
    assert code == 0
    poly = laurent.from_json(json.loads(out))
    assert len(poly) == 2


def test_enumerate_lines(capsys):
    code, out = run(capsys, "enumerate", "--preset", "standard:3")
    lines = [json.loads(s) for s in out.strip().splitlines()]
    assert code == 0 and len(lines) == 9
    assert all(set(obj) == {"long_edges", "n", "degrees"} for obj in lines)


def test_enumerate_bruteforce_matches(capsys):
    _, brute = run(capsys, "enumerate", "--preset", "standard:3", "--method", "brute-force")
    _, local = run(capsys, "enumerate", "--preset", "standard:3")
    assert brute == local


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


def test_verify_builds_only_what_the_properties_read(monkeypatch, capsys):
    def unneeded(*args, **kwargs):
        raise AssertionError("rhombcount reads neither the polynomial nor the groves")

    monkeypatch.setattr(recurrence, "f_symbolic", unneeded)
    monkeypatch.setattr(groves, "enumerate_local_moves", unneeded)
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
    argvs = {
        "render-asm-kleber": ["render", "asm", "--preset", "kleber:2,2,2"],
        "render-cutoff-0": ["render", "lattice", "--preset", "standard:3", "--cutoff", "0"],
        "brute-force-cutoff-0": ["enumerate", "--preset", "standard:3",
                                 "--method", "brute-force", "--cutoff", "0"],
        "gr-two-values": ["sequence", "--gr", "1,2"],
        "gr-not-positive": ["sequence", "--gr", "0,1,2"],
        "negative-count": ["sequence", "--gr", "1,1,1", "--count", "-3"],
        "certificate-too-large": ["sequence", "--gr", "1,1,1", "--count", "3",
                                  "--certify-up-to", "8"],
        "render-scale-0": ["render", "lattice", "--preset", "standard:3", "--scale", "0"],
        "render-unknown-layer": ["render", "lattice", "--preset", "standard:3",
                                 "--layers", "foo"],
        "brute-force-too-large": ["enumerate", "--preset", "standard:4",
                                  "--method", "brute-force"],
    }
    for name, argv in argvs.items():
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--out", str(tmp_path / name)])
        assert err.value.code == 2, name
        message = capsys.readouterr().err
        assert message.startswith("error: ") and message.count("\n") == 1, name
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
