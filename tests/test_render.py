"""SVG output: element counts, determinism, and validation."""

import hashlib

import pytest

from conftest import grove_key
from cuberec import groves, lattice, render
from cuberec.lattice import InitialConditions, Rhombus
from cuberec.render import RenderOptions, render_asm, render_grove, render_lattice

EMPTY = InitialConditions(())
ONE_STEP = InitialConditions([(0, 0, 0)])


def test_lattice_rhombus_outline_count():
    doc = render_lattice(EMPTY, RenderOptions(N=2))
    assert doc.count('<polygon class="rhombus"') == 18


def test_empty_layer_set_gives_bare_canvas():
    doc = render_lattice(EMPTY, RenderOptions(N=2, layers=frozenset()))
    assert doc.startswith('<?xml version="1.0"')
    assert "<polygon" not in doc and "<line" not in doc
    assert doc.rstrip().endswith("</svg>")


def test_window_vertex_counts():
    # 46 labelled vertices appear at cutoff 3, the minimal odd cutoff of order 4;
    # the order-5 window needs cutoff 4 and has 64.
    opts = RenderOptions(N=3, layers=frozenset({"vertex_labels"}))
    doc = render_lattice(lattice.standard(4), opts)
    assert doc.count('<text class="vertex-label"') == 46
    opts5 = RenderOptions(N=4, layers=frozenset({"vertex_labels"}))
    doc5 = render_lattice(lattice.standard(5), opts5)
    assert doc5.count('<text class="vertex-label"') == 64


def test_byte_determinism():
    opts = RenderOptions(N=3, layers=render.LAYERS)
    a = render_lattice(lattice.standard(4), opts)
    b = render_lattice(lattice.standard(4), opts)
    assert a == b
    g = sorted(groves.enumerate_local_moves(ONE_STEP), key=grove_key)[0]
    assert render_grove(g, RenderOptions(N=1)) == render_grove(g, RenderOptions(N=1))


def test_pinned_bytes():
    # Fixed SHA-256 digests: a change to how pictures are drawn must not move a byte.
    def digest(doc):
        return hashlib.sha256(doc.encode()).hexdigest()

    doc = render_lattice(lattice.standard(4), RenderOptions(N=3, layers=render.LAYERS))
    assert digest(doc) == "a49975520e188aaa84e634c5e24a6789028e641b81e281475edb6f11878d01ae"
    g = groves.Grove(lattice.standard(3), frozenset({
        Rhombus("b", (-1, -1, 0)),
        Rhombus("b", (0, -2, 0)),
        Rhombus("c", (-1, 0, -1)),
        Rhombus("c", (0, 0, -2)),
    }))
    doc = render_grove(g, RenderOptions(layers=render.LAYERS))
    assert digest(doc) == "b207e18a822c670b9b8f7ad55ec26d15baf7b784dd942b02352a25ff3b28fe4f"


def test_grove_edge_counts():
    gs = sorted(groves.enumerate_local_moves(ONE_STEP), key=grove_key)
    doc = render_grove(gs[0], RenderOptions(N=1))
    long = doc.count('<line class="grove-long"')
    short = doc.count('<line class="grove-short"')
    assert long == 2
    assert long + short == len(ONE_STEP.rhombi_in_J(1))
    base = groves.base_grove(EMPTY)
    doc = render_grove(base, RenderOptions(N=1))
    assert doc.count('<line class="grove-long"') == 0
    assert doc.count('<line class="grove-short"') == len(EMPTY.rhombi_in_J(1))


def test_boundary_class_layer():
    opts = RenderOptions(N=1, layers=frozenset({"boundary_classes"}))
    doc = render_lattice(ONE_STEP, opts)
    marks = doc.count('<circle class="class-mark"')
    assert marks == sum(len(c) for c in groves.boundary_classes(1))


def test_asm_render():
    g = sorted(groves.enumerate_local_moves(lattice.standard(2)), key=grove_key)[0]
    tri = groves.asm_triangle(g)
    doc = render_asm(tri)
    assert doc.count('<text class="asm-entry"') == 3
    assert render_asm(tri) == doc


def test_asm_rejects_bad_entries():
    with pytest.raises(ValueError):
        render_asm([[2]])


def test_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(scale=0)
    with pytest.raises(ValueError):
        RenderOptions(layers=frozenset({"halo"}))
