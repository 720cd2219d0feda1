"""The local-move walk against an independent reference walk over rhombus bits.

Brute force cannot reach most of these windows, so the reference is a second
walk: bit t stands for a rhombus, not an edge variable, and each step
rebuilds the whole set through a table of at most seven successor patterns.
Restoring u moves each long edge at u one step down its axis's free
coordinate, onto a rhombus with a bit of its own.
"""

import random

import pytest

from conftest import random_ic
from cuberec import groves, lattice
from cuberec.groves import CorrespondenceMismatch
from cuberec.lattice import _AXIS, _UNIT, Rhombus, _sub


def reference_masks(ic):
    window = groves._window(ic, ic.min_cutoff)
    rhombi = list(window.rhombi)
    bits = {r: 1 << t for t, r in enumerate(rhombi)}

    def bit(r):
        if r not in bits:
            bits[r] = 1 << len(rhombi)
            rhombi.append(r)
        return bits[r]

    masks = {0}
    for u in reversed(ic.peel_sequence()):
        (ha, da), (hb, db), (hc, dc) = (
            (bit(Rhombus(axis, u)), bit(Rhombus(axis, _sub(u, _UNIT[t]))))
            for axis, (t, _, _) in _AXIS.items()
        )
        old = ha | hb | hc
        successors = {
            0: (db | dc, da | dc, da | db),
            ha: (da,), hb: (db,), hc: (dc,),
            ha | hb: (0,), ha | hc: (0,), hb | hc: (0,),
        }
        if any(m & old == old for m in masks):
            raise CorrespondenceMismatch(f"all three long edges present at {u}")
        masks = {(m & ~old) | d for m in masks for d in successors[m & old]}
    if any(m >> window.bits for m in masks):
        raise CorrespondenceMismatch("a long edge lies beyond the minimal window")
    return masks


def _cases():
    rng = random.Random(1601)
    for i in range(24):
        ic = random_ic(rng, depth=rng.randint(1, 3), boxes=rng.randint(1, 4))
        yield pytest.param(ic, id=f"random-{i}")
    yield pytest.param(lattice.kleber(3, 3, 3), id="kleber-3,3,3")
    for l in (13, 14, 15):
        yield pytest.param(lattice.gale_robinson(4, 1, 2, l), id=f"somos7-{l}")
    for l in (11, 12, 13):
        yield pytest.param(lattice.gale_robinson(1, 2, 3, l), id=f"somos6-{l}")


@pytest.mark.parametrize("ic", list(_cases()))
def test_walk_equals_the_reference_walk(ic):
    assert groves._local_move_masks(ic) == reference_masks(ic)
