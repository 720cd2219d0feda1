"""Command-line interface.

Subcommands:

    compute    print the origin polynomial (JSON) or its all-ones value
    enumerate  list groves as JSON lines
    verify     run property suites against one or more initial conditions
    sequence   Gale-Robinson terms with optional grove certificates
    render     write an SVG figure (lattice window, grove, or sign triangle)

Exit status: 0 on success, 1 when a verify property fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, NamedTuple

from . import groves, lattice, laurent, recurrence, render, sequences


def _parse_preset(spec: str) -> lattice.InitialConditions:
    kind, _, rest = spec.partition(":")
    args = [int(s) for s in rest.split(",")] if rest else []
    try:
        if kind == "standard" and len(args) == 1:
            return lattice.standard(*args)
        if kind == "kleber" and len(args) == 3:
            return lattice.kleber(*args)
        if kind in ("gale-robinson", "gale_robinson") and len(args) == 4:
            return lattice.gale_robinson(*args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    raise argparse.ArgumentTypeError(
        f"bad preset {spec!r}; expected standard:N, kleber:I,J,K, "
        "or gale-robinson:P,Q,R,L"
    )


def _add_ic_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", type=_parse_preset, action="append",
                     help="standard:N | kleber:I,J,K | gale-robinson:P,Q,R,L")
    sub.add_argument("--ic-file", action="append",
                     help="path to an initial-conditions JSON file")


def _usage_error(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _bad_cutoff(N: int, ic: lattice.InitialConditions) -> SystemExit:
    return _usage_error(
        f"--cutoff {N} is not a cutoff of these initial conditions "
        f"(the least is {ic.min_cutoff})"
    )


def _load_ics(args) -> list[lattice.InitialConditions]:
    ics = list(args.preset or [])
    for path in args.ic_file or []:
        try:
            with open(path) as fh:
                ics.append(lattice.from_json(json.load(fh)))
        except (OSError, ValueError, KeyError) as exc:
            raise _usage_error(f"bad --ic-file {path}: {exc}")
    if not ics:
        raise _usage_error("provide --preset or --ic-file")
    return ics


def _load_ic(args) -> lattice.InitialConditions:  # for compute, enumerate and render
    ics = _load_ics(args)
    if len(ics) > 1:
        raise _usage_error(f"{args.command} takes one --preset or --ic-file, not {len(ics)}")
    return ics[0]


def _check_brute_cap(args) -> None:
    if args.brute_cap < 0:
        raise _usage_error(f"--brute-cap must be >= 0, not {args.brute_cap}")


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write chunks, each as it is made, to --out or stdout."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise _usage_error(f"cannot write --out {out}: {exc}")
    else:
        sys.stdout.writelines(chunks)


_FLIP = str.maketrans("01", "10")


def _grove_order(mask: int) -> str:
    """A key that orders masks as the lists of their set bits, lowest first: enumerate's order.

    Bit 0 up to the highest set bit, "0" for a set bit and "1" for a clear
    one.  At the first difference the list with the lesser bit has "0"; a
    list that extends another has a key that extends the other's.
    """
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


def cmd_compute(args) -> int:
    ic = _load_ic(args)
    if args.mode == "all-ones":
        _emit([str(recurrence.f_numeric(ic)) + "\n"], args.out)
        return 0
    poly = recurrence.f_symbolic(ic, args.mode)
    _emit([json.dumps(laurent.to_json(poly)) + "\n"], args.out)
    return 0


def cmd_enumerate(args) -> int:
    if args.cutoff is not None and args.method != "brute-force":
        raise _usage_error("--cutoff applies only to --method brute-force")
    _check_brute_cap(args)
    ic = _load_ic(args)
    if args.method == "brute-force":
        try:
            gs = groves.enumerate_bruteforce(ic, N=args.cutoff, cap=args.brute_cap)
        except lattice.NotACutoff:
            raise _bad_cutoff(args.cutoff, ic)
        except groves.TooLarge as exc:
            raise _usage_error(f"{exc}; raise --brute-cap or use --method local-moves")
        masks = {g.mask for g in gs}
    else:
        masks = groves._local_move_masks(ic)
    # sorted runs here, before _emit opens --out; each line is made as it is written.
    _emit((json.dumps(groves.grove_to_json(groves._grove(ic, m))) + "\n"
           for m in sorted(masks, key=_grove_order)), args.out)
    return 0


def cmd_sequence(args) -> int:
    if len(args.gr) != 3:
        raise _usage_error(f"--gr takes three values P,Q,R, not {len(args.gr)}")
    if args.certify_up_to is not None and args.certify_up_to < 0:
        raise _usage_error("--certify-up-to must be >= 0")
    p, q, r = args.gr
    try:
        coeffs = Fraction(args.alpha), Fraction(args.beta), Fraction(args.gamma)
        spec = sequences.GaleRobinsonSpec(p, q, r, *coeffs)
        terms = sequences.gr_terms(spec, args.count)
    except (ValueError, ZeroDivisionError) as exc:
        raise _usage_error(f"sequence: {exc}")
    report = {"p": p, "q": q, "r": r,
              "terms": [{"value": str(t), "integral": sequences.is_integral(t)} for t in terms]}
    ok = True
    if args.certify_up_to is not None:
        certs = []
        for l in range(args.certify_up_to + 1):
            try:
                cert = sequences.gr_certificate(spec, l)
            except groves.TooLarge as exc:
                raise _usage_error(f"--certify-up-to {args.certify_up_to}: {exc}")
            ok = ok and cert.count_match
            certs.append({"l": cert.l, "recursion": str(cert.recursion_value),
                          "groves": cert.grove_count, "match": cert.count_match})
        report["certificates"] = certs
    _emit([json.dumps(report, indent=2) + "\n"], args.out)
    return 0 if ok else 1


def _pick_grove(args, ic: lattice.InitialConditions) -> groves.Grove:
    if args.grove_file:
        try:
            with open(args.grove_file) as fh:
                g = groves.grove_from_json(ic, json.loads(fh.readline()))
        except (OSError, ValueError) as exc:
            raise _usage_error(f"bad --grove-file {args.grove_file}: {exc}")
        if (violation := groves.check_grove(g)) is not None:
            raise _usage_error(f"bad --grove-file {args.grove_file}: not a grove, {violation}")
        return g
    masks = sorted(groves._local_move_masks(ic), key=_grove_order)
    if not 0 <= args.grove_index < len(masks):
        raise _usage_error(f"grove index out of range 0..{len(masks)-1}")
    return groves._grove(ic, masks[args.grove_index])


def cmd_render(args) -> int:
    try:
        layers = frozenset(args.layers.split(",")) if args.layers else render.DEFAULT_LAYERS
        opts = render.RenderOptions(scale=args.scale, layers=layers, N=args.cutoff)
    except ValueError as exc:
        raise _usage_error(f"render: {exc}")
    ic = _load_ic(args)
    try:
        if args.target == "lattice":
            doc = render.render_lattice(ic, opts)
        elif args.target == "grove":
            doc = render.render_grove(_pick_grove(args, ic), opts)
        else:
            g = _pick_grove(args, ic)
            try:
                triangle = groves.asm_triangle(g)
            except ValueError as exc:
                raise _usage_error(f"render asm: {exc}")
            doc = render.render_asm(triangle, opts)
    except lattice.NotACutoff:
        raise _bad_cutoff(args.cutoff, ic)
    _emit([doc], args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
#
# A property returns None when it found no counterexample, a witness string
# when it found one, or Skipped when it could not run.  Groves are masks, in
# no order.  A witness names the first failing grove in enumerate's order
# (_grove_order), so only a failing run sorts, and only the masks that fail.

class Skipped(NamedTuple):
    reason: str


def _prop_main_theorem(ic, ctx):
    f_sym = ctx.f_sym
    f_sub = recurrence.f_via_substitution(ic)
    total = groves.mask_sum(ctx.window, ctx.masks)
    if f_sym != f_sub:
        return "symbolic and substitution evaluators disagree"
    if total != f_sym:
        return "grove monomials do not sum to the polynomial"
    return None


def _prop_oracle(ic, ctx):
    try:
        brute = {g.mask for g in groves.enumerate_bruteforce(ic, cap=ctx.brute_cap)}
    except groves.TooLarge as exc:
        return Skipped(f"{exc} (--brute-cap)")
    mine = set(ctx.masks)
    if mine != brute:
        m = min(mine ^ brute, key=_grove_order)
        return (f"local moves found {len(mine)} groves, brute force {len(brute)}; only "
                f"{'local moves' if m in mine else 'brute force'} found grove {ctx.named(m)}")
    return None


def _prop_acyclic(ic, ctx):
    window = ctx.window
    m = ctx.first(lambda m: not window.forest(m))
    return None if m is None else f"cyclic grove {ctx.named(m)}"


def _prop_triineq(ic, ctx):
    window = ctx.window

    def broken(m):
        a, b, c = window.axis_counts(m)
        return a + b < c or b + c < a or c + a < b or (a + b + c) % 2

    m = ctx.first(broken)
    if m is not None:
        return ("axis counts (%d,%d,%d) break the parity law in grove " % window.axis_counts(m)
                + ctx.named(m))
    try:
        recurrence.abc_from_edge_vars(ctx.f_sym)
    except recurrence.HalfIntegerExponent as exc:
        return str(exc)
    return None


def _prop_coeffone(ic, ctx):
    """Coefficient one: the polynomial's coefficients, then the quadrant law on the window.

    The polynomial half catches a coefficient other than 1, such as a grove
    monomial counted twice.  The grove half (each rhombus's quadrant sum of
    degree - 2 is minus its bit) is linear in the mask, so it is checked once
    on the minimal window, for every set of long edges (_Window.quadrant_fault);
    no grove is built.  A grove breaking the law would break it there too.
    ``acyclic``, ``degrees`` and ``simplified`` check the groves themselves.
    """
    bad = [c for c in ctx.f_sym.coefficients() if c != 1]
    if bad:
        return f"non-unit coefficients {bad[:5]}"
    return ctx.window.quadrant_fault


def _prop_degrees(ic, ctx):
    rng = ctx.f_sym.exponent_range(laurent.TAG_X)
    if rng and (rng[0] < -1 or rng[1] > 4):
        return f"lattice-variable exponents {rng} outside [-1, 4]"
    window = ctx.window
    m = ctx.first(lambda m: not window.degrees_within(window.degree_vector(m), 1, 6))
    if m is None:
        return None
    degs = window.degree_bytes(m)
    return f"vertex degree range [{min(degs)},{max(degs)}] outside [1, 6] in grove {ctx.named(m)}"


def _prop_injectivity(ic, ctx):
    """No two groves share a degree table; on a repeat, the least pair in enumerate's order."""
    window, masks, seen = ctx.window, ctx.masks, {}
    if len(set(map(window.degree_vector, masks))) == len(masks):
        return None
    for m in sorted(masks, key=_grove_order):
        key = window.degree_vector(m)
        if key in seen:
            return f"groves {ctx.named(seen[key])} and {ctx.named(m)} share a degree table"
        seen[key] = m
    return None


def _prop_rhombcount(ic, ctx):
    for N in range(ic.min_cutoff, ic.min_cutoff + 5):
        if len(ic.points_in_J(N)) != groves.window_point_count(N):
            return f"window point count off at N={N}"
        if len(ic.rhombi_in_J(N)) != groves.window_rhombus_count(N):
            return f"window rhombus count off at N={N}"
    return None


def _prop_simplified(ic, ctx):
    """Simplified groves: distinct even edges in the window, then each grove's component count.

    With distinct even edges, from_simplified inverts to_simplified on every
    mask in the window, and a grove whose round trip failed would share an
    even edge between two positions; so the round trip is checked once here.
    Each grove's components are counted over window-index pairs
    (_Window.even_components); no simplified grove is built.
    """
    N = ic.min_odd_cutoff
    window = groves._window(ic, N)
    _, edges, even_bit, _ = window.even_tables
    if len(even_bit) < len(edges):  # even_bit keeps each edge's last position
        t = next(t for t, e in enumerate(edges) if even_bit[e] != 1 << t)
        u = even_bit[edges[t]].bit_length() - 1
        return f"rhombi {window.rhombi[t]} and {window.rhombi[u]} share the even edge {edges[t]}"
    want = (3 * N + 5) // 2
    m = ctx.first(lambda m: window.even_components(m) != want)
    if m is None:
        return None
    return (f"simplified grove has {window.even_components(m)} components, expected {want}, "
            f"in grove {ctx.named(m)}")


def _prop_octahedron(ic, ctx):
    """The two-term specialization by three routes: walk, substitution, balanced groves.

    octahedron_check compares the walk in shift-octa mode with substitution
    in that mode; the sum over the groves with n_a + n_b = n_c, edge
    variables dropped, must then equal the walk's polynomial.
    """
    report = recurrence.octahedron_check(ic)
    if not report.equal:
        return "substitution disagrees with the walk in shift-octa mode"

    window = ctx.window

    def balanced(m):
        a, b, c = window.axis_counts(m)
        return a + b == c

    filtered = laurent.drop_variables(
        groves.mask_sum(window, filter(balanced, ctx.masks)),
        (laurent.TAG_A, laurent.TAG_B, laurent.TAG_C),
    )
    if filtered != report.direct:
        return "grove filter does not match the two-term specialization"
    return None


PROPERTIES = {
    "main-theorem": _prop_main_theorem,
    "oracle": _prop_oracle,
    "acyclic": _prop_acyclic,
    "triineq": _prop_triineq,
    "coeffone": _prop_coeffone,
    "degrees": _prop_degrees,
    "injectivity": _prop_injectivity,
    "rhombcount": _prop_rhombcount,
    "simplified": _prop_simplified,
    "octahedron": _prop_octahedron,
}


class _VerifyContext:
    """What the properties share about one ic; masks and f_sym are built on first use."""

    def __init__(self, ic, brute_cap: int):
        self.ic, self.brute_cap = ic, brute_cap

    @cached_property
    def masks(self) -> Collection[int]:
        """Every grove's mask, in no order."""
        return groves._local_move_masks(self.ic)

    @cached_property
    def f_sym(self) -> laurent.LaurentPoly:
        return recurrence.f_symbolic(self.ic)

    @property
    def window(self):  # groves._window keeps it per ideal
        return groves._window(self.ic, self.ic.min_cutoff)

    def first(self, fails) -> int | None:
        """The first mask in enumerate's order for which fails is true; None if none is."""
        return min(filter(fails, self.masks), key=_grove_order, default=None)

    def named(self, mask: int) -> str:
        """The grove of mask as a --grove-file line, which render grove reads back."""
        edges = groves._at_bits(self.window.rhombi, mask)
        return json.dumps({"long_edges": [[r.axis, *r.top] for r in edges]})


def cmd_verify(args) -> int:
    props = args.props.split(",") if args.props is not None else list(PROPERTIES)
    unknown = [p for p in props if p not in PROPERTIES]
    if unknown:
        raise _usage_error(f"unknown properties {unknown}")
    _check_brute_cap(args)
    results = []
    ok = True
    for ic in _load_ics(args):
        ctx = _VerifyContext(ic, args.brute_cap)
        for name in props:
            outcome = PROPERTIES[name](ic, ctx)
            skipped = isinstance(outcome, Skipped)
            witness = None if skipped else outcome
            ok = ok and witness is None
            result = {"property": name, "ic": lattice.to_json(ic),
                      "status": "skipped" if skipped else "pass" if witness is None else "fail",
                      "pass": witness is None, "witness": witness}
            if skipped:
                result["reason"] = outcome.reason
            results.append(result)
    _emit([json.dumps({"pass": ok, "results": results}, indent=2) + "\n"], args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuberec",
        description="cube-recurrence polynomials, groves, and sequence certificates",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compute", help="origin polynomial or all-ones value")
    _add_ic_args(sub)
    sub.add_argument("--mode", default="edge-vars",
                     choices=["edge-vars", "abc", "all-ones", "shift-octa"])
    sub.add_argument("--out")

    sub = subs.add_parser("enumerate", help="list groves as JSON lines")
    _add_ic_args(sub)
    sub.add_argument("--method", default="local-moves",
                     choices=["local-moves", "brute-force"])
    sub.add_argument("--cutoff", type=int, default=None)
    sub.add_argument("--brute-cap", type=int, default=18)
    sub.add_argument("--out")

    sub = subs.add_parser("verify", help="run property suites")
    _add_ic_args(sub)
    sub.add_argument("--props", default=None,
                     help="comma-separated subset of: " + ",".join(PROPERTIES))
    sub.add_argument("--brute-cap", type=int, default=18)
    sub.add_argument("--out")

    sub = subs.add_parser("sequence", help="Gale-Robinson terms and certificates")
    sub.add_argument("--gr", required=True, type=lambda s: [int(v) for v in s.split(",")],
                     metavar="P,Q,R")
    sub.add_argument("--count", type=int, default=12)
    sub.add_argument("--certify-up-to", type=int, default=None)
    sub.add_argument("--alpha", type=int, default=1)
    sub.add_argument("--beta", type=int, default=1)
    sub.add_argument("--gamma", type=int, default=1)
    sub.add_argument("--out")

    sub = subs.add_parser("render", help="write an SVG figure")
    sub.add_argument("target", choices=["lattice", "grove", "asm"])
    _add_ic_args(sub)
    sub.add_argument("--cutoff", type=int, default=None)
    sub.add_argument("--scale", type=float, default=40.0)
    sub.add_argument("--layers", default=None)
    sub.add_argument("--grove-index", type=int, default=0)
    sub.add_argument("--grove-file")
    sub.add_argument("--out")

    return parser


# Built once, at import; each command runs as the module's cmd_<command>,
# looked up on every call so that a patched module attribute takes effect.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
