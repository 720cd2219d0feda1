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
from typing import NamedTuple

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


def _add_ic_args(sub: argparse.ArgumentParser, multiple: bool = False) -> None:
    action = "append" if multiple else "store"
    sub.add_argument("--preset", type=_parse_preset, action=action,
                     help="standard:N | kleber:I,J,K | gale-robinson:P,Q,R,L")
    sub.add_argument("--ic-file", action=action,
                     help="path to an initial-conditions JSON file")


def _usage_error(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _bad_cutoff(N: int, ic: lattice.InitialConditions) -> SystemExit:
    return _usage_error(
        f"--cutoff {N} is not a cutoff of these initial conditions "
        f"(the least is {ic.min_cutoff})"
    )


def _load_ics(args, multiple: bool = False) -> list[lattice.InitialConditions]:
    ics = []
    presets = args.preset if multiple else ([args.preset] if args.preset else [])
    files = args.ic_file if multiple else ([args.ic_file] if args.ic_file else [])
    ics.extend(p for p in (presets or []) if p is not None)
    for path in files or []:
        try:
            with open(path) as fh:
                ics.append(lattice.from_json(json.load(fh)))
        except (OSError, ValueError, KeyError) as exc:
            raise _usage_error(f"bad --ic-file {path}: {exc}")
    if not ics:
        raise _usage_error("provide --preset or --ic-file")
    return ics


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sorted_groves(gs) -> list[groves.Grove]:
    return sorted(gs, key=lambda g: tuple(g.sorted_long_edges()))


def cmd_compute(args) -> int:
    ic = _load_ics(args)[0]
    if args.mode == "all-ones":
        value = recurrence.f_numeric(ic)
        _emit(str(value) + "\n", args.out)
        return 0
    poly = recurrence.f_symbolic(ic, args.mode)
    _emit(json.dumps(laurent.to_json(poly)) + "\n", args.out)
    return 0


def cmd_enumerate(args) -> int:
    ic = _load_ics(args)[0]
    if args.method == "brute-force":
        try:
            gs = groves.enumerate_bruteforce(ic, N=args.cutoff, cap=args.brute_cap)
        except lattice.NotACutoff:
            raise _bad_cutoff(args.cutoff, ic)
        except groves.TooLarge as exc:
            raise _usage_error(f"{exc}; raise --brute-cap or use --method local-moves")
    else:
        gs = groves.enumerate_local_moves(ic)
    lines = [json.dumps(groves.grove_to_json(g)) for g in _sorted_groves(gs)]
    _emit("\n".join(lines) + "\n" if lines else "", args.out)
    return 0


def cmd_sequence(args) -> int:
    if len(args.gr) != 3:
        raise _usage_error(f"--gr takes three values P,Q,R, not {len(args.gr)}")
    p, q, r = args.gr
    try:
        spec = sequences.GaleRobinsonSpec(
            p, q, r,
            alpha=Fraction(args.alpha), beta=Fraction(args.beta), gamma=Fraction(args.gamma),
        )
        terms = sequences.gr_terms(spec, args.count)
    except ValueError as exc:
        raise _usage_error(f"sequence: {exc}")
    report = {
        "p": p, "q": q, "r": r,
        "terms": [
            {"value": str(t), "integral": sequences.is_integral(t)} for t in terms
        ],
    }
    ok = True
    if args.certify_up_to is not None:
        certs = []
        for l in range(args.certify_up_to + 1):
            try:
                cert = sequences.gr_certificate(spec, l)
            except groves.TooLarge as exc:
                raise _usage_error(f"--certify-up-to {args.certify_up_to}: {exc}")
            ok = ok and cert.count_match
            certs.append({
                "l": cert.l,
                "recursion": str(cert.recursion_value),
                "groves": cert.grove_count,
                "match": cert.count_match,
            })
        report["certificates"] = certs
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if ok else 1


def _pick_grove(args, ic: lattice.InitialConditions) -> groves.Grove:
    if args.grove_file:
        try:
            with open(args.grove_file) as fh:
                return groves.grove_from_json(ic, json.loads(fh.readline()))
        except (OSError, ValueError) as exc:
            raise _usage_error(f"bad --grove-file {args.grove_file}: {exc}")
    gs = _sorted_groves(groves.enumerate_local_moves(ic))
    if not 0 <= args.grove_index < len(gs):
        raise _usage_error(f"grove index out of range 0..{len(gs)-1}")
    return gs[args.grove_index]


def cmd_render(args) -> int:
    try:
        opts = render.RenderOptions(
            scale=args.scale,
            layers=frozenset(args.layers.split(",")) if args.layers else render.DEFAULT_LAYERS,
            N=args.cutoff,
        )
    except ValueError as exc:
        raise _usage_error(f"render: {exc}")
    ic = _load_ics(args)[0]
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
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
#
# A property returns None when it found no counterexample, a witness string
# when it found one, or Skipped when it could not run.

class Skipped(NamedTuple):
    reason: str


def _prop_main_theorem(ic, ctx):
    f_sym = ctx["f_sym"]
    f_sub = recurrence.f_via_substitution(ic)
    total = groves.grove_sum(ctx["groves"])
    if f_sym != f_sub:
        return "symbolic and substitution evaluators disagree"
    if total != f_sym:
        return "grove monomials do not sum to the polynomial"
    return None


def _prop_oracle(ic, ctx):
    try:
        brute = groves.enumerate_bruteforce(ic, cap=ctx["brute_cap"])
    except groves.TooLarge as exc:
        return Skipped(f"{exc} (--brute-cap)")
    mine = {g.long_edges for g in ctx["groves"]}
    theirs = {g.long_edges for g in brute}
    if mine != theirs:
        return f"local moves found {len(mine)} groves, brute force {len(theirs)}"
    return None


def _prop_acyclic(ic, ctx):
    for g in ctx["groves"]:
        if not groves.is_acyclic(g):
            return f"cyclic grove {sorted(g.long_edges)}"
    return None


def _prop_triineq(ic, ctx):
    for g in ctx["groves"]:
        st = groves.stats(g)
        for v in (st.n_a + st.n_b - st.n_c, st.n_b + st.n_c - st.n_a,
                  st.n_c + st.n_a - st.n_b):
            if v < 0 or v % 2 != 0:
                return f"axis counts ({st.n_a},{st.n_b},{st.n_c}) break the parity law"
    try:
        recurrence.abc_from_edge_vars(ctx["f_sym"])
    except recurrence.HalfIntegerExponent as exc:
        return str(exc)
    return None


def _prop_coeffone(ic, ctx):
    bad = [c for c in ctx["f_sym"].coefficients() if c != 1]
    if bad:
        return f"non-unit coefficients {bad[:5]}"
    rhombi = ic.rhombi_in_J(ic.min_cutoff)
    for g in ctx["groves"]:
        for r in rhombi:
            s = groves.coeffone_sums(g, r)
            expected = -1 if r in g.long_edges else 0
            if s != expected:
                return f"quadrant sum {s} at {r}, expected {expected}"
    return None


def _prop_degrees(ic, ctx):
    rng = ctx["f_sym"].exponent_range(laurent.TAG_X)
    if rng and (rng[0] < -1 or rng[1] > 4):
        return f"lattice-variable exponents {rng} outside [-1, 4]"
    for g in ctx["groves"]:
        degs = groves.grove_degrees(g)
        lo, hi = min(degs.values()), max(degs.values())
        if lo < 1 or hi > 6:
            return f"vertex degree range [{lo},{hi}] outside [1, 6]"
    return None


def _prop_injectivity(ic, ctx):
    seen = {}
    for g in ctx["groves"]:
        key = tuple(sorted(groves.stats(g).degree.items()))
        if key in seen:
            return "two groves share a degree table"
        seen[key] = g
    return None


def _prop_rhombcount(ic, ctx):
    for N in range(ic.min_cutoff, ic.min_cutoff + 5):
        if len(ic.points_in_J(N)) != groves.window_point_count(N):
            return f"window point count off at N={N}"
        if len(ic.rhombi_in_J(N)) != groves.window_rhombus_count(N):
            return f"window rhombus count off at N={N}"
    return None


def _prop_simplified(ic, ctx):
    N = ic.min_odd_cutoff
    want = (3 * N + 5) // 2
    for g in ctx["groves"]:
        s = groves.to_simplified(g, N)
        if groves.from_simplified(s) != g:
            return "simplified grove round trip failed"
        c = groves.simplified_components(s)
        if c != want:
            return f"simplified grove has {c} components, expected {want}"
    return None


def _prop_octahedron(ic, ctx):
    report = recurrence.octahedron_check(ic)
    if not report.equal:
        return "transformed recurrence disagrees with the direct one"

    def balanced(g):
        st = groves.stats(g)
        return st.n_a + st.n_b == st.n_c

    filtered = laurent.drop_variables(
        groves.grove_sum(filter(balanced, ctx["groves"])),
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


class _VerifyContext(dict):
    """What the properties share about one ic; each entry is built on first use."""

    def __init__(self, ic, brute_cap: int):
        super().__init__(brute_cap=brute_cap)
        self.ic = ic

    def __missing__(self, key):
        if key == "f_sym":
            value = recurrence.f_symbolic(self.ic)
        elif key == "groves":
            value = _sorted_groves(groves.enumerate_local_moves(self.ic))
        else:
            raise KeyError(key)
        self[key] = value
        return value


def cmd_verify(args) -> int:
    props = args.props.split(",") if args.props else list(PROPERTIES)
    unknown = [p for p in props if p not in PROPERTIES]
    if unknown:
        raise _usage_error(f"unknown properties {unknown}")
    results = []
    ok = True
    for ic in _load_ics(args, multiple=True):
        ctx = _VerifyContext(ic, args.brute_cap)
        for name in props:
            outcome = PROPERTIES[name](ic, ctx)
            skipped = isinstance(outcome, Skipped)
            witness = None if skipped else outcome
            ok = ok and witness is None
            result = {
                "property": name,
                "ic": lattice.to_json(ic),
                "status": "skipped" if skipped else "pass" if witness is None else "fail",
                "pass": witness is None,
                "witness": witness,
            }
            if skipped:
                result["reason"] = outcome.reason
            results.append(result)
    _emit(json.dumps({"pass": ok, "results": results}, indent=2) + "\n", args.out)
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
    sub.set_defaults(func=cmd_compute)

    sub = subs.add_parser("enumerate", help="list groves as JSON lines")
    _add_ic_args(sub)
    sub.add_argument("--method", default="local-moves",
                     choices=["local-moves", "brute-force"])
    sub.add_argument("--cutoff", type=int, default=None)
    sub.add_argument("--brute-cap", type=int, default=18)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("verify", help="run property suites")
    _add_ic_args(sub, multiple=True)
    sub.add_argument("--props", default=None,
                     help="comma-separated subset of: " + ",".join(PROPERTIES))
    sub.add_argument("--brute-cap", type=int, default=18)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("sequence", help="Gale-Robinson terms and certificates")
    sub.add_argument("--gr", required=True, type=lambda s: [int(v) for v in s.split(",")],
                     metavar="P,Q,R")
    sub.add_argument("--count", type=int, default=12)
    sub.add_argument("--certify-up-to", type=int, default=None)
    sub.add_argument("--alpha", type=int, default=1)
    sub.add_argument("--beta", type=int, default=1)
    sub.add_argument("--gamma", type=int, default=1)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_sequence)

    sub = subs.add_parser("render", help="write an SVG figure")
    sub.add_argument("target", choices=["lattice", "grove", "asm"])
    _add_ic_args(sub)
    sub.add_argument("--cutoff", type=int, default=None)
    sub.add_argument("--scale", type=float, default=40.0)
    sub.add_argument("--layers", default=None)
    sub.add_argument("--grove-index", type=int, default=0)
    sub.add_argument("--grove-file")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
