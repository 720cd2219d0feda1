"""Command-line interface.

Subcommands:

    compute    print the origin polynomial (JSON) or its all-ones value
    enumerate  list groves as JSON lines
    verify     run property suites against one or more initial conditions
    sequence   Gale-Robinson terms with optional grove certificates
    render     write an SVG figure (lattice window, grove, or sign triangle)

The module parses arguments and prints; the verify property suite and its
report live in cuberec.verify, and the grove line's order and long edges in
cuberec.groves.

Exit status: 0 on success, 1 when a verify property fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from . import groves, lattice, laurent, recurrence, render, sequences, verify
from .verify import PROPERTIES


def _parse_preset(spec: str) -> lattice.InitialConditions:
    kind, _, rest = spec.partition(":")
    args = [int(s) for s in rest.split(",")] if rest else []
    build, names = lattice.PRESETS.get(kind, (None, ()))
    if build is not None and len(args) == len(names):
        try:
            return build(*args)
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
           for m in sorted(masks, key=groves.grove_order)), args.out)
    return 0


def cmd_sequence(args) -> int:
    if len(args.gr) != 3:
        raise _usage_error(f"--gr takes three values P,Q,R, not {len(args.gr)}")
    if args.certify_up_to is not None and args.certify_up_to < 0:
        raise _usage_error("--certify-up-to must be >= 0")
    p, q, r = args.gr
    try:
        spec = sequences.GaleRobinsonSpec(p, q, r, args.alpha, args.beta, args.gamma)
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
    masks = sorted(groves._local_move_masks(ic), key=groves.grove_order)
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


def cmd_verify(args) -> int:
    _check_brute_cap(args)
    ics = _load_ics(args)
    props = args.props.split(",") if args.props is not None else None
    try:
        report = verify.run(ics, props, args.brute_cap)
    except verify.UnknownProperties as exc:
        raise _usage_error(str(exc))
    _emit([json.dumps(report, indent=2) + "\n"], args.out)
    return 0 if report["pass"] else 1


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
