"""Command-line front end.

Verbs: cohomology, minimal-model, kappa, compare, massey, group-realize,
bar, verify-axioms.  Inputs are Delta-set or presentation files (the
format is auto-detected); identical inputs produce byte-identical
reports.  Exit codes: 0 success, 1 mathematical-precondition failure,
2 I/O or parse failure, 3 internal-consistency failure (a defect in
cupone, never a fault of the input).
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import reports
from .delta import (bar_construction, check_magma_size, cyclic_group_magma,
                    segment_cohomology)
from .formats import ParseError, detect_and_parse
from .massey import MasseyContext
from .model import (
    PreconditionError,
    RepresentativesRejected,
    StageCapError,
    check_group_size,
    kappa,
    minimal_model,
    n_step_compare,
    realize_group,
)
from .presentation import presentation_complex
from .rings import InternalError, RingSpec


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def parse_ring(text: str) -> RingSpec:
    if text == "Z":
        return RingSpec.Z()
    if text.startswith("Zp:"):
        try:
            return RingSpec.Zp(int(text[3:]))
        except ValueError as e:
            raise CliError(2, f"bad ring {text!r}: {e}")
    raise CliError(2, f"bad ring {text!r} (expected Z or Zp:<p>)")


def at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def parse_group(spec: str) -> tuple[int, int]:
    """Modulus p and count m of the cyclic factors named by
    ``Zp:<p>[^m]``."""
    usage = f"bad group {spec!r} (expected Zp:<p>[^m] with p >= 2, m >= 1)"
    if not spec.startswith("Zp:"):
        raise CliError(2, usage)
    base, caret, exp = spec[3:].partition("^")
    try:
        modulus, count = int(base), int(exp) if caret else 1
    except ValueError:
        raise CliError(2, usage)
    if modulus < 2 or count < 1:
        raise CliError(2, usage)
    return modulus, count


def parse_triples(spec: str, n: int) -> list[tuple[int, ...]]:
    """Generator-index triples named by ``i,j,k[;i,j,k...]``."""
    usage = (f"bad --triples {spec!r} (expected i,j,k[;i,j,k...] with "
             f"1 <= i, j, k <= {n})")
    try:
        triples = [tuple(int(t) for t in chunk.split(","))
                   for chunk in spec.split(";")]
    except ValueError:
        raise CliError(2, usage)
    if any(len(t) != 3 or not all(1 <= i <= n for i in t)
           for t in triples):
        raise CliError(2, usage)
    return triples


class LoadedInput:
    def __init__(self, path: str, ring_flag: str | None):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(2, f"cannot read {path}: {e}")
        try:
            kind, parsed = detect_and_parse(text, path)
        except ParseError as e:
            raise CliError(2, str(e))
        self.kind = kind
        self.group = None
        self.pc = None
        if kind == "delta":
            self.delta, file_ring = parsed
            self.ring = parse_ring(ring_flag) if ring_flag else file_ring
        else:
            self.group = parsed
            self.pc = presentation_complex(parsed)
            self.delta = self.pc.delta
            self.ring = parse_ring(ring_flag) if ring_flag else RingSpec.Z()

    def h1_reps(self):
        """Generator duals when they are valid H^1 representatives."""
        if self.pc is None:
            return None
        try:
            reps = [self.pc.dual_cochain(g, self.ring)
                    for g in self.group.generators]
        except ValueError:
            return None
        data = segment_cohomology(self.delta, self.ring, 1)
        if len(reps) != len(data.generators):
            return None
        return reps

    def build_model(self, stages: int, guard=None):
        reps = self.h1_reps()
        try:
            return minimal_model(self.delta, self.ring, stages, reps, guard)
        except RepresentativesRejected:
            if reps is None:
                raise
            return minimal_model(self.delta, self.ring, stages, None, guard)


def emit(args, text: str, payload: dict) -> int:
    if args.format == "json":
        sys.stdout.write(reports.json_dumps(payload))
    else:
        sys.stdout.write(text)
    return 0


def cmd_cohomology(args) -> int:
    inp = LoadedInput(args.input, args.ring)
    invs = {k: segment_cohomology(inp.delta, inp.ring, k).invariants
            for k in range(0, min(inp.delta.max_dim(), 2) + 1)}
    return emit(args, *reports.render_cohomology(inp.ring, invs))


def cmd_minimal_model(args) -> int:
    from .differential import check_d_squared
    inp = LoadedInput(args.input, args.ring)
    stages = inp.build_model(args.stages)
    audit = check_d_squared(stages[-1].diff, weight_cap=args.weight_cap)
    return emit(args, *reports.render_minimal_model(
        inp.ring, stages, d2_audit=(args.weight_cap, audit)))


def cmd_kappa(args) -> int:
    inp = LoadedInput(args.input, args.ring)
    stages = inp.build_model(args.stages)
    kap = kappa(stages[-1])
    return emit(args, *reports.render_kappa(inp.ring, kap))


def cmd_compare(args) -> int:
    a = LoadedInput(args.left, args.ring)
    b = LoadedInput(args.right, args.ring)
    verdict = n_step_compare(a.delta, b.delta, a.ring, args.stages,
                             forget_torsion=args.forget_torsion,
                             h1_reps_a=a.h1_reps(), h1_reps_b=b.h1_reps())
    return emit(args, *reports.render_compare(a.ring, verdict, args.stages))


def cmd_massey(args) -> int:
    inp = LoadedInput(args.input, args.ring)
    if inp.pc is None:
        raise CliError(1, "massey needs a presentation input "
                          "(generator duals fix the H^1 basis)")
    n = len(inp.group.generators)
    if args.triples:
        triples = parse_triples(args.triples, n)
    else:
        triples = [(i, j, k) for i in range(1, n + 1)
                   for j in range(1, n + 1) for k in range(1, n + 1)]
    reps = inp.h1_reps()
    if reps is None:
        raise CliError(1, "generator duals are not an H^1 basis here")
    ctx = MasseyContext(inp.delta, inp.ring, reps)
    entries = []
    for t in triples:
        us = [reps[i - 1] for i in t]
        try:
            entries.append((t, ctx.triple_massey(*us)))
        except PreconditionError as e:
            entries.append((t, str(e)))
    return emit(args, *reports.render_massey(inp.ring, entries))


def cmd_group_realize(args) -> int:
    inp = LoadedInput(args.input, args.ring)
    # The group's size is known once the last stage's generators are
    # adjoined; an oversized one is refused before that stage's H^2.
    stages = inp.build_model(args.stages, guard=check_group_size)
    gr = realize_group(stages[-1])
    return emit(args, *reports.render_group(inp.ring, gr))


def cmd_bar(args) -> int:
    modulus, count = parse_group(args.group)
    ring = parse_ring(args.ring) if args.ring else RingSpec.Z()
    check_magma_size(modulus, args.max_dim, monoid=True, power=count)
    mc = bar_construction(cyclic_group_magma((modulus,) * count),
                          args.max_dim)
    counts = {d: len(mc.delta.cells[d]) for d in range(args.max_dim + 1)}
    return emit(args, *reports.render_bar(ring, counts))


def cmd_verify_axioms(args) -> int:
    from .verify import run_all_suites
    ring = parse_ring(args.ring) if args.ring else RingSpec.Z()
    results = run_all_suites(args.cases, args.seed, ring)
    text, payload = reports.render_verify(ring, results)
    code = emit(args, text, payload)
    if not all(r.passed for r in results):
        return 1
    return code


# One parser per process, built on first use: parse_args keeps no state
# between calls.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cupone",
        description="Exact 1-minimal models, kappa invariants, and Massey "
                    "products over Z and Z_p.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", help="Delta-set or presentation file")
        sp.add_argument("--ring", default=None,
                        help="Z or Zp:<p> (default: from file, else Z)")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("cohomology", help="H^0..H^2 of the input")
    common(sp)
    sp.set_defaults(fn=cmd_cohomology)

    sp = sub.add_parser("minimal-model",
                        help="stage-wise 1-minimal model report")
    common(sp)
    sp.add_argument("--stages", type=at_least(1), default=2)
    sp.add_argument("--weight-cap", type=at_least(0), default=6,
                    help="weight cap of the d^2 audit")
    sp.set_defaults(fn=cmd_minimal_model)

    sp = sub.add_parser("kappa", help="coker H^2(rho_n) and kappa_n")
    common(sp)
    sp.add_argument("--stages", type=at_least(1), default=2)
    sp.set_defaults(fn=cmd_kappa)

    sp = sub.add_parser("compare",
                        help="n-step comparison of two inputs")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--ring", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--stages", type=at_least(1), default=2)
    sp.add_argument("--forget-torsion", action="store_true",
                    help="rational analog: compare free ranks only")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("massey", help="triple Massey products")
    common(sp)
    sp.add_argument("--triples", default=None,
                    help="semicolon-separated i,j,k lists (default: all)")
    sp.set_defaults(fn=cmd_massey)

    sp = sub.add_parser("group-realize",
                        help="nilpotent group law of the stage model")
    common(sp)
    sp.add_argument("--stages", type=at_least(1), default=2)
    sp.set_defaults(fn=cmd_group_realize)

    sp = sub.add_parser("bar", help="bar construction cell counts")
    sp.add_argument("--group", required=True, help="Zp:<p>[^m]")
    sp.add_argument("--max-dim", type=int, default=2, choices=(0, 1, 2, 3))
    sp.add_argument("--ring", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_bar)

    sp = sub.add_parser("verify-axioms",
                        help="run the randomized identity suites")
    sp.add_argument("--cases", type=at_least(1), default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ring", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_verify_axioms)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (InternalError, ArithmeticError) as e:
        # A failed arithmetic audit (SNF divisibility, a non-primitive
        # kernel basis, an inexact division) is a defect, not bad input.
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (PreconditionError, StageCapError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # Any other exception is a defect of cupone, whatever the input.
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
