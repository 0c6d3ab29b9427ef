"""Mutated inputs exit 0, 1 or 2 and never print a traceback.

Each case mutates one fixture under a fixed seed: one to three times it
deletes a token, inserts one (taken from the fixture or from a few header
words), or reverses a run of tokens (a run of one reverses its letters).
Then ``cohomology`` and ``kappa --stages 1`` run on it over Z and Zp:2
through ``cli.main``.  A mutant may stay valid (exit 0) or make a valid
request that is refused (exit 1); bad text exits 2.  Exit 3, an internal
error, would be a defect of cupone, and so would an exception that
leaves ``main``.
"""
import collections
import pathlib
import random

from cupone.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
EXTRA = ["ring", "Z", "Zp", "7", "cells", "0", "4", ":", "gens:", "rel:",
         "a^-1", "^", "#"]
RUNS = [[verb, "--ring", ring] + more
        for verb, more in (("cohomology", []), ("kappa", ["--stages", "1"]))
        for ring in ("Z", "Zp:2")]


def mutate(rng: random.Random, text: str) -> str:
    lines = [line.split() for line in text.splitlines()]
    pool = [t for line in lines for t in line] + EXTRA
    for _ in range(rng.randint(1, 3)):
        toks = lines[rng.randrange(len(lines))]
        op = rng.choice(("delete", "insert", "reverse"))
        if op == "insert" or not toks:
            toks.insert(rng.randint(0, len(toks)), rng.choice(pool))
        elif op == "delete":
            del toks[rng.randrange(len(toks))]
        else:
            i = rng.randrange(len(toks))
            j = rng.randrange(i, min(i + 3, len(toks)))
            toks[i:j + 1] = (toks[i:j + 1][::-1] if j > i
                             else [toks[i][::-1]])
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def run_mutants(tmp_path, capsys, seed: int,
                cases: int) -> collections.Counter:
    """Exit-code counts over ``cases`` mutants; asserts the contract."""
    rng = random.Random(seed)
    fixtures = sorted(FIXTURES.iterdir())
    codes = collections.Counter()
    for n in range(cases):
        src = rng.choice(fixtures)
        path = tmp_path / f"m{n}{src.suffix}"
        path.write_text(mutate(rng, src.read_text()))
        for run in RUNS:
            code = main([run[0], str(path)] + run[1:])
            out = capsys.readouterr()
            case = (src.name, path.read_text(), run, code, out.err)
            assert code in (0, 1, 2), case
            if code:
                assert out.out == "" and out.err.startswith("error: ") \
                    and out.err.count("\n") == 1, case
            else:
                assert out.err == "", case
            codes[code] += 1
    return codes


def test_mutated_fixtures_exit_0_1_or_2(tmp_path, capsys):
    codes = run_mutants(tmp_path, capsys, seed=32, cases=400)
    # The mutants exercise the parsers: most are bad text.
    assert codes[2] > codes[0] + codes[1]
