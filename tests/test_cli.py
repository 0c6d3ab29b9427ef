import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from cupone.cli import main
from cupone.formats import (
    ParseError,
    detect_and_parse,
    parse_delta_text,
    parse_presentation_text,
    serialize_delta,
    serialize_presentation,
)
from cupone.rings import RingSpec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fixture_round_trips():
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text()
        kind, parsed = detect_and_parse(text, str(path))
        if kind == "delta":
            delta, ring = parsed
            assert serialize_delta(delta, ring) == text
        else:
            assert serialize_presentation(parsed) == text


def test_presentation_parse_frozen():
    pg = parse_presentation_text("gens: a\nrel: a a a\n")
    assert pg.generators == ("a",)
    assert pg.relators == ((("a", 1), ("a", 1), ("a", 1)),)


def test_torus_delta_like_load():
    # torus presentation file loads to 1 vertex, 7 edges, 6 triangles
    text = (FIXTURES / "torus.pres").read_text()
    kind, pg = detect_and_parse(text)
    assert kind == "presentation"
    from cupone.presentation import presentation_complex
    X = presentation_complex(pg).delta
    assert (len(X.cells[0]), len(X.cells[1]), len(X.cells[2])) == (1, 7, 6)


def test_malformed_face_tuple_error():
    bad = "ring Z\ncells 0\nv :\ncells 1\ne : v\n"
    with pytest.raises(ParseError) as exc:
        parse_delta_text(bad, "bad.delta")
    assert "e" in str(exc.value) and "faces" in str(exc.value)


def test_delta_parse_ring_header():
    delta, ring = parse_delta_text("ring Zp 5\ncells 0\nv :\n")
    assert ring == RingSpec.Zp(5)
    with pytest.raises(ParseError):
        parse_delta_text("cells 0\nv :\n")


def test_cli_kappa_text(capsys):
    code, out, err = run_cli(capsys, "kappa", "--stages", "2",
                             str(FIXTURES / "borromean_n2.pres"))
    assert code == 0
    assert "kappa_2 = Z/2 + Z/2" in out


def test_cli_kappa_json(capsys):
    code, out, err = run_cli(capsys, "kappa", "--stages", "2", "--format",
                             "json", str(FIXTURES / "borromean_n2.pres"))
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "kappa"
    assert payload["ring"] == "Z"
    assert payload["results"]["kappa_2"] == {"rank": 0, "torsion": [2, 2]}


def test_cli_compare(capsys):
    code, out, _ = run_cli(capsys, "compare", "--stages", "2",
                           str(FIXTURES / "borromean_n2.pres"),
                           str(FIXTURES / "borromean_n3.pres"))
    assert code == 0
    assert out.strip().endswith("distinguished")
    code, out, _ = run_cli(capsys, "compare", "--stages", "2",
                           "--forget-torsion",
                           str(FIXTURES / "borromean_n2.pres"),
                           str(FIXTURES / "borromean_n3.pres"))
    assert code == 0
    assert out.strip().endswith("not-distinguished-by-kappa")


def test_cli_bar(capsys):
    code, out, _ = run_cli(capsys, "bar", "--group", "Zp:3",
                           "--max-dim", "2")
    assert code == 0
    assert "cells: 1 3 9" in out
    code, out, _ = run_cli(capsys, "bar", "--group", "Zp:2", "--max-dim", "3")
    assert "cells: 1 2 4 8" in out


def test_cli_determinism(capsys):
    args = ("minimal-model", "--stages", "2",
            str(FIXTURES / "heisenberg_k2.pres"))
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("massey", str(FIXTURES / "borromean_n1.pres"))
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_exit_codes(tmp_path, capsys):
    # I/O failure -> 2
    code, _, err = run_cli(capsys, "cohomology", str(tmp_path / "nope.pres"))
    assert code == 2
    # parse failure -> 2
    bad = tmp_path / "bad.delta"
    bad.write_text("ring Z\ncells 1\ne : v v\n")
    code, _, err = run_cli(capsys, "cohomology", str(bad))
    assert code == 2
    # mathematical precondition failure -> 1 (disconnected target)
    disc = tmp_path / "disc.delta"
    disc.write_text("ring Z\ncells 0\np :\nq :\n")
    code, _, err = run_cli(capsys, "minimal-model", str(disc))
    assert code == 1


def test_cli_minimal_model_zp(capsys):
    code, out, _ = run_cli(capsys, "minimal-model", "--ring", "Zp:3",
                           str(FIXTURES / "torus.pres"))
    assert code == 0
    assert "stage 2:" in out
    assert "brute" not in out  # route note only in json
    code, out, _ = run_cli(capsys, "minimal-model", "--ring", "Zp:3",
                           "--format", "json", str(FIXTURES / "torus.pres"))
    payload = json.loads(out)
    assert payload["results"]["stages"][-1]["H2_route"] == \
        "minimal-resolution-Zp"


def test_cli_verify_axioms_small(capsys):
    code, out, _ = run_cli(capsys, "verify-axioms", "--cases", "5")
    assert code == 0
    assert out.strip().endswith("all-pass")
    assert out.count("pass") >= 8


@pytest.mark.parametrize("ring", ["Z", "Zp:2", "Zp:3"])
def test_cli_verify_axioms_runs_suites_over_ring(capsys, monkeypatch, ring):
    from cupone import verify
    seen = []

    def recording(suite):
        def run(cases, seed, r):
            seen.append((suite.__name__, r))
            return suite(cases, seed, r)
        return run

    monkeypatch.setattr(verify, "ALL_SUITES",
                        [recording(f) for f in verify.ALL_SUITES])
    code, out, _ = run_cli(capsys, "verify-axioms", "--cases", "5",
                           "--ring", ring)
    assert code == 0
    assert out.strip().endswith("all-pass")
    want = RingSpec.Z() if ring == "Z" else RingSpec.Zp(int(ring[3:]))
    assert out.startswith(f"ring {want!r}\n")
    assert len(seen) == 8
    assert all(r == want for _, r in seen), seen


def test_cli_massey_undefined_reported(capsys):
    code, out, _ = run_cli(capsys, "massey", str(FIXTURES / "torus.pres"),
                           "--triples", "1,2,1")
    assert code == 0
    assert "undefined" in out


def test_cli_stage_cap_over_Z(capsys):
    code, out, err = run_cli(capsys, "minimal-model", "--stages", "3",
                             str(FIXTURES / "borromean_n2.pres"))
    assert code == 1
    assert "n <= 2" in err


def test_cli_kappa_stage1(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--stages", "1",
                           str(FIXTURES / "cyclic4.pres"))
    assert code == 0
    assert "kappa_1 = Z/4" in out


@pytest.mark.parametrize("group", ["Zp:0", "Zp:1", "Zp:-3", "Zp:3^0",
                                   "Zp:2^-1", "Zp:abc", "Zp:3^", "Zp:^2",
                                   "Z:3"])
def test_cli_bar_rejects_bad_group(capsys, group):
    code, out, err = run_cli(capsys, "bar", "--group", group)
    assert code == 2
    assert out == ""
    assert "bad group" in err


def test_cli_bar_group_powers(capsys):
    code, out, _ = run_cli(capsys, "bar", "--group", "Zp:2^2",
                           "--max-dim", "1")
    assert code == 0
    assert "cells: 1 4" in out


@pytest.mark.parametrize("group, max_dim, estimate", [
    ("Zp:2^9", "3", "|G| = 2^9 at max-dim 3 gives an estimated 134,217,728"),
    # 262,144 2-cells, but the monoid check visits 512^3 triples.
    ("Zp:2^9", "2", "|G| = 2^9 at max-dim 2 gives an estimated 134,217,728"),
    ("Zp:65", "3", "|G| = 65 at max-dim 3 gives an estimated 274,625"),
    # Neither the group nor its size is built.
    ("Zp:2^1000000000", "1",
     "|G| = 2^1,000,000,000 at max-dim 1 gives an estimated 2^3,000,000,000"),
])
def test_cli_refuses_oversized_bar(capsys, monkeypatch, group, max_dim,
                                   estimate):
    from cupone import cli

    def no_table(moduli):
        raise AssertionError("magma table built before the size guard")

    monkeypatch.setattr(cli, "cyclic_group_magma", no_table)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bar", "--group", group,
                             "--max-dim", max_dim)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert f"{estimate} cells and associativity triples" in err
    assert "(limit 262,144)" in err


@pytest.mark.parametrize("argv", [
    ("minimal-model", "--stages", "0"),
    ("minimal-model", "--stages", "-3"),
    ("kappa", "--stages", "0"),
    ("group-realize", "--stages", "-1"),
    ("minimal-model", "--weight-cap", "-1"),
    ("massey", "--weight-cap", "-2"),
    ("kappa", "--stages", "two"),
    # Only minimal-model reads a weight cap; the other verbs have none.
    ("cohomology", "--weight-cap", "3"),
    ("kappa", "--weight-cap", "3"),
    ("group-realize", "--weight-cap", "3"),
])
def test_cli_rejects_bad_counts_at_parse(capsys, argv):
    path = str(FIXTURES / "torus.pres")
    with pytest.raises(SystemExit) as exc:
        main([*argv, path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[1] in err


def test_cli_compare_rejects_bad_counts_at_parse(capsys):
    left = str(FIXTURES / "borromean_n1.pres")
    right = str(FIXTURES / "borromean_n2.pres")
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--stages", "0", left, right])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_cli_weight_cap_zero_accepted(capsys):
    code, out, _ = run_cli(capsys, "minimal-model", "--stages", "1",
                           "--weight-cap", "0",
                           str(FIXTURES / "cyclic4.pres"))
    assert code == 0
    assert "weight <= 0): 0 checked: pass" in out


@pytest.mark.parametrize("fixture, ring, n, p", [
    ("heisenberg_k1", "Zp:5", 5, 5),  # n1 = 3,124
    ("borromean_n1", "Zp:3", 9, 3),   # n1 = 19,682
])
def test_cli_refuses_oversized_zp_stage(capsys, fixture, ring, n, p):
    code, out, err = run_cli(capsys, "kappa", "--ring", ring,
                             str(FIXTURES / f"{fixture}.pres"))
    assert code == 1
    assert out == ""
    assert f"{n} generators over Z_{p} give T^1 of dimension " \
        f"n1 = {p ** n - 1:,}" in err


def test_size_refusal_builds_stage1_once(capsys, monkeypatch):
    # Only a rejected H^1 basis is retried with generic representatives;
    # a size-guard refusal at stage 2 is final.
    from cupone import model
    calls = []

    def counting_stage1(*args, **kwargs):
        calls.append(args)
        return stage1(*args, **kwargs)

    stage1 = model.stage1
    monkeypatch.setattr(model, "stage1", counting_stage1)
    code, out, err = run_cli(capsys, "kappa", "--ring", "Zp:3",
                             str(FIXTURES / "borromean_n1.pres"))
    assert (code, out) == (1, "")
    assert "refused" in err
    assert len(calls) == 1


@pytest.mark.parametrize("cases", ["-1", "0"])
def test_cli_verify_axioms_needs_a_case(capsys, cases):
    with pytest.raises(SystemExit) as exc:
        main(["verify-axioms", "--cases", cases])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("triples", ["a,b", "1,2,9", "1,2", "1,2,3;"])
def test_cli_massey_bad_triples_exit_2(capsys, triples):
    code, out, err = run_cli(capsys, "massey", "--triples", triples,
                             str(FIXTURES / "borromean_n1.pres"))
    assert (code, out) == (2, "")
    assert f"bad --triples {triples!r}" in err


def test_cli_duplicate_generator_exits_2(tmp_path, capsys):
    # Read as a Delta-set cell id, a repeated generator used to exit 1.
    path = tmp_path / "dup.pres"
    path.write_text("# two a's\ngens: a a\nrel: a a^-1\n")
    code, out, err = run_cli(capsys, "cohomology", str(path))
    assert (code, out, err) == (
        2, "", f"error: {path}:2: duplicate generator 'a'\n")


def test_cli_unknown_relator_generator_names_its_line(tmp_path, capsys):
    # The relator check used to report line 0.
    path = tmp_path / "unk.pres"
    path.write_text("gens: a b\nrel: a b a^-1 b^-1\nrel: a c a^-1 c^-1\n")
    code, out, err = run_cli(capsys, "cohomology", str(path))
    assert (code, out, err) == (
        2, "", f"error: {path}:3: relator uses unknown generator c\n")


@pytest.mark.parametrize("name, text, lineno, message", [
    # A second gens: line used to replace the first: this read as the
    # group on b and exited 0.
    ("two-gens.pres", "gens: a\ngens: b\nrel: b b\n", 2,
     "second gens: line"),
    # A second ring line used to replace the first.
    ("two-rings.delta", "ring Z\ncells 0\nv :\nring Zp 5\n", 4,
     "second ring line"),
])
def test_cli_second_header_line_exits_2(tmp_path, capsys, name, text,
                                        lineno, message):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "cohomology", str(path))
    assert (code, out, err) == (2, "", f"error: {path}:{lineno}: {message}\n")


def run_module(*args):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_cupone_matches_main(capsys):
    path = str(FIXTURES / "cyclic4.pres")
    code, out, err = run_cli(capsys, "kappa", path)
    r = run_module("-m", "cupone", "kappa", path)
    assert (r.returncode, r.stdout, r.stderr) == (code, out, err)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cli_internal_error_exits_3(flags):
    # A failed internal audit is a defect, not a precondition failure:
    # exit 3 with a one-line message, also when python -O strips asserts.
    # The faults: an unsolvable rho-lift (InternalError), a kernel basis
    # that is not primitive (ArithmeticError) and a stray KeyError.
    cases = [
        ("linalg.CohomologyData.preimage = lambda self, vec: None\n",
         "heisenberg_k1",
         "internal error: rho-lift unsolvable: kernel representative is "
         "not in ker H^2(rho) (internal consistency failure)\n"),
        ("kernel = linalg.SNFResult.kernel\n"
         "linalg.SNFResult.kernel = lambda self: "
         "[[2 * x for x in v] for v in kernel(self)]\n",
         "borromean_n2",
         "internal error: kernel basis is not primitive: Smith normal "
         "form diagonal [2, 2, 2]\n"),
        # Any exception main() has no other rule for names its type.
        ("linalg.SNFResult.kernel = lambda self: {}['kernel']\n",
         "borromean_n2", "internal error: KeyError: 'kernel'\n"),
    ]
    for fault, fixture, stderr in cases:
        script = ("import sys\n"
                  "from cupone import cli, linalg\n"
                  + fault
                  + "sys.exit(cli.main(sys.argv[1:]))\n")
        r = run_module(*flags, "-c", script, "kappa",
                       str(FIXTURES / f"{fixture}.pres"))
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert r.stderr == stderr


def test_cli_massey_defect_is_not_a_result(capsys, monkeypatch):
    # Only the two documented refusals (inputs not cocycles, product
    # undefined) print as a table entry; a ValueError from the class
    # coordinates of a product of checked cocycles is a defect: exit 3.
    from cupone import linalg

    def broken(self, vec):
        raise ValueError("vector is not a cocycle")

    monkeypatch.setattr(linalg.CohomologyData, "class_coords", broken)
    code, out, err = run_cli(capsys, "massey",
                             str(FIXTURES / "borromean_n1.pres"))
    assert (code, out) == (3, "")
    assert err == ("internal error: class coordinates of a product of "
                   "cocycles failed: vector is not a cocycle\n")


@pytest.mark.parametrize("fixture, ring, n", [
    ("torus", "Zp:5", 4),          # |G| = 5^4 = 625
    ("heisenberg_k3", "Zp:3", 6),  # |G| = 3^6 = 729
], ids=["torus-Zp:5", "heisenberg_k3-Zp:3"])
def test_cli_group_realize_refuses_large_zp_group(capsys, monkeypatch,
                                                  fixture, ring, n):
    # Checking the group axioms builds a table of |G|^2 products; the group
    # is refused before that table is built, and before the H^2 of the
    # last stage (the one with n generators) is computed.
    from cupone import model
    from cupone.magma import MagmaLaw

    def no_table(law):
        raise AssertionError("product table built before the size guard")

    def no_last_h2(names, ring, diff=None):
        if len(names) == n:
            raise AssertionError("last stage's H^2 built before the guard")
        return resolution_cohomology_Zp(names, ring, diff)

    resolution_cohomology_Zp = model.resolution_cohomology_Zp
    monkeypatch.setattr(MagmaLaw, "to_finite_magma", no_table)
    monkeypatch.setattr(model, "resolution_cohomology_Zp", no_last_h2)
    start = time.monotonic()
    code, out, err = run_cli(capsys, "group-realize", "--ring", ring,
                             str(FIXTURES / f"{fixture}.pres"))
    assert time.monotonic() - start < 5
    assert (code, out) == (1, "")
    assert "group-realize refused" in err
    assert "table entries (limit 262,144)" in err


def test_cli_group_realize_admits_order_243(capsys):
    # |G| = 3^5: 59,049 table entries, under the limit.
    code, out, err = run_cli(capsys, "group-realize", "--ring", "Zp:3",
                             str(FIXTURES / "heisenberg_k2.pres"))
    assert (code, err) == (0, "")
    assert "audit associativity: admissible\n" in out
    assert "audit order: 243\n" in out


def test_massey_output_frozen(capsys):
    # stdout and exit code of massey on every presentation fixture x Z,
    # Zp:2, Zp:3, text and json; the digest was taken before the Massey
    # context cached its pair-level work.
    h = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.pres")):
        for ring in ("Z", "Zp:2", "Zp:3"):
            for fmt in ("text", "json"):
                code, out, _ = run_cli(capsys, "massey", str(path),
                                       "--ring", ring, "--format", fmt)
                h.update(f"{path.name} {ring} {fmt} {code}\n".encode())
                h.update(out.encode())
    assert h.hexdigest() == \
        "e849340e68a004ce580bfbc48e58988d4b15a8ce7d3a25318b7b738aa1f6d43e"


def test_back_to_back_calls_match_fresh_processes(capsys):
    # main reuses one argument parser per process; no parsed state may
    # leak from one call into the next, a usage error included.
    torus = str(FIXTURES / "torus.pres")
    wedge = str(FIXTURES / "wedge2.pres")
    calls = [
        ("minimal-model", "--format", "json", "--ring", "Zp:2",
         "--stages", "3", "--weight-cap", "2", torus),
        ("compare", "--forget-torsion", "--stages", "1", torus, wedge),
        ("kappa", "--stages", "0", torus),  # usage error: exit 2
        ("compare", torus, wedge),
        ("kappa", torus),
    ]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        r = run_module("-m", "cupone", *argv)
        assert (code, out.out, out.err) == (r.returncode, r.stdout, r.stderr)


def test_model_reports_frozen(capsys):
    # stdout and exit code of minimal-model (json, weight cap 3) and kappa
    # on every presentation fixture x Z, Zp:2, Zp:3, except heisenberg_k3
    # and heisenberg_k6 over Zp:3 (about 2 s each); the digest was taken
    # before d-values and the d^2 audit dropped their throwaway objects.
    h = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.pres")):
        for ring in ("Z", "Zp:2", "Zp:3"):
            if ring == "Zp:3" and path.stem in ("heisenberg_k3",
                                                "heisenberg_k6"):
                continue
            for verb in (("minimal-model", "--format", "json",
                          "--weight-cap", "3"), ("kappa",)):
                code, out, _ = run_cli(capsys, *verb, "--ring", ring,
                                       str(path))
                h.update(f"{path.name} {ring} {verb[0]} {code}\n".encode())
                h.update(out.encode())
    assert h.hexdigest() == \
        "7e3120521cbc929a97abb687ec49f14603be3819757de5e3efec05a23f944ae2"
