"""No cupone module raises a bare ``ValueError`` unless it is still on the
list of modules to classify.

``cli.main`` maps every ``ValueError`` to exit 1, "precondition failure",
so a bare one raised by a defect inside cupone reads as a user error.
Each site raises ``ParseError``, ``PreconditionError`` (both
``ValueError`` subclasses) or ``InternalError`` instead.  A stdlib-ast
scan finds ``raise ValueError`` and ``raise ValueError(...)``; the
modules in ``TO_CLASSIFY`` may keep at most their count of them, and
every other module, a new one included, none.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cupone"

TO_CLASSIFY = {"tensor": 15, "rings": 13}


def bare_value_errors(text: str, name: str) -> list[str]:
    tree = ast.parse(text, name)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "ValueError":
            lines.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(lines)]


def test_no_new_bare_value_error():
    over = []
    for path in sorted(SRC.glob("*.py")):
        sites = bare_value_errors(path.read_text(), path.name)
        if len(sites) > TO_CLASSIFY.get(path.stem, 0):
            over += sites
    assert not over, f"bare raise ValueError at {', '.join(over)}"


def test_the_scan_finds_both_spellings():
    text = ("def f(x):\n    if x:\n        raise ValueError\n"
            "    raise ValueError('bad')\n")
    assert bare_value_errors(text, "m.py") == ["m.py:3", "m.py:4"]


def delta_check_failures():
    """(call, message) for each input check of ``cupone.delta``: the
    DeltaSet face, duplicate-id and ``validate`` checks and the three
    FiniteMagma table checks."""
    from cupone.delta import DeltaSet, FiniteMagma

    def short_faces():
        X = DeltaSet({0: ["v"], 1: ["e"]}, {"e": ("v", "v")})
        X.faces[1] = []
        X.validate()

    return [
        (lambda: DeltaSet({0: ["v"], 1: ["e"]}, {"e": ("v",)}),
         "cell 'e' needs 2 faces"),
        (lambda: DeltaSet({0: ["v"], 1: ["e"]}, {"e": ("v", "w")}),
         "face 'w' of 'e' is not a 0-cell"),
        (lambda: DeltaSet({0: ["v", "v"]}, {}), "duplicate cell id 'v'"),
        (short_faces, "1 1-cells but 0 face tuples"),
        (lambda: FiniteMagma("ab", lambda a, b: "c"),
         "product a*a leaves the carrier"),
        (lambda: FiniteMagma.from_table("ab", [[0, 1]]),
         "a product table on 2 elements needs 2 rows of 2 positions in "
         "range(2)"),
        (lambda: FiniteMagma("aa", lambda a, b: a),
         "duplicate carrier elements"),
    ]


def test_delta_checks_raise_precondition_errors():
    from cupone.rings import PreconditionError
    failures = delta_check_failures()
    assert len(failures) == 7
    for call, message in failures:
        try:
            call()
        except Exception as e:
            assert type(e) is PreconditionError, (message, e)
            assert str(e) == message
        else:
            raise AssertionError(f"no error: {message}")


def test_delta_check_failures_exit_1(capsys, monkeypatch):
    # The CLI prints a precondition failure as one "error:" line, exit 1;
    # a malformed .delta file is the parser's ParseError, exit 2.
    from cupone import cli, formats
    from cupone.formats import ParseError
    for call, message in delta_check_failures():
        monkeypatch.setattr(cli, "LoadedInput",
                            lambda *args, call=call: call())
        assert cli.main(["cohomology", "x.delta"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")
    try:
        formats.parse_delta_text("ring Z\ncells 0\nv :\nv :\n", "bad.delta")
    except ParseError as e:
        assert str(e) == "bad.delta:0: duplicate cell id 'v'"
    else:
        raise AssertionError("no ParseError")
