"""Text file formats: Delta-sets and group presentations.

Delta-set format::

    ring Z            (or: ring Zp 5)
    cells 0
    v :
    cells 1
    e : v v
    cells 2
    s : e e e

Each cell line lists the faces d_0 .. d_k by id; 0-cells have an empty
face list.  Presentation format::

    gens: a b c
    rel: a b a^-1 b^-1

Both formats round-trip bit-exactly through parse/serialize.
"""
from __future__ import annotations

from .delta import DeltaSet
from .presentation import PresentedGroup, word
from .rings import RingSpec


class ParseError(ValueError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def parse_delta_text(text: str, path: str = "<delta>") -> tuple[DeltaSet, RingSpec]:
    ring = None
    cells: dict[int, list[str]] = {d: [] for d in range(4)}
    faces: dict[str, tuple] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "ring":
            if ring is not None:
                raise ParseError(path, lineno, "second ring line")
            if parts[1:] == ["Z"]:
                ring = RingSpec.Z()
            elif parts[1:2] == ["Zp"] and len(parts) == 3:
                try:
                    ring = RingSpec.Zp(int(parts[2]))
                except ValueError as e:
                    raise ParseError(path, lineno, str(e))
            else:
                raise ParseError(path, lineno, f"bad ring line {line!r}")
        elif parts[0] == "cells":
            try:
                current = int(parts[1])
            except (IndexError, ValueError):
                raise ParseError(path, lineno, f"bad cells header {line!r}")
            if not 0 <= current <= 3:
                raise ParseError(path, lineno, "cell dimension must be 0..3")
        else:
            if current is None:
                raise ParseError(path, lineno, "cell line before cells header")
            if ":" not in line:
                raise ParseError(path, lineno, f"missing ':' in {line!r}")
            head, _, tail = line.partition(":")
            cid = head.strip()
            fs = tail.split()
            if len(fs) != (current + 1 if current else 0):
                raise ParseError(
                    path, lineno,
                    f"cell {cid!r} of dimension {current} needs "
                    f"{current + 1 if current else 0} faces, got {len(fs)}")
            cells[current].append(cid)
            if current:
                faces[cid] = tuple(fs)
    if ring is None:
        raise ParseError(path, 1, "missing ring line")
    try:
        delta = DeltaSet(cells, faces)
    except ValueError as e:
        raise ParseError(path, 0, str(e))
    return delta, ring


def serialize_delta(X: DeltaSet, ring: RingSpec) -> str:
    lines = ["ring Z" if not ring.is_modular else f"ring Zp {ring.p}"]
    for d in range(4):
        if not X.cells[d]:
            continue
        lines.append(f"cells {d}")
        for c, pos in zip(X.cells[d], X.faces[d]):
            fs = " ".join(X.cells[d - 1][f] for f in pos)
            lines.append(f"{c} : {fs}".rstrip())
    return "\n".join(lines) + "\n"


def parse_presentation_text(text: str,
                            path: str = "<pres>") -> PresentedGroup:
    gens = None
    rels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gens:"):
            if gens is not None:
                raise ParseError(path, lineno, "second gens: line")
            gens = tuple(line[len("gens:"):].split())
            if not gens:
                raise ParseError(path, lineno, "empty generator list")
            for i, g in enumerate(gens):
                if g in gens[:i]:
                    raise ParseError(path, lineno,
                                     f"duplicate generator {g!r}")
        elif line.startswith("rel:"):
            toks = line[len("rel:"):].split()
            if not toks:
                raise ParseError(path, lineno, "empty relator")
            rels.append((lineno, word(toks)))
        else:
            raise ParseError(path, lineno, f"unrecognized line {line!r}")
    if gens is None:
        raise ParseError(path, 1, "missing gens: line")
    for lineno, rel in rels:
        for name, _ in rel:
            if name not in gens:
                raise ParseError(path, lineno,
                                 f"relator uses unknown generator {name}")
    try:
        return PresentedGroup(gens, tuple(rel for _, rel in rels))
    except ValueError as e:
        raise ParseError(path, 0, str(e))


def serialize_presentation(group: PresentedGroup) -> str:
    lines = ["gens: " + " ".join(group.generators)]
    for rel in group.relators:
        toks = [name if e == 1 else f"{name}^-1" for name, e in rel]
        lines.append("rel: " + " ".join(toks))
    return "\n".join(lines) + "\n"


def detect_and_parse(text: str, path: str = "<input>"):
    """Returns ('delta', (DeltaSet, RingSpec)) or ('presentation', group)."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ring"):
            return "delta", parse_delta_text(text, path)
        if line.startswith("gens:"):
            return "presentation", parse_presentation_text(text, path)
        break
    raise ParseError(path, 1, "cannot determine file kind "
                              "(expected 'ring ...' or 'gens: ...')")
