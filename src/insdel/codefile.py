"""Text serialization for codes.

Format: one header line ``KIND q n M`` with KIND in {INSDEL, CWL1},
followed by M data rows. INSDEL rows carry n symbols in [0, q-1]; CWL1
rows carry q counts summing to n. Lines starting with ``#`` are comments.
ASCII only, newline-terminated, bit-exact round-trip.
"""

from __future__ import annotations

import io

from .errors import DomainError
from .words import CWL1, INSDEL, Code, Composition, Word

_KINDS = (INSDEL, CWL1)


def dumps(code: Code) -> str:
    lines = [f"{code.kind} {code.q} {code.n} {len(code)}"]
    for member in code.members:
        row = member.counts if code.kind == CWL1 else member.symbols
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def loads(text: str) -> Code:
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise DomainError("empty code file")
    header = rows[0].split()
    if len(header) != 4:
        raise DomainError(f"malformed header: {rows[0]!r}")
    kind = header[0]
    if kind not in _KINDS:
        raise DomainError(f"unknown code kind {kind!r}")
    try:
        q, n, m = (int(x) for x in header[1:])
    except ValueError as exc:
        raise DomainError(f"non-integer header field in {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise DomainError(f"header announces {m} rows, found {len(rows) - 1}")
    width = q if kind == CWL1 else n
    members = []
    for row in rows[1:]:
        try:
            values = tuple([int(x) for x in row.split()])
        except ValueError as exc:
            raise DomainError(f"non-integer entry in row {row!r}") from exc
        if len(values) != width:
            raise DomainError(f"expected {width} entries per row, got {len(values)}")
        if kind == CWL1:
            member = Composition(q, values)
            if member.weight != n:
                raise DomainError(f"row {row!r} has weight {member.weight}, expected {n}")
        else:
            member = Word(q, values)
        members.append(member)
    return Code(q, n, tuple(members), kind=kind)


def dump(code: Code, path) -> None:
    with io.open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps(code))


def load(path) -> Code:
    with io.open(path, "r", encoding="ascii") as fh:
        try:
            return loads(fh.read())
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: non-ASCII byte at offset {exc.start}") from exc
