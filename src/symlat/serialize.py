"""Plain-text serialization for group descriptors and lattices.

Grammar (line oriented, whitespace separated, ``#`` comments allowed):

Group blocks::

    symlat-group v1
    label <text>
    kind finite
    elements <label> <label> ...
    table
    <row of indices>          # one per element
    ...
    members <index> ...       # optional; omitted = the whole table
    end

    symlat-group v1
    label <text>
    kind s1-axis | so3 | sl3
    axis <x> <y> <z>          # s1-axis only
    end

Lattice blocks::

    symlat-lattice v1
    dim <d>
    action matrix | planar | permutation | trivial
    plane <i> <j>             # planar action
    elements <label> ...      # ambient finite table, when present
    table
    <rows>
    matrices                  # matrix action realisation, one line per element
    <d*d floats>
    angles <floats>           # planar action realisation
    perms                     # permutation action realisation
    <d ints>
    node <id> <label> finite <member indices, comma separated>
    node <id> <label> s1-axis <x> <y> <z>
    node <id> <label> so3|sl3
    cover <lo> <hi>
    end

Node ids are positions: the node lines carry ids ``0..n-1`` in file order,
and each cover names two nodes declared above it.  Every malformed block
raises a :class:`~symlat.errors.SymlatError`; a bad id, a bad number or a
wrong count of numbers is reported with the offending line quoted, and a
member index outside the table with that index named.

Samplers and projection maps are not serialized; loading reattaches each
node kind's defaults from :func:`symlat.lattice.standard_node` (s1-axis
nodes get Haar angles).  Floats are written with ``repr`` and round-trip
exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import SymlatError
from .groups import (
    ACTION_MATRIX,
    ACTION_PERMUTATION,
    ACTION_PLANAR,
    FINITE,
    SL3,
    SO3,
    S1_AXIS,
    CayleyTable,
    GroupAction,
    GroupDescriptor,
)
from .lattice import Lattice, order_from_covers, standard_node

_GROUP_HEADER = "symlat-group v1"
_LATTICE_HEADER = "symlat-lattice v1"


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _ints(values) -> str:
    return " ".join(str(int(v)) for v in values)


def _numbers(line: str, fields: list[str], kind=int, count: int | None = None) -> list:
    """``fields`` of ``line`` parsed as ``kind`` (int or float), exactly ``count``
    of them when given; a bad field or count raises a SymlatError quoting ``line``."""
    if count is not None and len(fields) != count:
        raise SymlatError(f"expected {count} numbers, got {len(fields)}, in line {line!r}")
    try:
        return [kind(v) for v in fields]
    except ValueError:
        raise SymlatError(f"bad number in line {line!r}") from None


def _clean_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


class _Cursor:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def take(self) -> str:
        if self.pos >= len(self.lines):
            raise SymlatError("unexpected end of serialized block")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def rows(self, n: int, kind=int, count: int | None = None) -> list[list]:
        """The next ``n`` lines, each a row of numbers."""
        return [_numbers(line, line.split(), kind, count)
                for line in (self.take() for _ in range(n))]


def _expect_key(line: str, key: str) -> str:
    head, _, rest = line.partition(" ")
    if head != key:
        raise SymlatError(f"expected {key!r} line, got {line!r}")
    return rest.strip()


def _table_lines(table: CayleyTable) -> list[str]:
    """An ``elements`` line, then ``table`` and its rows."""
    return (["elements " + " ".join(table.labels), "table"]
            + [_ints(row) for row in table.table])


def _read_table(cur: _Cursor, rest: str) -> CayleyTable:
    """The Cayley table after an ``elements`` line whose labels are ``rest``."""
    labels = rest.split()
    if cur.take() != "table":
        raise SymlatError("'elements' must be followed by 'table'")
    return CayleyTable(np.array(cur.rows(len(labels), count=len(labels))), labels)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

def dumps_group(group: GroupDescriptor) -> str:
    out = [_GROUP_HEADER, f"label {group.label}", f"kind {group.kind}"]
    if group.kind == FINITE:
        out += _table_lines(group.table)
        if group.members != frozenset(range(group.table.size)):
            out.append("members " + _ints(sorted(group.members)))
    elif group.kind == S1_AXIS:
        out.append("axis " + _floats(group.axis))
    out.append("end")
    return "\n".join(out) + "\n"


def loads_group(text: str) -> GroupDescriptor:
    cur = _Cursor(_clean_lines(text))
    if cur.take() != _GROUP_HEADER:
        raise SymlatError(f"expected {_GROUP_HEADER!r} header")
    label = _expect_key(cur.take(), "label")
    kind = _expect_key(cur.take(), "kind")
    table = None
    members = None
    axis = None
    while True:
        line = cur.take()
        if line == "end":
            break
        key, _, rest = line.partition(" ")
        if key == "elements":
            table = _read_table(cur, rest)
        elif key == "members":
            members = _numbers(line, rest.split())
        elif key == "axis":
            axis = np.array(_numbers(line, rest.split(), float, 3))
        else:
            raise SymlatError(f"unknown group line {line!r}")
    return GroupDescriptor(kind, label, table=table, members=members, axis=axis)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

def dumps_lattice(lat: Lattice) -> str:
    action = lat.action
    out = [_LATTICE_HEADER, f"dim {action.dim}", f"action {action.kind}"]
    if action.kind == ACTION_PLANAR:
        out.append("plane " + _ints(action.plane))
    # The bottom is finite, so there is always a table; prefer a non-trivial one.
    tables = [node.group.table for node in lat.nodes if node.group.is_finite]
    ambient_table = next((t for t in tables if t.size > 1), tables[0])
    out += _table_lines(ambient_table)
    if action.kind == ACTION_MATRIX and action.matrices is not None:
        out.append("matrices")
        out += [_floats(mat.ravel()) for mat in action.matrices]
    if action.kind == ACTION_PLANAR and action.angles is not None:
        out.append("angles " + _floats(action.angles))
    if action.kind == ACTION_PERMUTATION and action.perms is not None:
        out.append("perms")
        out += [_ints(perm) for perm in action.perms]
    for node in lat.nodes:
        g = node.group
        head = f"node {node.node_id} {node.label} {g.kind}"
        if g.is_finite:
            if g.table is ambient_table:
                out.append(head + " " + ",".join(str(i) for i in sorted(g.members)))
            elif g.table.size == 1:
                out.append(head + " trivial")
            else:
                raise SymlatError("finite nodes must share one ambient table")
        elif g.kind == S1_AXIS:
            out.append(head + " " + _floats(g.axis))
        else:
            out.append(head)
    rows, cols = np.nonzero(lat.covers)
    out += [f"cover {lo} {hi}" for lo, hi in zip(rows.tolist(), cols.tolist())]
    out.append("end")
    return "\n".join(out) + "\n"


def loads_lattice(text: str) -> Lattice:
    cur = _Cursor(_clean_lines(text))
    if cur.take() != _LATTICE_HEADER:
        raise SymlatError(f"expected {_LATTICE_HEADER!r} header")
    line = cur.take()
    dim, = _numbers(line, _expect_key(line, "dim").split(), count=1)
    action_kind = _expect_key(cur.take(), "action")
    plane = None
    ambient_table = None
    matrices = None
    angles = None
    perms = None
    node_specs: list[tuple[str, str, str, str]] = []   # (line, label, kind, payload)
    covers: list[tuple[int, int]] = []
    while True:
        line = cur.take()
        if line == "end":
            break
        key, _, rest = line.partition(" ")
        if key == "plane":
            plane = tuple(_numbers(line, rest.split(), count=2))
        elif key == "elements":
            ambient_table = _read_table(cur, rest)
        elif key == "matrices":
            if ambient_table is None:
                raise SymlatError("'matrices' needs a preceding table")
            matrices = np.array(cur.rows(ambient_table.size, float, dim * dim))
            matrices = matrices.reshape(ambient_table.size, dim, dim)
        elif key == "perms":
            if ambient_table is None:
                raise SymlatError("'perms' needs a preceding table")
            perms = np.array(cur.rows(ambient_table.size, count=dim))
        elif key == "angles":
            angles = np.array(_numbers(line, rest.split(), float))
        elif key == "node":
            parts = rest.split(None, 3)
            if len(parts) < 3:
                raise SymlatError(f"malformed node line {line!r}")
            node_id, = _numbers(line, parts[:1])
            if node_id != len(node_specs):
                raise SymlatError(f"node line {line!r} must carry id {len(node_specs)}: "
                                  "node ids run 0..n-1 in file order")
            node_specs.append((line, parts[1], parts[2], parts[3] if len(parts) > 3 else ""))
        elif key == "cover":
            lo, hi = _numbers(line, rest.split(), count=2)
            if not (0 <= lo < len(node_specs) and 0 <= hi < len(node_specs)):
                raise SymlatError(f"cover line {line!r} names a node not declared above it")
            covers.append((lo, hi))
        else:
            raise SymlatError(f"unknown lattice line {line!r}")

    if ambient_table is not None:
        ambient_group = GroupDescriptor(FINITE, "G", table=ambient_table)
    elif any(kind == SL3 for _, _, kind, _ in node_specs):
        ambient_group = GroupDescriptor(SL3, "SL3")
    elif action_kind == ACTION_MATRIX and dim == 3:
        ambient_group = GroupDescriptor(SO3, "SO3")
    else:
        ambient_group = GroupDescriptor(FINITE, "trivial",
                                        table=CayleyTable(np.array([[0]]), ["e"]))
    action = GroupAction(ambient_group, dim, action_kind, matrices=matrices,
                         angles=angles, plane=plane, perms=perms)

    trivial_table = CayleyTable(np.array([[0]]), ["e"])
    nodes = []
    for line, label, kind, payload in node_specs:
        if kind == FINITE:
            if payload == "trivial":
                group = GroupDescriptor(FINITE, label, table=trivial_table)
            else:
                if ambient_table is None:
                    raise SymlatError(f"finite node without an ambient table: {line!r}")
                group = GroupDescriptor(FINITE, label, table=ambient_table,
                                        members=_numbers(line, payload.split(",")))
        elif kind == S1_AXIS:
            group = GroupDescriptor(S1_AXIS, label,
                                    axis=np.array(_numbers(line, payload.split(), float, 3)))
        elif kind in (SO3, SL3):
            if payload:
                raise SymlatError(f"{kind} node line {line!r} carries a payload")
            group = GroupDescriptor(kind, label)
        else:
            raise SymlatError(f"unknown node kind {kind!r} in line {line!r}")
        nodes.append(standard_node(group, action))
    return Lattice(nodes, order_from_covers(len(nodes), covers), action)
