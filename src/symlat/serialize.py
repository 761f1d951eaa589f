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
    kind s1-axis | s1-plane | so3 | sl3
    axis <x> <y> <z>          # s1-axis only
    plane <i> <j>             # s1-plane only
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
    S1_PLANE,
    CayleyTable,
    GroupAction,
    GroupDescriptor,
)
from .lattice import Lattice, order_from_covers, standard_node

_GROUP_HEADER = "symlat-group v1"
_LATTICE_HEADER = "symlat-lattice v1"


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


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


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

def dumps_group(group: GroupDescriptor) -> str:
    out = [_GROUP_HEADER, f"label {group.label}", f"kind {group.kind}"]
    if group.kind == FINITE:
        out.append("elements " + " ".join(group.table.labels))
        out.append("table")
        for row in group.table.table:
            out.append(" ".join(str(int(v)) for v in row))
        if group.members != frozenset(range(group.table.size)):
            out.append("members " + " ".join(str(i) for i in sorted(group.members)))
    elif group.kind == S1_AXIS:
        out.append("axis " + _floats(group.axis))
    elif group.kind == S1_PLANE:
        out.append(f"plane {group.plane[0]} {group.plane[1]}")
    elif group.kind in (SO3, SL3):
        pass
    else:
        raise SymlatError(f"serialization of kind {group.kind!r} is not supported")
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
    plane = None
    while True:
        line = cur.take()
        if line == "end":
            break
        key, _, rest = line.partition(" ")
        if key == "elements":
            labels = rest.split()
            if cur.take() != "table":
                raise SymlatError("'elements' must be followed by 'table'")
            rows = [cur.take().split() for _ in range(len(labels))]
            table = CayleyTable(np.array([[int(v) for v in r] for r in rows]), labels)
        elif key == "members":
            members = frozenset(int(v) for v in rest.split())
        elif key == "axis":
            axis = np.array([float(v) for v in rest.split()])
        elif key == "plane":
            i, j = rest.split()
            plane = (int(i), int(j))
        else:
            raise SymlatError(f"unknown group line {line!r}")
    return GroupDescriptor(kind, label, table=table, members=members,
                           axis=axis, plane=plane)


def _expect_key(line: str, key: str) -> str:
    head, _, rest = line.partition(" ")
    if head != key:
        raise SymlatError(f"expected {key!r} line, got {line!r}")
    return rest.strip()


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

def dumps_lattice(lat: Lattice) -> str:
    action = lat.action
    out = [_LATTICE_HEADER, f"dim {action.dim}", f"action {action.kind}"]
    if action.kind == ACTION_PLANAR:
        out.append(f"plane {action.plane[0]} {action.plane[1]}")
    ambient_table = None
    for node in lat.nodes:
        if node.group.is_finite and node.group.table.size > 1:
            ambient_table = node.group.table
            break
    if ambient_table is None:
        for node in lat.nodes:
            if node.group.is_finite:
                ambient_table = node.group.table
                break
    if ambient_table is not None:
        out.append("elements " + " ".join(ambient_table.labels))
        out.append("table")
        for row in ambient_table.table:
            out.append(" ".join(str(int(v)) for v in row))
        if action.kind == ACTION_MATRIX and action.matrices is not None:
            out.append("matrices")
            for mat in action.matrices:
                out.append(_floats(mat.ravel()))
        if action.kind == ACTION_PLANAR and action.angles is not None:
            out.append("angles " + _floats(action.angles))
        if action.kind == ACTION_PERMUTATION and action.perms is not None:
            out.append("perms")
            for perm in action.perms:
                out.append(" ".join(str(int(v)) for v in perm))
    for node in lat.nodes:
        g = node.group
        if g.is_finite:
            if ambient_table is not None and g.table is ambient_table:
                mem = ",".join(str(i) for i in sorted(g.members))
            elif g.table.size == 1:
                mem = "trivial"
            else:
                raise SymlatError("finite nodes must share one ambient table")
            out.append(f"node {node.node_id} {node.label} finite {mem}")
        elif g.kind == S1_AXIS:
            out.append(f"node {node.node_id} {node.label} s1-axis " + _floats(g.axis))
        elif g.kind in (SO3, SL3):
            out.append(f"node {node.node_id} {node.label} {g.kind}")
        else:
            raise SymlatError(f"cannot serialize node kind {g.kind!r}")
    rows, cols = np.nonzero(lat.covers)
    for lo, hi in zip(rows.tolist(), cols.tolist()):
        out.append(f"cover {lo} {hi}")
    out.append("end")
    return "\n".join(out) + "\n"


def loads_lattice(text: str) -> Lattice:
    cur = _Cursor(_clean_lines(text))
    if cur.take() != _LATTICE_HEADER:
        raise SymlatError(f"expected {_LATTICE_HEADER!r} header")
    dim = int(_expect_key(cur.take(), "dim"))
    action_kind = _expect_key(cur.take(), "action")
    plane = None
    ambient_table = None
    matrices = None
    angles = None
    perms = None
    node_specs: list[tuple[int, str, str, str]] = []
    covers: list[tuple[int, int]] = []
    while True:
        line = cur.take()
        if line == "end":
            break
        key, _, rest = line.partition(" ")
        if key == "plane":
            i, j = rest.split()
            plane = (int(i), int(j))
        elif key == "elements":
            labels = rest.split()
            marker = cur.take()
            if marker != "table":
                raise SymlatError("'elements' must be followed by 'table'")
            rows = [cur.take().split() for _ in range(len(labels))]
            ambient_table = CayleyTable(np.array([[int(v) for v in r] for r in rows]),
                                        labels)
        elif key == "matrices":
            if ambient_table is None:
                raise SymlatError("'matrices' needs a preceding table")
            matrices = np.array([[float(v) for v in cur.take().split()]
                                 for _ in range(ambient_table.size)])
            matrices = matrices.reshape(ambient_table.size, dim, dim)
        elif key == "angles":
            angles = np.array([float(v) for v in rest.split()])
        elif key == "perms":
            if ambient_table is None:
                raise SymlatError("'perms' needs a preceding table")
            perms = np.array([[int(v) for v in cur.take().split()]
                              for _ in range(ambient_table.size)])
        elif key == "node":
            parts = rest.split(None, 3)
            if len(parts) < 3:
                raise SymlatError(f"malformed node line {line!r}")
            node_id, label, kind = int(parts[0]), parts[1], parts[2]
            payload = parts[3] if len(parts) > 3 else ""
            node_specs.append((node_id, label, kind, payload))
        elif key == "cover":
            lo, hi = rest.split()
            covers.append((int(lo), int(hi)))
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
    for node_id, label, kind, payload in sorted(node_specs):
        if kind == "finite":
            if payload == "trivial":
                group = GroupDescriptor(FINITE, label, table=trivial_table)
            else:
                if ambient_table is None:
                    raise SymlatError("finite node without an ambient table")
                members = frozenset(int(v) for v in payload.split(","))
                group = GroupDescriptor(FINITE, label, table=ambient_table,
                                        members=members)
        elif kind == "s1-axis":
            group = GroupDescriptor(S1_AXIS, label,
                                    axis=np.array([float(v) for v in payload.split()]))
        elif kind in (SO3, SL3):
            group = GroupDescriptor(kind, label)
        else:
            raise SymlatError(f"unknown node kind {kind!r}")
        nodes.append(standard_node(node_id, group, action))
    return Lattice(nodes, order_from_covers(len(nodes), covers), action)
