"""Combinatorics of post-critically finite self-similar structures.

A structure is given by a finite alphabet S = {1, ..., N} (one contraction per
letter), a boundary vertex set V_0 = {p_1, ..., p_d}, a declaration that p_i is
the fixed point of the letter-i map, and a level-1 gluing relation recording
which images of boundary points coincide: (i, p) ~ (j, q) means the letter-i
copy of p and the letter-j copy of q are the same point.  All deeper vertex
identifications are derived recursively from this single relation: depth-m
cells are glued exactly where the depth-1 relation glues them inside every
depth-(m-1) cell.

Vertex ids are assigned deterministically: scanning cells in lexicographic
word order and boundary corners in declaration order, a vertex gets the id of
its first occurrence.  Equivalently, ids increase with the lexicographically
smallest (word, corner) representative of the vertex, so two builds of the
same structure always agree byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import CONSISTENCY_TOL, MAX_CELLS, REALIZATION_TOL
from .errors import CapExceededError, FracformError, ParseError, ValidationError

GluePair = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True, eq=False)
class VertexTable:
    """Vertices of V_m together with the cell-corner incidence.

    slots[c, p] is the vertex id of corner p of the depth-m cell with
    lexicographic index c.  For m = 0 the table is V_0 itself.
    """

    depth: int
    n_letters: int
    num_vertices: int
    slots: np.ndarray
    boundary_ids: np.ndarray


@dataclass(frozen=True, eq=False)
class StructureSpec:
    """Validated combinatorial description of a p.c.f. self-similar structure."""

    n_letters: int
    boundary: tuple[str, ...]
    gluing: tuple[GluePair, ...]
    laplacian: np.ndarray | None = None
    weights: np.ndarray | None = None
    realization: dict | None = None
    name: str = ""
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.boundary)

    def vertex_table(self, depth: int) -> VertexTable:
        """The depth's vertex table, memoized.  Building one drops every
        shallower table, so a walk over refining depths holds one table,
        while a deep table outlives the shallow ones that its functions' cell
        coefficients need."""
        table = self._tables.get(depth)
        if table is None:
            for shallower in [m for m in self._tables if m < depth]:
                del self._tables[shallower]
            table = self._tables[depth] = build_vertices(self, depth)
        return table

    def vertex_count(self, depth: int) -> int:
        """|V_depth| without building the table: each level puts n copies of
        V_{depth-1} side by side and merges one vertex per gluing pair."""
        check_cell_cap(self.n_letters, depth)
        cells = self.n_letters ** depth
        return cells * self.d - len(self.gluing) * (cells - 1) // (self.n_letters - 1)


def check_cell_cap(n_letters: int, depth: int) -> None:
    """Raise ValidationError for a negative depth and CapExceededError when
    depth has more than MAX_CELLS cells.

    n_letters >= 2, so a depth of MAX_CELLS.bit_length() or more is over the
    cap and n_letters ** depth is never formed for it; a count of more than
    20 digits is printed as a power.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if depth < MAX_CELLS.bit_length() and n_letters ** depth <= MAX_CELLS:
        return
    cells = f"{n_letters}^{depth}" if depth * math.log10(n_letters) >= 20 else n_letters ** depth
    raise CapExceededError(f"depth {depth} needs {cells} cells, cap is {MAX_CELLS}")


def build_vertices(spec: StructureSpec, depth: int) -> VertexTable:
    """Enumerate V_depth by gluing n copies of V_{depth-1}, one level at a time.

    validate_structure stores each pair as ((i, p), (j, q)) with i < j and
    never glues a slot twice, so every vertex of V_{depth-1} that the later
    corner (j, q) lands on takes the id of the earlier corner, and every other
    vertex gets the next id copy by copy: the first-occurrence numbering.
    Boundary point p_k of V_depth is p_k of copy k.
    """
    n, d = spec.n_letters, spec.d
    check_cell_cap(n, depth)
    early, early_corner, late, late_corner = np.array(spec.gluing, dtype=np.int64).reshape(-1, 4).T
    slots = np.arange(d, dtype=np.int64)[None, :]
    boundary_ids = np.arange(d, dtype=np.int64)
    nv = d
    for _ in range(depth):
        fresh = np.ones((n, nv), dtype=bool)
        fresh[late - 1, boundary_ids[late_corner]] = False
        ids = np.cumsum(fresh).reshape(n, nv) - 1
        ids[late - 1, boundary_ids[late_corner]] = ids[early - 1, boundary_ids[early_corner]]
        # A pure advanced index keeps slots C-ordered; ids[:, slots] can come
        # out Fortran-ordered, and einsum over values[slots] rounds differently.
        slots = ids[np.arange(n)[:, None, None], slots].reshape(-1, d)
        boundary_ids = ids[np.arange(d), boundary_ids]
        nv = n * nv - late.size
    slots.setflags(write=False)
    boundary_ids.setflags(write=False)
    return VertexTable(
        depth=depth, n_letters=n, num_vertices=nv, slots=slots, boundary_ids=boundary_ids
    )


# ---------------------------------------------------------------------------
# document parsing


_REQUIRED_FIELDS = ("alphabet_size", "boundary", "fixed_points", "gluing")


def _integer(raw, what: str) -> int:
    """A document field as a JSON integer; int() would truncate 3.5 and
    accept "3" and true."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{what} must be an integer, got {raw!r}")
    return raw


def _floats(raw, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """A document field as a finite float array (of ``shape``, when given).

    Every entry must be a JSON number: np.asarray would parse "0.6" and read
    true as 1.0.
    """
    stack = [raw]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ParseError(f"{what} must hold numbers only, got {item!r}")
    try:
        arr = np.asarray(raw, dtype=float)
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"{what} must be a regular array of floats: {exc}") from exc
    if shape is not None and arr.shape != shape:
        raise ParseError(f"{what} must have shape {shape}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what} must hold finite numbers")
    return arr


def convex_weights(
    values, count: int, what: str, error: type[FracformError] = ValidationError
) -> np.ndarray:
    """A fresh float copy of ``count`` convex weights: positive and summing
    to 1 within CONSISTENCY_TOL.

    A wrong count is a mismatch with the structure or family and raises
    ValidationError; an entry or sum out of range raises ``error``, so an
    option can report it as a parse failure.
    """
    w = np.array(values, dtype=float)
    if w.shape != (count,):
        raise ValidationError(f"{what}: need {count} values, got shape {w.shape}")
    if not np.all(w > 0.0):
        raise error(f"{what} must be positive")
    if not abs(float(w.sum()) - 1.0) <= CONSISTENCY_TOL:
        raise error(f"{what} must sum to 1")
    return w


def _parse_realization(raw, n: int, boundary: Sequence[str]) -> dict:
    if not isinstance(raw, Mapping):
        raise ParseError("realization must be an object")
    maps_raw = raw.get("maps")
    if "dimension" not in raw or not isinstance(maps_raw, Mapping):
        raise ParseError("realization needs integer 'dimension' and a 'maps' object")
    dim = _integer(raw["dimension"], "realization dimension")
    maps = {}
    for letter in range(1, n + 1):
        entry = maps_raw.get(str(letter))
        if not isinstance(entry, Mapping):
            raise ParseError(f"realization map for letter {letter} is missing or not an object")
        matrix = _floats(entry.get("matrix"), f"map {letter} matrix", (dim, dim))
        maps[letter] = (matrix, _floats(entry.get("offset"), f"map {letter} offset", (dim,)))
    points = None
    if "boundary_points" in raw:
        points_raw = raw["boundary_points"]
        if not isinstance(points_raw, Mapping):
            raise ParseError("realization boundary_points must be an object")
        points = {}
        for label in boundary:
            if label not in points_raw:
                raise ParseError(f"realization boundary_points missing {label!r}")
            points[label] = _floats(points_raw[label], f"boundary point {label!r}", (dim,))
    return {"dimension": dim, "maps": maps, "boundary_points": points}


def _check_realization_geometry(spec: StructureSpec) -> None:
    """When coordinates are supplied, fixed points and gluings must agree with
    them: every declared pair coincides, and corners that coincide are glued,
    that is, share a level-1 vertex."""
    real = spec.realization
    if not real or real["boundary_points"] is None:
        return
    n, d, dim = spec.n_letters, spec.d, real["dimension"]
    pts = np.array([real["boundary_points"][label] for label in spec.boundary])
    mats, offs = (np.array(part) for part in zip(*(real["maps"][i] for i in range(1, n + 1))))
    # Row (i - 1) d + p of images is corner p of cell i.
    images = (pts @ mats.transpose(0, 2, 1) + offs[:, None, :]).reshape(n * d, dim)
    tol = REALIZATION_TOL * (float(np.linalg.norm(pts, axis=1).max()) or 1.0)
    # Corner i of cell i against p_i, then each declared pair's two corners;
    # the first gap over tol, in declaration order, is the one reported.
    err = np.linalg.norm(images[np.arange(d) * (d + 1)] - pts, axis=1)
    for i in np.flatnonzero(err > tol)[:1]:
        raise ValidationError(f"fixed-point mismatch: map {i + 1} does not fix "
                              f"{spec.boundary[i]!r} in the supplied realization "
                              f"(error {err[i]:.3g})")
    i, p, j, q = np.array(spec.gluing, dtype=np.int64).reshape(-1, 4).T
    apart = np.linalg.norm(images[(i - 1) * d + p] - images[(j - 1) * d + q], axis=1) > tol
    for (i, p), (j, q) in [spec.gluing[k] for k in np.flatnonzero(apart)[:1]]:
        raise ValidationError("gluing conflict: declared identification "
                              f"({i},{spec.boundary[p]}) ~ ({j},{spec.boundary[q]}) "
                              "does not hold in the realization")
    # Corners within tol project within tol onto a unit direction, so after
    # a sort by projection each corner meets only the next few in that order.
    # The direction's irrational slopes, (sqrt(1), ..., sqrt(dim)) normalized,
    # keep lattice-like layouts from stacking many corners at one projection.
    proj = images @ np.sqrt(np.arange(1, dim + 1) / (dim * (dim + 1) / 2))
    order = np.argsort(proj, kind="stable")
    # Sorted position s meets the ahead[s] positions after it.
    ahead = np.searchsorted(proj[order], proj[order] + tol, side="right") - np.arange(n * d) - 1
    near = np.repeat(np.arange(n * d), ahead)
    far = near + 1 + np.arange(near.size) - np.repeat(np.cumsum(ahead) - ahead, ahead)
    lo, hi = np.minimum(order[near], order[far]), np.maximum(order[near], order[far])
    slots = spec.vertex_table(1).slots.ravel()
    apart = (np.linalg.norm(images[lo] - images[hi], axis=1) <= tol) & (slots[lo] != slots[hi])
    if apart.any():
        a, b = min(zip(lo[apart], hi[apart]))
        raise ValidationError(
            f"gluing conflict: corners ({a // d + 1},{spec.boundary[a % d]}) and "
            f"({b // d + 1},{spec.boundary[b % d]}) coincide in the realization "
            "but are not glued"
        )


def _reachable(adj: Mapping[int, Iterable[int]], start: int) -> set[int]:
    """Vertices reachable from ``start`` in the graph with adjacency ``adj``."""
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def boundary_deletion_connected(spec: StructureSpec) -> list[tuple[str, bool]]:
    """Per boundary label, whether the level-1 network stays connected
    without that vertex.

    A level-1 surrogate of the boundary-point deletion check: vertices of a
    common cell are mutually reachable, so the question is whether removing
    one boundary vertex disconnects the cell hypergraph.
    """
    table = spec.vertex_table(1)
    results = []
    for k, label in enumerate(spec.boundary):
        removed = int(table.boundary_ids[k])
        adj = {v: set() for v in range(table.num_vertices) if v != removed}
        for row in table.slots.tolist():
            cell = set(row) - {removed}
            for v in cell:
                adj[v] |= cell
        results.append((label, _reachable(adj, min(adj)) == set(adj)))
    return results


def validate_structure(raw: Mapping) -> StructureSpec:
    """Build a StructureSpec from a parsed document, checking every invariant."""
    for key in _REQUIRED_FIELDS:
        if key not in raw:
            raise ParseError(f"structure document missing field {key!r}")
    n = _integer(raw["alphabet_size"], "alphabet_size")
    if n < 2:
        raise ValidationError(f"alphabet must have at least two letters, got {n}")

    boundary_raw = raw["boundary"]
    if not isinstance(boundary_raw, Sequence) or isinstance(boundary_raw, str):
        raise ParseError("boundary must be a list of labels")
    boundary = tuple(str(b) for b in boundary_raw)
    if len(set(boundary)) != len(boundary):
        raise ValidationError("boundary labels must be distinct")
    d = len(boundary)
    if d < 2:
        raise ValidationError("boundary needs at least two vertices")
    if d > n:
        raise ValidationError(
            f"boundary has {d} vertices but only {n} letters can declare fixed points"
        )

    fixed = raw["fixed_points"]
    if not isinstance(fixed, Mapping):
        raise ParseError("fixed_points must be a map letter -> boundary label")
    declared = {}
    for key, label in fixed.items():
        try:
            letter = int(key)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"fixed_points key {key!r} is not a letter") from exc
        if not 1 <= letter <= n:
            raise ValidationError(f"fixed_points letter {letter} outside alphabet 1..{n}")
        if str(label) not in boundary:
            raise ValidationError(f"fixed_points target {label!r} is not a boundary label")
        declared[letter] = str(label)
    # Normal form: letter i fixes p_i for i = 1..d, and every boundary vertex
    # is covered.  This is the standing assumption behind run-word analysis.
    expected = {i + 1: boundary[i] for i in range(d)}
    if declared != expected:
        raise ValidationError(
            "fixed-point mismatch: expected letters 1..d to fix the boundary "
            f"vertices in declaration order, got {declared!r}"
        )

    gluing_raw = raw["gluing"]
    if not isinstance(gluing_raw, Sequence):
        raise ParseError("gluing must be a list of 4-tuples [i, p, j, q]")
    pairs: list[GluePair] = []
    seen_slots: dict[tuple[int, int], GluePair] = {}
    boundary_pos = {label: k for k, label in enumerate(boundary)}
    for entry in gluing_raw:
        if not isinstance(entry, Sequence) or len(entry) != 4:
            raise ParseError(f"gluing entry {entry!r} is not a 4-tuple [i, p, j, q]")
        i_raw, p_raw, j_raw, q_raw = entry
        i, j = (_integer(c, f"gluing letter in {entry!r}") for c in (i_raw, j_raw))
        for letter in (i, j):
            if not 1 <= letter <= n:
                raise ValidationError(f"gluing letter {letter} outside alphabet 1..{n}")
        if i == j:
            raise ValidationError(f"gluing entry {entry!r} identifies a cell with itself")
        for label in (p_raw, q_raw):
            if str(label) not in boundary_pos:
                raise ValidationError(f"gluing label {label!r} is not a boundary label")
        a = (i, boundary_pos[str(p_raw)])
        b = (j, boundary_pos[str(q_raw)])
        pair: GluePair = (min(a, b), max(a, b))
        if seen_slots.get(a) == pair:  # a repeated pair
            continue
        for slot in (a, b):
            other = seen_slots.get(slot)
            if other is not None:
                raise ValidationError(
                    f"gluing conflict: slot (cell {slot[0]}, {boundary[slot[1]]}) "
                    "appears in two identifications with distinct targets"
                )
        seen_slots[a] = pair
        seen_slots[b] = pair
        pairs.append(pair)

    # The level-1 cell adjacency graph must be connected, which takes at
    # least n - 1 edges; counting them first keeps a huge alphabet cheap.
    if len(pairs) < n - 1:
        raise ValidationError(
            f"disconnected level-1 graph: {len(pairs)} gluing pairs cannot connect {n} cells"
        )
    adj: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for (i, _), (j, _) in pairs:
        adj[i].add(j)
        adj[j].add(i)
    seen = _reachable(adj, 1)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise ValidationError(
            f"disconnected level-1 graph: cells {missing} never touch cell 1's component"
        )

    laplacian = None
    if raw.get("laplacian") is not None:
        laplacian = _floats(raw["laplacian"], "laplacian", (d, d))
        laplacian.setflags(write=False)
    weights = None
    if raw.get("weights") is not None:
        weights = _floats(raw["weights"], "weights", (n,))
        weights.setflags(write=False)

    realization = None
    if raw.get("realization") is not None:
        realization = _parse_realization(raw["realization"], n, boundary)

    spec = StructureSpec(
        n_letters=n,
        boundary=boundary,
        gluing=tuple(pairs),
        laplacian=laplacian,
        weights=weights,
        realization=realization,
        name=str(raw.get("name", "")),
    )
    _check_realization_geometry(spec)

    # Distinct boundary vertices must stay distinct at depth 1.
    table1 = spec.vertex_table(1)
    if len(set(table1.boundary_ids.tolist())) != d:
        raise ValidationError("gluing conflict: two boundary vertices are identified")
    return spec


def load_structure(path: str | Path) -> StructureSpec:
    """Read and validate a structure document from disk."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"structure document is not valid JSON: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ParseError("structure document must be a JSON object")
    spec = validate_structure(raw)
    if not spec.name:
        object.__setattr__(spec, "name", path.stem)
    return spec


def builtin_structure_path(name: str) -> Path:
    """Path of a structure document shipped with the package."""
    here = Path(__file__).resolve().parent / "data" / f"{name}.json"
    if not here.exists():
        available = sorted(p.stem for p in here.parent.glob("*.json"))
        raise ParseError(f"no builtin structure {name!r}; available: {available}")
    return here


def builtin_structure(name: str) -> StructureSpec:
    return load_structure(builtin_structure_path(name))
