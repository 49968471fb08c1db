"""Combinatorial maps and the semi-frame criterion for band subgraphs.

A map is a graph with a counterclockwise cyclic order of edge-ends at
every vertex.  Vertices are punctures or crossings; a crossing is the
planarized transversal intersection of two bands and always has degree
four.  Edge-ends ("darts") are named "{edgeId}:0" and "{edgeId}:1" for
the two ends of an edge, and faces are traced by the standard rule:
from a dart, jump to its twin and continue with the twin's rotation
successor.  Each component must satisfy V - E + F = 2; a rotation
system that fails this describes a higher-genus embedding and is
rejected.

The semi-frame question asks for a face from which every puncture of a
component can be reached by disjoint arcs: in free mode any such face
will do, in fixed mode the caller designates the face (per component)
that must serve.  Crossing vertices never need to be on the face; the
access arcs only have to end at punctures.

`band_subgraph_map` draws a set of band generators as chords between
punctures on the parabola y = x^2, planarizes the chord crossings and
returns a fixed-mode map with each component's unbounded face
designated.  Its only geometry is the chord's integer line y = S x - P:
crossings are exact rational intersections of two such lines, the
rotation at a vertex sorts darts by (leaves leftward, slope S), and the
outer face is read off the first dart at a component's lowest-index
puncture.

JSON format: {"vertices": [{"id", "kind"}], "edges": [{"id", "ends":
[v0, v1]}], "rotations": {vertexId: [dart ids, counterclockwise]},
"outer": {componentId: faceIndex} (fixed mode), "mode": "free"|"fixed"}.
Component ids are the smallest vertex id of the component; a face index
is a position in the component's list from `face_indices`, which keeps
its faces in order of their smallest dart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bands import BandGenerator
from .words import InputError


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]


@dataclass(frozen=True, eq=False)
class CombMap:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    rotations: dict[str, tuple[str, ...]]
    mode: str = "free"
    outer: dict[str, int] | None = None


def dart(edge_id: str, side: int) -> str:
    return f"{edge_id}:{side}"


def validate_map(m: CombMap) -> None:
    """Check the structural invariants; raise InputError on the first failure."""
    kinds: dict[str, str] = {}
    for v in m.vertices:
        if v.id in kinds:
            raise InputError(f"duplicate vertex id {v.id!r}")
        if v.kind not in ("puncture", "crossing"):
            raise InputError(f"vertex {v.id!r} has unknown kind {v.kind!r}")
        kinds[v.id] = v.kind
    edge_ids = set()
    expected_at: dict[str, str] = {}
    for e in m.edges:
        if e.id in edge_ids:
            raise InputError(f"duplicate edge id {e.id!r}")
        edge_ids.add(e.id)
        for side, v in enumerate(e.ends):
            if v not in kinds:
                raise InputError(f"edge {e.id!r} ends at unknown vertex {v!r}")
            expected_at[dart(e.id, side)] = v
        if e.ends[0] == e.ends[1]:
            raise InputError(f"edge {e.id!r} is a loop at {e.ends[0]!r}")
    seen_darts = set()
    for v, ring in m.rotations.items():
        if v not in kinds:
            raise InputError(f"rotation given for unknown vertex {v!r}")
        for d in ring:
            if d in seen_darts:
                raise InputError(f"dart {d!r} appears twice in the rotations")
            seen_darts.add(d)
            if d not in expected_at:
                raise InputError(f"rotation at {v!r} lists unknown dart {d!r}")
            if expected_at[d] != v:
                raise InputError(f"dart {d!r} listed at {v!r} but its edge ends at {expected_at[d]!r}")
    missing = set(expected_at) - seen_darts
    if missing:
        raise InputError(f"darts missing from the rotations: {sorted(missing)}")
    for v, kind in kinds.items():
        if kind == "crossing" and len(m.rotations.get(v, ())) != 4:
            raise InputError(f"crossing vertex {v!r} must have degree 4")
    if m.mode not in ("free", "fixed"):
        raise InputError(f"mode must be 'free' or 'fixed', got {m.mode!r}")
    if m.mode == "fixed":
        if m.outer is None:
            raise InputError("fixed mode requires an outer face designation")
        for comp, idx in m.outer.items():
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
                raise InputError(f"outer face index for component {comp!r} must be a nonnegative integer")


def _components(m: CombMap) -> dict[str, str]:
    """Vertex id -> component id (the smallest vertex id of its component).

    One depth-first pass over the vertex ids in sorted order: the first
    vertex it reaches in a component is that component's smallest id.
    """
    adjacent: dict[str, list[str]] = {v.id: [] for v in m.vertices}
    for a, b in (e.ends for e in m.edges):
        adjacent[a].append(b)
        adjacent[b].append(a)
    out: dict[str, str] = {}
    for root in sorted(adjacent):
        if root in out:
            continue
        out[root] = root
        stack = [root]
        while stack:
            for v in adjacent[stack.pop()]:
                if v not in out:
                    out[v] = root
                    stack.append(v)
    return out


@dataclass(frozen=True)
class FaceWalk:
    component: str
    darts: tuple[str, ...]
    vertices: tuple[str, ...]


def trace_faces(m: CombMap) -> tuple[FaceWalk, ...]:
    """All face walks of the map, one synthetic walk per edgeless component.

    Faces come back sorted by (component, smallest dart), which is the
    order face indices refer to.  Raises InputError when a component
    violates V - E + F = 2.
    """
    validate_map(m)
    comp_of = _components(m)
    at_vertex: dict[str, str] = {}
    succ: dict[str, str] = {}
    for v, ring in m.rotations.items():
        for i, d in enumerate(ring):
            at_vertex[d] = v
            succ[d] = ring[(i + 1) % len(ring)]
    # A face walk leaves each dart for its twin's rotation successor.
    after = {dart(e.id, side): succ[dart(e.id, 1 - side)] for e in m.edges for side in (0, 1)}

    faces: list[FaceWalk] = []
    for start in sorted(after):
        walk, d = [], start
        while d in after:
            walk.append(d)
            d = after.pop(d)
        if walk:
            vertices = tuple(sorted({at_vertex[x] for x in walk}))
            faces.append(FaceWalk(comp_of[at_vertex[start]], tuple(walk), vertices))

    touched = {f.component for f in faces}
    for v in m.vertices:
        cid = comp_of[v.id]
        if cid not in touched and not m.rotations.get(v.id):
            faces.append(FaceWalk(cid, (), (v.id,)))
            touched.add(cid)

    counts: dict[str, list[int]] = {}
    for v in m.vertices:
        counts.setdefault(comp_of[v.id], [0, 0, 0])[0] += 1
    for e in m.edges:
        counts[comp_of[e.ends[0]]][1] += 1
    for f in faces:
        counts[f.component][2] += 1
    for cid, (nv, ne, nf) in sorted(counts.items()):
        if nv - ne + nf != 2:
            raise InputError(
                f"component {cid!r} has V-E+F = {nv}-{ne}+{nf} != 2: not a sphere embedding"
            )
    faces.sort(key=lambda f: (f.component, f.darts[0] if f.darts else ""))
    return tuple(faces)


def face_indices(faces: tuple[FaceWalk, ...]) -> dict[str, list[FaceWalk]]:
    """componentId -> its faces in traced order, so a face index is a list index."""
    out: dict[str, list[FaceWalk]] = {}
    for f in faces:
        out.setdefault(f.component, []).append(f)
    return out


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    witnesses: dict[str, int] | None
    reason: str | None


def check_semiframe(m: CombMap) -> Verdict:
    """Does some face (or the designated one) see all punctures per component?

    Free mode accepts when every component has at least one face whose
    incident vertices include all of that component's punctures; the
    witness reported is the first such face index.  Fixed mode accepts
    only if the designated faces witness this; an outer key that names
    no component is malformed input.
    """
    puncture_ids = {v.id for v in m.vertices if v.kind == "puncture"}
    by_component = face_indices(trace_faces(m))
    for cid in m.outer if m.mode == "fixed" else ():
        if cid not in by_component:
            raise InputError(f"fixed mode: outer names {cid!r}, which is not a component id")
    witnesses: dict[str, int] = {}
    for cid, faces in sorted(by_component.items()):
        # Every vertex lies on a face of its component (an isolated one on
        # its synthetic face), so the faces name the component's punctures.
        need = puncture_ids.intersection(v for f in faces for v in f.vertices)
        if m.mode == "fixed":
            if cid not in m.outer:
                raise InputError(f"fixed mode: no outer face designated for component {cid!r}")
            if m.outer[cid] >= len(faces):
                raise InputError(f"component {cid!r} has no face {m.outer[cid]}")
            candidates = [m.outer[cid]]
        else:
            candidates = range(len(faces))
        found = next((i for i in candidates if need <= set(faces[i].vertices)), None)
        if found is None:
            return Verdict(False, None, f"component {cid!r}: no candidate face sees all its punctures")
        witnesses[cid] = found
    return Verdict(True, witnesses, None)


# -- geometric construction of band subgraph maps ---------------------------


def _meets_two_crossing_chords(xs: list[int]) -> bool:
    """Does a chord to the last puncture pass through the crossing of two others?

    The chord from (x_a, x_a^2) to (x_b, x_b^2) is the line
    y = (x_a + x_b) x - x_a x_b, so three crossing chords meet in one
    point exactly when their points (x_a + x_b, x_a x_b) are collinear.
    A chord (a, m) to the last puncture m crosses the chords (c, d) with
    c < a < d < m.
    """
    m = len(xs) - 1
    for a in range(m):
        cut = [(c, d) for d in range(a + 1, m) for c in range(a)]
        p0, p1 = xs[a] + xs[m], xs[a] * xs[m]
        for i, (c, d) in enumerate(cut):
            q0, q1 = xs[c] + xs[d] - p0, xs[c] * xs[d] - p1
            for e, f in cut[i + 1 :]:
                if (c < e < d < f or e < c < f < d) and (
                    q0 * (xs[e] * xs[f] - p1) == q1 * (xs[e] + xs[f] - p0)
                ):
                    return True
    return False


@lru_cache(maxsize=None)
def _abscissae(n: int) -> tuple[int, ...]:
    """Puncture abscissae x_1 < ... < x_n with no three chords concurrent.

    Each x_j is the smallest integer above x_{j-1} for which no chord to
    puncture j passes through a crossing of two others.  The choice for n
    is a prefix of the choice for any larger n: x_j = j up to j = 8, then
    14, 16, 24, 27.
    """
    if n == 0:
        return ()
    xs = list(_abscissae(n - 1))
    xs.append(xs[-1] + 1 if xs else 1)
    while _meets_two_crossing_chords(xs):
        xs[-1] += 1
    return tuple(xs)


def band_subgraph_map(n: int, generators) -> CombMap:
    """Draw a set of band generators as a fixed-mode combinatorial map.

    Puncture j sits at (x_j, x_j^2) with x_j from `_abscissae`, so the
    punctures are in convex position and no three chords meet in one
    point.  The chord a_{t,s} is the line y = S x - P with S = x_s + x_t
    and P = x_s x_t, and that line is all the geometry used:

    * Two chords cross exactly when their index pairs strictly
      interleave, at x = (P1 - P2) / (S1 - S2).  Crossings become
      degree-4 vertices named c0, c1, ... in (x, y) order; the segments
      of a_{t,s} are edges "t:s/0", "t:s/1", ... in x order from the s
      end.
    * Every x_j is at least 1, so every slope S is positive: an edge
      leaving rightward points into the open upper-right quadrant and one
      leaving leftward into the lower-left.  The counterclockwise
      rotation at a vertex is its darts sorted by (leaves leftward, S).
    * All edges at a component's lowest-index puncture leave rightward,
      so the face holding the first dart of its rotation (the one on the
      dart's clockwise side) is unbounded; it is designated as the outer
      face.  An edgeless component designates its synthetic face 0.
    """
    gens = sorted(set(generators), key=lambda a: (a.t, a.s))
    for a in gens:
        if a.n != n:
            raise InputError(f"generator {a} has strand count {a.n}, expected {n}")
    xs = (0, *_abscissae(n))
    line = {a: (xs[a.s] + xs[a.t], xs[a.s] * xs[a.t]) for a in gens}
    vertices = [Vertex(f"p{j}", "puncture") for j in range(1, n + 1)]

    crossing_at: dict[tuple[Fraction, Fraction], list[BandGenerator]] = {}
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if a.s < b.s < a.t < b.t:
                (s1, p1), (s2, p2) = line[a], line[b]
                x = Fraction(p1 - p2, s1 - s2)
                crossing_at.setdefault((x, s1 * x - p1), []).extend((a, b))
    # Crossings are named in (x, y) order, so each chord meets its own in x order.
    stops: dict[BandGenerator, list[str]] = {a: [f"p{a.s}"] for a in gens}
    for k, point in enumerate(sorted(crossing_at)):
        if len(crossing_at[point]) > 2:
            # `_abscissae` rules this out, so it is a fault, not bad input.
            raise RuntimeError("three chords through one point; layout degenerate")
        vertices.append(Vertex(f"c{k}", "crossing"))
        for a in crossing_at[point]:
            stops[a].append(f"c{k}")

    edges: list[Edge] = []
    incident: dict[str, list[tuple[tuple[bool, int], str]]] = {v.id: [] for v in vertices}
    for a in gens:
        path, slope = stops[a] + [f"p{a.t}"], line[a][0]
        for k in range(len(path) - 1):
            e = Edge(f"{a.t}:{a.s}/{k}", (path[k], path[k + 1]))
            edges.append(e)
            incident[path[k]].append(((False, slope), dart(e.id, 0)))
            incident[path[k + 1]].append(((True, slope), dart(e.id, 1)))
    rotations = {v: tuple(d for _key, d in sorted(ends)) for v, ends in incident.items()}

    draft = CombMap(tuple(vertices), tuple(edges), rotations, "free", None)
    face_of = {d: (cid, i) for cid, faces in face_indices(trace_faces(draft)).items()
               for i, f in enumerate(faces) for d in f.darts}
    outer: dict[str, int] = {}
    for j in range(1, n + 1):
        ring = rotations[f"p{j}"]
        cid, i = face_of[ring[0]] if ring else (f"p{j}", 0)
        outer.setdefault(cid, i)
    return CombMap(tuple(vertices), tuple(edges), rotations, "fixed", outer)


def delete_edge(m: CombMap, edge_id: str) -> CombMap:
    """The map with one edge removed (rotations keep their cyclic order).

    Removing a segment that meets a crossing vertex would leave an
    invalid degree-3 crossing, so this is for puncture-to-puncture
    edges; validity is the caller's concern and re-checked on use.
    Deleting an edge renumbers faces and can split a component, so any
    fixed-mode designation goes stale: the result is always free mode.
    """
    if all(e.id != edge_id for e in m.edges):
        raise InputError(f"no edge {edge_id!r}")
    drop = {dart(edge_id, 0), dart(edge_id, 1)}
    rotations = {
        v: tuple(d for d in ring if d not in drop) for v, ring in m.rotations.items()
    }
    return CombMap(
        m.vertices,
        tuple(e for e in m.edges if e.id != edge_id),
        rotations,
        "free",
        None,
    )


def map_to_json(m: CombMap) -> dict:
    out = {
        "vertices": [{"id": v.id, "kind": v.kind} for v in sorted(m.vertices, key=lambda v: v.id)],
        "edges": [{"id": e.id, "ends": list(e.ends)} for e in sorted(m.edges, key=lambda e: e.id)],
        "rotations": {v: list(ring) for v, ring in sorted(m.rotations.items())},
        "mode": m.mode,
    }
    if m.outer is not None:
        out["outer"] = dict(sorted(m.outer.items()))
    return out


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def _ends(value) -> tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f"edge ends must be a list of two vertex ids, got {value!r}")
    return _text(value[0], "edge end"), _text(value[1], "edge end")


def _array(value, what: str) -> list:
    # An empty object or string would iterate as no items at all.
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array, got {value!r}")
    return value


def map_from_json(data: dict) -> CombMap:
    """The map of a JSON object; `trace_faces` validates its structure."""
    try:
        vertices = tuple(Vertex(_text(v["id"], "vertex id"), _text(v["kind"], "vertex kind"))
                         for v in _array(data["vertices"], "vertices"))
        edges = tuple(Edge(_text(e["id"], "edge id"), _ends(e["ends"]))
                      for e in _array(data["edges"], "edges"))
        rotations = {
            v: tuple(_text(d, "rotation dart") for d in _array(ring, "rotation ring"))
            for v, ring in data.get("rotations", {}).items()
        }
        mode = data.get("mode", "free")
        outer = data.get("outer")
        if outer is not None:
            outer = {str(k): v for k, v in outer.items()}
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed map JSON: {exc}") from None
    return CombMap(vertices, edges, rotations, mode, outer)
