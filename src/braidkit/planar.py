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
punctures placed on a convex arc, planarizes the chord crossings with
exact rational arithmetic, and returns a fixed-mode map with each
component's unbounded face designated.

JSON format: {"vertices": [{"id", "kind"}], "edges": [{"id", "ends":
[v0, v1]}], "rotations": {vertexId: [dart ids, counterclockwise]},
"outer": {componentId: faceIndex} (fixed mode), "mode": "free"|"fixed"}.
Component ids are the smallest vertex id of the component; face indices
count that component's faces in order of their smallest dart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache

from .bands import BandGenerator, PairClass, classify_pair


class MapError(ValueError):
    pass


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


def dart_edge_side(d: str) -> tuple[str, int]:
    edge_id, _, side = d.rpartition(":")
    if side not in ("0", "1") or not edge_id:
        raise MapError(f"bad dart id {d!r}")
    return edge_id, int(side)


def validate_map(m: CombMap) -> None:
    """Check the structural invariants; raise MapError on the first failure."""
    kinds: dict[str, str] = {}
    for v in m.vertices:
        if v.id in kinds:
            raise MapError(f"duplicate vertex id {v.id!r}")
        if v.kind not in ("puncture", "crossing"):
            raise MapError(f"vertex {v.id!r} has unknown kind {v.kind!r}")
        kinds[v.id] = v.kind
    edge_ids = set()
    expected_at: dict[str, str] = {}
    for e in m.edges:
        if e.id in edge_ids:
            raise MapError(f"duplicate edge id {e.id!r}")
        edge_ids.add(e.id)
        for side, v in enumerate(e.ends):
            if v not in kinds:
                raise MapError(f"edge {e.id!r} ends at unknown vertex {v!r}")
            expected_at[dart(e.id, side)] = v
        if e.ends[0] == e.ends[1]:
            raise MapError(f"edge {e.id!r} is a loop at {e.ends[0]!r}")
    seen_darts = set()
    for v, ring in m.rotations.items():
        if v not in kinds:
            raise MapError(f"rotation given for unknown vertex {v!r}")
        for d in ring:
            if d in seen_darts:
                raise MapError(f"dart {d!r} appears twice in the rotations")
            seen_darts.add(d)
            if d not in expected_at:
                raise MapError(f"rotation at {v!r} lists unknown dart {d!r}")
            if expected_at[d] != v:
                raise MapError(f"dart {d!r} listed at {v!r} but its edge ends at {expected_at[d]!r}")
    missing = set(expected_at) - seen_darts
    if missing:
        raise MapError(f"darts missing from the rotations: {sorted(missing)}")
    for v, kind in kinds.items():
        if kind == "crossing" and len(m.rotations.get(v, ())) != 4:
            raise MapError(f"crossing vertex {v!r} must have degree 4")
    if m.mode not in ("free", "fixed"):
        raise MapError(f"mode must be 'free' or 'fixed', got {m.mode!r}")
    if m.mode == "fixed":
        if m.outer is None:
            raise MapError("fixed mode requires an outer face designation")
        for comp, idx in m.outer.items():
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
                raise MapError(f"outer face index for component {comp!r} must be a nonnegative integer")


def _components(m: CombMap) -> dict[str, str]:
    """Vertex id -> component id (the smallest vertex id of its component)."""
    parent = {v.id: v.id for v in m.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in m.edges:
        a, b = find(e.ends[0]), find(e.ends[1])
        if a != b:
            parent[a] = b
    roots: dict[str, list[str]] = {}
    for v in parent:
        roots.setdefault(find(v), []).append(v)
    out: dict[str, str] = {}
    for members in roots.values():
        cid = min(members)
        for v in members:
            out[v] = cid
    return out


@dataclass(frozen=True)
class FaceWalk:
    component: str
    darts: tuple[str, ...]
    vertices: tuple[str, ...]


def trace_faces(m: CombMap) -> tuple[FaceWalk, ...]:
    """All face walks of the map, one synthetic walk per edgeless component.

    Faces come back sorted by (component, smallest dart), which is the
    order face indices refer to.  Raises MapError when a component
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

    def twin(d: str) -> str:
        edge_id, side = dart_edge_side(d)
        return dart(edge_id, 1 - side)

    faces: list[FaceWalk] = []
    remaining = set(at_vertex)
    while remaining:
        start = min(remaining)
        walk = [start]
        remaining.discard(start)
        d = succ[twin(start)]
        while d != start:
            walk.append(d)
            remaining.discard(d)
            d = succ[twin(d)]
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
            raise MapError(
                f"component {cid!r} has V-E+F = {nv}-{ne}+{nf} != 2: not a sphere embedding"
            )
    faces.sort(key=lambda f: (f.component, f.darts[0] if f.darts else ""))
    return tuple(faces)


def face_indices(faces: tuple[FaceWalk, ...]) -> dict[tuple[str, int], FaceWalk]:
    """(componentId, per-component index) -> face, in traced order."""
    out: dict[tuple[str, int], FaceWalk] = {}
    counters: dict[str, int] = {}
    for f in faces:
        i = counters.get(f.component, 0)
        counters[f.component] = i + 1
        out[(f.component, i)] = f
    return out


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    witnesses: dict[str, int] | None
    reason: str | None

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "witnesses": self.witnesses,
            "reason": self.reason,
        }


def check_semiframe(m: CombMap) -> Verdict:
    """Does some face (or the designated one) see all punctures per component?

    Free mode accepts when every component has at least one face whose
    incident vertices include all of that component's punctures; the
    witness reported is the first such face index.  Fixed mode accepts
    only if the designated faces witness this.
    """
    faces = trace_faces(m)
    comp_of = _components(m)
    punctures: dict[str, set[str]] = {}
    for v in m.vertices:
        punctures.setdefault(comp_of[v.id], set())
        if v.kind == "puncture":
            punctures[comp_of[v.id]].add(v.id)
    indexed = face_indices(faces)
    per_component: dict[str, list[tuple[int, FaceWalk]]] = {}
    for (cid, i), f in indexed.items():
        per_component.setdefault(cid, []).append((i, f))

    witnesses: dict[str, int] = {}
    for cid in sorted(punctures):
        need = punctures[cid]
        if m.mode == "fixed":
            if cid not in m.outer:
                raise MapError(f"fixed mode: no outer face designated for component {cid!r}")
            idx = m.outer[cid]
            if (cid, idx) not in indexed:
                raise MapError(f"component {cid!r} has no face {idx}")
            candidates = [(idx, indexed[(cid, idx)])]
        else:
            candidates = sorted(per_component[cid])
        found = None
        for idx, f in candidates:
            if need <= set(f.vertices):
                found = idx
                break
        if found is None:
            return Verdict(False, None, f"component {cid!r}: no candidate face sees all its punctures")
        witnesses[cid] = found
    return Verdict(True, witnesses, None)


# -- geometric construction of band subgraph maps ---------------------------

Point = tuple[Fraction, Fraction]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ccw_key(origin: Point):
    zero = Fraction(0)

    def halfplane(p: Point) -> int:
        dx, dy = p[0] - origin[0], p[1] - origin[1]
        return 0 if dy > zero or (dy == zero and dx > zero) else 1

    def cmp(a: Point, b: Point) -> int:
        ha, hb = halfplane(a), halfplane(b)
        if ha != hb:
            return ha - hb
        c = _cross(origin, a, b)
        if c > zero:
            return -1
        if c < zero:
            return 1
        raise MapError("two edges leave a vertex in the same direction")

    return cmp


def _segment_intersection(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        raise MapError("crossing chords are parallel; layout degenerate")
    w = (q1[0] - p1[0], q1[1] - p1[1])
    u = (w[0] * d2[1] - w[1] * d2[0]) / denom
    v = (w[0] * d1[1] - w[1] * d1[0]) / denom
    if not (0 < u < 1 and 0 < v < 1):
        raise MapError("chords classified as crossing do not intersect internally")
    return (p1[0] + u * d1[0], p1[1] + u * d1[1])


def _chords_cross(x: BandGenerator, y: BandGenerator) -> bool:
    return (
        classify_pair(x, y) is PairClass.INTERLEAVED
        and classify_pair(y, x) is PairClass.INTERLEAVED
    )


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


def _face_area(walk: FaceWalk, at_vertex: dict[str, str], coords: dict[str, Point]) -> Fraction:
    total = Fraction(0)
    pts = [coords[at_vertex[d]] for d in walk.darts]
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        total += p[0] * q[1] - q[0] * p[1]
    return total


def band_subgraph_map(n: int, generators) -> CombMap:
    """Draw a set of band generators as a fixed-mode combinatorial map.

    Puncture j sits at (x_j, x_j^2) with x_j from `_abscissae`, so the
    punctures are in convex position, two chords cross exactly when their
    index pairs strictly interleave, and no three chords meet in one
    point.
    Crossings become degree-4 vertices named c0, c1, ... in coordinate
    order; the segments of the chord a_{t,s} are edges "t:s/0",
    "t:s/1", ...  counted from the s end.  Every component gets its
    unbounded face designated as the outer face.
    """
    gens = sorted(set(generators), key=lambda a: (a.t, a.s))
    for a in gens:
        if a.n != n:
            raise MapError(f"generator {a} has strand count {a.n}, expected {n}")
    coords: dict[str, Point] = {
        f"p{j}": (Fraction(x), Fraction(x * x)) for j, x in enumerate(_abscissae(n), 1)
    }
    vertices = [Vertex(f"p{j}", "puncture") for j in range(1, n + 1)]

    crossing_at: dict[Point, list[BandGenerator]] = {}
    splits: dict[BandGenerator, list[tuple[Fraction, Point]]] = {a: [] for a in gens}
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            if not _chords_cross(x, y):
                continue
            p = _segment_intersection(
                coords[f"p{x.s}"], coords[f"p{x.t}"],
                coords[f"p{y.s}"], coords[f"p{y.t}"],
            )
            crossing_at.setdefault(p, []).append(x)
            crossing_at[p].append(y)
            for g in (x, y):
                a, b = coords[f"p{g.s}"], coords[f"p{g.t}"]
                u = (p[0] - a[0]) / (b[0] - a[0])
                splits[g].append((u, p))
    crossing_id: dict[Point, str] = {}
    for k, p in enumerate(sorted(crossing_at)):
        if len(set(crossing_at[p])) > 2:
            raise MapError("three chords through one point; layout degenerate")
        cid = f"c{k}"
        crossing_id[p] = cid
        coords[cid] = p
        vertices.append(Vertex(cid, "crossing"))

    edges: list[Edge] = []
    incident: dict[str, list[tuple[str, str]]] = {v.id: [] for v in vertices}
    for g in gens:
        stops = [f"p{g.s}"]
        for _u, p in sorted(splits[g]):
            stops.append(crossing_id[p])
        stops.append(f"p{g.t}")
        for k in range(len(stops) - 1):
            e = Edge(f"{g.t}:{g.s}/{k}", (stops[k], stops[k + 1]))
            edges.append(e)
            incident[stops[k]].append((dart(e.id, 0), stops[k + 1]))
            incident[stops[k + 1]].append((dart(e.id, 1), stops[k]))

    rotations: dict[str, tuple[str, ...]] = {}
    for v in vertices:
        ends = incident[v.id]
        if not ends:
            rotations[v.id] = ()
            continue
        cmp = _ccw_key(coords[v.id])
        ends.sort(key=cmp_to_key(lambda a, b: cmp(coords[a[1]], coords[b[1]])))
        rotations[v.id] = tuple(d for d, _target in ends)

    draft = CombMap(tuple(vertices), tuple(edges), rotations, "free", None)
    faces = trace_faces(draft)
    at_vertex = {
        d: v for v, ring in rotations.items() for d in ring
    }
    # With counterclockwise rotations the tracing keeps each face on the
    # right of the walk, so bounded faces come out with negative
    # shoelace area and the unbounded face is the positive one.
    best: dict[str, tuple[Fraction, int]] = {}
    for (cid, i), f in face_indices(faces).items():
        area = _face_area(f, at_vertex, coords) if f.darts else Fraction(0)
        if cid not in best or area > best[cid][0]:
            best[cid] = (area, i)
    outer = {cid: i for cid, (_area, i) in best.items()}
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
        raise MapError(f"no edge {edge_id!r}")
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


def map_from_json(data: dict) -> CombMap:
    try:
        vertices = tuple(Vertex(v["id"], v["kind"]) for v in data["vertices"])
        edges = tuple(
            Edge(e["id"], (e["ends"][0], e["ends"][1])) for e in data["edges"]
        )
        rotations = {v: tuple(ring) for v, ring in data.get("rotations", {}).items()}
        mode = data.get("mode", "free")
        outer = data.get("outer")
        if outer is not None:
            outer = {str(k): v for k, v in outer.items()}
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise MapError(f"malformed map JSON: {exc}") from None
    m = CombMap(vertices, edges, rotations, mode, outer)
    validate_map(m)
    return m
