import json
import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from braidkit.bands import BandGenerator, all_generators
from braidkit.cli import main
from braidkit.planar import (
    _abscissae,
    CombMap,
    Edge,
    FaceWalk,
    MapError,
    Vertex,
    band_subgraph_map,
    check_semiframe,
    delete_edge,
    face_indices,
    map_from_json,
    map_to_json,
    trace_faces,
    validate_map,
)


def triangle():
    return CombMap(
        (Vertex("p1", "puncture"), Vertex("p2", "puncture"), Vertex("p3", "puncture")),
        (Edge("a", ("p1", "p2")), Edge("b", ("p2", "p3")), Edge("c", ("p3", "p1"))),
        {"p1": ("a:0", "c:1"), "p2": ("b:0", "a:1"), "p3": ("c:0", "b:1")},
    )


def wheel_with_enclosed_hub():
    # p4 sits inside the triangle p1 p2 p3, joined to all three corners.
    # Every face is a triangle, so no face sees all four punctures.
    return CombMap(
        tuple(Vertex(f"p{i}", "puncture") for i in (1, 2, 3, 4)),
        (
            Edge("a", ("p1", "p2")),
            Edge("b", ("p2", "p3")),
            Edge("c", ("p3", "p1")),
            Edge("d", ("p4", "p1")),
            Edge("e", ("p4", "p2")),
            Edge("f", ("p4", "p3")),
        ),
        {
            "p1": ("a:0", "d:1", "c:1"),
            "p2": ("b:0", "e:1", "a:1"),
            "p3": ("c:0", "f:1", "b:1"),
            "p4": ("f:0", "d:0", "e:0"),
        },
    )


def test_validate_accepts_triangle():
    validate_map(triangle())


def test_validate_rejects_duplicate_vertex():
    m = triangle()
    bad = CombMap(m.vertices + (Vertex("p1", "puncture"),), m.edges, m.rotations)
    with pytest.raises(MapError, match="duplicate vertex"):
        validate_map(bad)


def test_validate_rejects_unknown_kind():
    with pytest.raises(MapError, match="unknown kind"):
        validate_map(CombMap((Vertex("v", "hub"),), (), {"v": ()}))


def test_validate_rejects_loop():
    m = CombMap(
        (Vertex("p1", "puncture"),),
        (Edge("a", ("p1", "p1")),),
        {"p1": ("a:0", "a:1")},
    )
    with pytest.raises(MapError, match="loop"):
        validate_map(m)


def test_validate_rejects_rotation_mismatches():
    m = triangle()
    rot = dict(m.rotations)
    rot["p1"] = ("a:0",)
    with pytest.raises(MapError, match="missing"):
        validate_map(CombMap(m.vertices, m.edges, rot))
    rot = dict(m.rotations)
    rot["p1"] = ("a:0", "a:1", "c:1")
    with pytest.raises(MapError, match="listed at"):
        validate_map(CombMap(m.vertices, m.edges, rot))


@pytest.mark.parametrize("change,message", [
    (lambda m: m["edges"][1].update(id="a"), "duplicate edge id 'a'"),
    (lambda m: m["edges"][0].update(ends=["p1", "p9"]), "edge 'a' ends at unknown vertex 'p9'"),
    (lambda m: m["rotations"].update(p9=[]), "rotation given for unknown vertex 'p9'"),
    (lambda m: m["rotations"].update(p1=["a:0", "a:0", "c:1"]), "dart 'a:0' appears twice"),
    (lambda m: m["rotations"].update(p1=["a:0", "c:1", "z:0"]),
     "rotation at 'p1' lists unknown dart 'z:0'"),
])
def test_validate_rejects_bad_edges_and_darts(capsys, change, message):
    data = map_to_json(triangle())
    change(data)
    with pytest.raises(MapError, match=message):
        validate_map(map_from_json(data))
    assert main(["semiframe", json.dumps(data)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_validate_rejects_small_crossing():
    m = CombMap(
        (Vertex("p1", "puncture"), Vertex("c0", "crossing")),
        (Edge("a", ("p1", "c0")),),
        {"p1": ("a:0",), "c0": ("a:1",)},
    )
    with pytest.raises(MapError, match="degree 4"):
        validate_map(m)


def test_validate_rejects_bad_mode_and_missing_outer():
    m = triangle()
    with pytest.raises(MapError, match="mode"):
        validate_map(CombMap(m.vertices, m.edges, m.rotations, "floating", None))
    with pytest.raises(MapError, match="outer"):
        validate_map(CombMap(m.vertices, m.edges, m.rotations, "fixed", None))


def test_triangle_faces():
    faces = trace_faces(triangle())
    assert len(faces) == 2
    assert all(f.component == "p1" for f in faces)
    assert all(f.vertices == ("p1", "p2", "p3") for f in faces)
    assert face_indices(faces) == {"p1": list(faces)}


def test_component_ids_do_not_depend_on_vertex_order():
    # A triangle on the p's and one edge q2-q1, with every vertex listed
    # after a larger id: each component is still named by its smallest id.
    m = CombMap(
        tuple(Vertex(v, "puncture") for v in ("q2", "q1", "p3", "p2", "p1")),
        triangle().edges + (Edge("d", ("q2", "q1")),),
        {**triangle().rotations, "q2": ("d:0",), "q1": ("d:1",)},
    )
    assert {f.component for f in trace_faces(m)} == {"p1", "q1"}
    assert check_semiframe(m).witnesses == {"p1": 0, "q1": 0}
    fixed = CombMap(m.vertices, m.edges, m.rotations, "fixed", {"p1": 1, "q1": 0})
    assert check_semiframe(fixed).accepted


def test_theta_graph_planar_rotations():
    m = CombMap(
        (Vertex("p1", "puncture"), Vertex("p2", "puncture")),
        (Edge("a", ("p1", "p2")), Edge("b", ("p1", "p2")), Edge("c", ("p1", "p2"))),
        {"p1": ("a:0", "b:0", "c:0"), "p2": ("c:1", "b:1", "a:1")},
    )
    faces = trace_faces(m)
    assert len(faces) == 3


def test_theta_graph_torus_rotations_rejected():
    m = CombMap(
        (Vertex("p1", "puncture"), Vertex("p2", "puncture")),
        (Edge("a", ("p1", "p2")), Edge("b", ("p1", "p2")), Edge("c", ("p1", "p2"))),
        {"p1": ("a:0", "b:0", "c:0"), "p2": ("a:1", "b:1", "c:1")},
    )
    with pytest.raises(MapError, match="sphere"):
        trace_faces(m)


def test_isolated_vertex_gets_a_synthetic_face():
    m = CombMap(
        triangle().vertices + (Vertex("q", "puncture"),),
        triangle().edges,
        dict(triangle().rotations, q=()),
    )
    faces = trace_faces(m)
    assert len(faces) == 3
    lonely = [f for f in faces if f.component == "q"]
    assert lonely == [FaceWalk("q", (), ("q",))]
    assert check_semiframe(m).accepted


def test_semiframe_free_mode_triangle():
    v = check_semiframe(triangle())
    assert v.accepted
    assert v.witnesses == {"p1": 0}
    assert v.reason is None


def test_semiframe_fixed_mode_triangle():
    m = triangle()
    good = CombMap(m.vertices, m.edges, m.rotations, "fixed", {"p1": 1})
    assert check_semiframe(good).accepted
    missing = CombMap(m.vertices, m.edges, m.rotations, "fixed", {})
    with pytest.raises(MapError, match="no outer face designated"):
        check_semiframe(missing)
    out_of_range = CombMap(m.vertices, m.edges, m.rotations, "fixed", {"p1": 5})
    with pytest.raises(MapError, match="no face 5"):
        check_semiframe(out_of_range)


def test_semiframe_rejects_enclosed_hub():
    v = check_semiframe(wheel_with_enclosed_hub())
    assert not v.accepted
    assert v.witnesses is None
    assert "p1" in v.reason


def test_band_map_frame_accepted():
    for n in (3, 4):
        gens = [BandGenerator(n, i + 1, i) for i in range(1, n)]
        m = band_subgraph_map(n, gens)
        assert m.mode == "fixed"
        assert check_semiframe(m).accepted


def test_band_map_full_n4():
    m = band_subgraph_map(4, all_generators(4))
    crossings = [v for v in m.vertices if v.kind == "crossing"]
    assert [c.id for c in crossings] == ["c0"]
    # Only the pair of strictly interleaving chords crosses.
    split = sorted(e.id for e in m.edges if e.id.endswith("/1"))
    assert split == ["3:1/1", "4:2/1"]
    faces = trace_faces(m)
    assert len(faces) == 5
    v = check_semiframe(m)
    assert v.accepted
    # The witnessing outer face sees every puncture and no crossing.
    outer = face_indices(faces)["c0"][v.witnesses["c0"]]
    assert set(outer.vertices) == {"p1", "p2", "p3", "p4"}


def test_band_map_full_n5():
    m = band_subgraph_map(5, all_generators(5))
    crossings = [v for v in m.vertices if v.kind == "crossing"]
    assert len(crossings) == 5
    assert check_semiframe(m).accepted


def test_puncture_abscissae_are_consecutive_up_to_eight():
    assert _abscissae(12) == (1, 2, 3, 4, 5, 6, 7, 8, 14, 16, 24, 27)
    assert _abscissae(8) == _abscissae(12)[:8]


@pytest.mark.parametrize("n", range(3, 13))
def test_band_map_of_all_generators_has_one_vertex_per_crossing(n):
    m = band_subgraph_map(n, all_generators(n))
    # Every 4 punctures give exactly one pair of interleaving chords.
    assert sum(v.kind == "crossing" for v in m.vertices) == math.comb(n, 4)
    assert check_semiframe(m).accepted


def interleaving_pairs(gens):
    return sum(1 for x in gens for y in gens if x.s < y.s < x.t < y.t)


@pytest.mark.parametrize("n", (9, 10))
def test_band_maps_of_random_subsets_are_drawn(n):
    rng = random.Random(1729 + n)
    for _ in range(30):
        gens = [g for g in all_generators(n) if rng.random() < 0.5]
        m = band_subgraph_map(n, gens)
        assert sum(v.kind == "crossing" for v in m.vertices) == interleaving_pairs(gens)
        check_semiframe(m)


def test_band_map_rejects_foreign_strand_count():
    with pytest.raises(MapError):
        band_subgraph_map(4, [BandGenerator(5, 3, 1)])


def test_band_map_single_chord():
    m = band_subgraph_map(3, [BandGenerator(3, 3, 1)])
    assert [e.id for e in m.edges] == ["3:1/0"]
    # p2 is its own component with a synthetic face.
    assert check_semiframe(m).accepted


def test_delete_edge():
    m = triangle()
    out = delete_edge(m, "b")
    assert len(out.edges) == 2
    assert all("b:" not in d for ring in out.rotations.values() for d in ring)
    assert check_semiframe(out).accepted
    with pytest.raises(MapError):
        delete_edge(m, "zz")


def test_delete_edge_resets_to_free_mode():
    m = band_subgraph_map(4, [BandGenerator(4, 2, 1), BandGenerator(4, 4, 3)])
    assert m.mode == "fixed"
    out = delete_edge(m, "2:1/0")
    assert out.mode == "free"
    assert out.outer is None
    assert check_semiframe(out).accepted


def test_json_round_trip():
    m = band_subgraph_map(4, all_generators(4))
    data = map_to_json(m)
    again = map_from_json(data)
    assert map_to_json(again) == data
    assert check_semiframe(again).accepted


def test_json_malformed():
    with pytest.raises(MapError):
        map_from_json({"vertices": "nope"})
    with pytest.raises(MapError):
        map_from_json({})


@pytest.mark.parametrize("path", [
    ("vertices", 0, "id"), ("vertices", 0, "kind"), ("edges", 0, "id"),
    ("edges", 0, "ends", 1), ("rotations", "p1", 0),
])
def test_json_fields_must_be_strings(path):
    data = map_to_json(triangle())
    *head, last = path
    at = data
    for key in head:
        at = at[key]
    at[last] = 1
    with pytest.raises(MapError, match="must be a string"):
        map_from_json(data)


# -- reference: drawn maps against exact point geometry -----------------------
#
# The oracle places puncture j at (x_j, x_j^2) and derives everything from
# points: crossings as exact segment intersections, rotations from cross
# products, the outer face as the one with the largest shoelace area.


def segment_intersection(p1, p2, q1, q2):
    """The point where two segments meet inside both, or None."""
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        return None
    w = (q1[0] - p1[0], q1[1] - p1[1])
    u = Fraction(w[0] * d2[1] - w[1] * d2[0], denom)
    v = Fraction(w[0] * d1[1] - w[1] * d1[0], denom)
    if not (0 < u < 1 and 0 < v < 1):
        return None
    return (p1[0] + u * d1[0], p1[1] + u * d1[1])


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def counterclockwise(origin):
    """Comparator of points by angle around origin, starting at angle 0."""

    def halfplane(p):
        dx, dy = p[0] - origin[0], p[1] - origin[1]
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(a, b):
        if halfplane(a) != halfplane(b):
            return halfplane(a) - halfplane(b)
        c = cross(origin, a, b)
        assert c != 0, "two edges leave a vertex in the same direction"
        return -1 if c > 0 else 1

    return cmp


def shoelace(points):
    return sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(points, points[1:] + points[:1]))


def assert_matches_point_geometry(n, gens):
    m = band_subgraph_map(n, gens)
    coords = {f"p{j}": (x, x * x) for j, x in enumerate(_abscissae(n), 1)}
    chords = sorted({(g.t, g.s) for g in gens})

    through: dict = {}
    for i, (t1, s1) in enumerate(chords):
        for t2, s2 in chords[i + 1 :]:
            p = segment_intersection(
                coords[f"p{s1}"], coords[f"p{t1}"], coords[f"p{s2}"], coords[f"p{t2}"]
            )
            if p is not None:
                through.setdefault(p, set()).update({(t1, s1), (t2, s2)})
    assert all(len(c) == 2 for c in through.values())
    for k, p in enumerate(sorted(through)):
        coords[f"c{k}"] = p
    crossings = {v.id for v in m.vertices if v.kind == "crossing"}
    assert crossings == {f"c{k}" for k in range(len(through))}

    ends = {e.id: e.ends for e in m.edges}
    for t, s in chords:
        stops = [f"p{s}"]
        while f"{t}:{s}/{len(stops) - 1}" in ends:
            a, b = ends[f"{t}:{s}/{len(stops) - 1}"]
            assert a == stops[-1]
            stops.append(b)
        on_chord = sorted(p for p, c in through.items() if (t, s) in c)
        assert [coords[v] for v in stops] == [coords[f"p{s}"], *on_chord, coords[f"p{t}"]]
    assert len(m.edges) == len(chords) + 2 * len(through)

    def far_end(d):
        edge_id, _, side = d.rpartition(":")
        return ends[edge_id][1 - int(side)]

    at_vertex = {}
    for v, ring in m.rotations.items():
        at_vertex.update((d, v) for d in ring)
        ccw = counterclockwise(coords[v])
        key = cmp_to_key(lambda a, b: ccw(coords[far_end(a)], coords[far_end(b)]))
        assert list(ring) == sorted(ring, key=key)

    # Faces lie right of their walks, so every bounded face has negative
    # area; a tree's single face has area 0.
    areas = {
        (cid, i): shoelace([coords[at_vertex[d]] for d in f.darts]) if f.darts else 0
        for cid, faces in face_indices(trace_faces(m)).items()
        for i, f in enumerate(faces)
    }
    largest = {}
    for cid, i in sorted(areas):
        if cid not in largest or areas[cid, i] > areas[cid, largest[cid]]:
            largest[cid] = i
    assert m.outer == largest
    assert all(area < 0 for (cid, i), area in areas.items() if largest[cid] != i)


@pytest.mark.parametrize("n", range(3, 13))
def test_band_maps_match_point_geometry(n):
    assert_matches_point_geometry(n, all_generators(n))
    rng = random.Random(4099 + n)
    for _ in range(20):
        density = rng.uniform(0.1, 0.9)
        assert_matches_point_geometry(
            n, [g for g in all_generators(n) if rng.random() < density]
        )
