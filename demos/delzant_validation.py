"""Walk through Delzant validation on the built-in polytope catalog.

Run:  python3 demos/delzant_validation.py
"""

from toriclift import catalog
from toriclift.polytope import (
    edge_vectors_at_vertex,
    enumerate_vertices,
    face_lattice,
    format_point,
    validate_delzant,
)


def show(name, P):
    print(f"\n=== {name} ===")
    print(f"  n = {P.n}, {P.d} facets")
    verts = enumerate_vertices(P)
    print(f"  vertices: {[tuple(map(str, v)) for v, _ in verts]}")
    faces = face_lattice(P)
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    print(f"  face counts by dimension: {dict(sorted(by_dim.items()))}")
    rep = validate_delzant(P)
    print(f"  Delzant: {'PASS' if rep.ok else 'FAIL'}")
    active = dict(verts)  # each vertex's active facets, from which its edges are read
    for v in rep.verdicts:
        pt = format_point(v.vertex)
        if v.smooth:
            print(f"    vertex {pt}: edge basis det {v.det}")
        else:
            cols = edge_vectors_at_vertex(P, active[v.vertex])
            print(f"    vertex {pt}: FAIL, edge directions {cols} have |det| = {abs(v.det)}")


def main():
    show("projective plane simplex, scale 3", catalog.cp2(3))
    show("unit square", catalog.unit_square())
    show("projective 3-space simplex", catalog.cp3())
    show("Hirzebruch trapezoid", catalog.hirzebruch())
    show("non-smooth triangle conv{(0,0),(1,0),(0,2)}", catalog.non_delzant_triangle())


if __name__ == "__main__":
    main()
