"""Abstract simplicial complexes presented by their maximal simplices.

A complex stores an antichain of sorted vertex tuples.  Construction
normalizes any generating family: faces of larger simplices and duplicates
are dropped, so two presentations of the same complex compare equal.
"""

from __future__ import annotations

from itertools import combinations


class SimplicialComplex:
    """Immutable simplicial complex given by maximal simplices.

    It keeps three indices, each built once:

    - ``star(v)``, the maximal simplices through vertex v, built by the
      constructor; containment, link and connectivity queries read it
      instead of scanning every maximal simplex;
    - ``faces(d)``, the sorted d-faces;
    - ``cofaces(d)``, each (d-1)-face of a d-face -> the sorted d-faces
      through it, read by surface recognition and garland piece detection.

    The last two are built on first use per dimension; each cache write is
    a single dict assignment, so concurrent readers are safe under the GIL.
    """

    __slots__ = ("_maximal", "_dim", "_faces", "_cofaces", "_star")

    def __init__(self, simplices):
        cleaned = sorted(
            {tuple(sorted(set(s))) for s in simplices if len(s) > 0},
            key=lambda s: (-len(s), s),
        )
        # Longest first: a candidate can only lie inside a strictly longer
        # simplex, kept before it, so the longest ones need no test.  _star
        # (vertex -> kept maximal simplices through it) is the incidence
        # index that maximal_cofaces scans.
        self._star = star = {}
        kept = []
        top = len(cleaned[0]) if cleaned else 0
        for s in cleaned:
            if len(s) == top or not self.maximal_cofaces(s):
                kept.append(s)
                for v in s:
                    star.setdefault(v, []).append(s)
        self._maximal = tuple(sorted(kept))
        self._dim = top - 1
        self._faces = {}
        self._cofaces = {}

    @property
    def maximal_simplices(self):
        return self._maximal

    def vertices(self):
        return tuple(sorted(self._star))

    def dim(self):
        """Dimension; -1 for the empty complex."""
        return self._dim

    def is_pure(self):
        dims = {len(m) for m in self._maximal}
        return len(dims) <= 1

    def faces(self, d):
        """Sorted tuple of all d-dimensional faces."""
        if d < 0:
            return ()
        cached = self._faces.get(d)
        if cached is None:
            out = set()
            for m in self._maximal:
                if len(m) >= d + 1:
                    out.update(combinations(m, d + 1))
            cached = tuple(sorted(out))
            self._faces[d] = cached
        return cached

    def cofaces(self, d):
        """Each (d-1)-face of a d-face -> the sorted d-faces through it.

        Empty for d < 1.  The dict is the index itself and must not be
        mutated.
        """
        cached = self._cofaces.get(d)
        if cached is None:
            cached = {}
            if d >= 1:
                for s in self.faces(d):
                    for f in combinations(s, d):
                        cached.setdefault(f, []).append(s)
            self._cofaces[d] = cached
        return cached

    def star(self, v):
        """Maximal simplices through vertex v, empty if v is no vertex.

        The list is the index itself and must not be mutated.
        """
        return self._star.get(v, ())

    def maximal_cofaces(self, simplex):
        """Maximal simplices containing simplex (none for the empty one).

        Each of them passes through every vertex of simplex, so only the
        star of its rarest vertex is scanned.
        """
        s = set(simplex)
        if not s:
            return []
        rarest = min((self._star.get(v, ()) for v in s), key=len)
        return [m for m in rarest if s.issubset(m)]

    def has_face(self, simplex):
        return bool(self.maximal_cofaces(simplex))

    def f_vector(self):
        return tuple(len(self.faces(d)) for d in range(self.dim() + 1))

    def euler_characteristic(self):
        return sum((-1) ** d * f for d, f in enumerate(self.f_vector()))

    def _component_roots(self):
        """Map each vertex to the smallest vertex of its connected component."""
        root = {}
        for v in sorted(self._star):
            if v in root:
                continue
            root[v] = v
            stack = [v]
            while stack:
                for m in self._star[stack.pop()]:
                    for w in m:
                        if w not in root:
                            root[w] = v
                            stack.append(w)
        return root

    def is_connected(self):
        """Exactly one connected component; False for the empty complex."""
        return len(set(self._component_roots().values())) == 1

    def components(self):
        """Connected components as complexes, ordered by minimum vertex.

        A complex is immutable, so a connected one is its own only
        component and is returned as is, not rebuilt.  The empty complex
        has no components.
        """
        root = self._component_roots()
        if len(set(root.values())) == 1:
            return [self]
        groups = {}
        for m in self._maximal:
            groups.setdefault(root[m[0]], []).append(m)
        return [SimplicialComplex(groups[r]) for r in sorted(groups)]

    def to_json_obj(self):
        """Canonical dict form: sorted vertices, sorted maximal simplices."""
        return {
            "vertices": list(self.vertices()),
            "maximal_simplices": [list(m) for m in self._maximal],
        }

    @classmethod
    def from_json_obj(cls, obj):
        k = cls(obj["maximal_simplices"])
        if "vertices" in obj and set(obj["vertices"]) != set(k.vertices()):
            raise ValueError("vertex list does not match the maximal simplices")
        return k

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._maximal == other._maximal

    def __hash__(self):
        return hash(self._maximal)

    def __repr__(self):
        return f"SimplicialComplex({list(self._maximal)!r})"


def boundary_of_simplex(vertices):
    """Boundary complex of the full simplex on the given vertices."""
    vs = tuple(sorted(set(vertices)))
    if len(vs) < 2:
        raise ValueError("boundary needs a simplex of dimension at least 1")
    return SimplicialComplex(combinations(vs, len(vs) - 1))


def neighborhood_complex(g):
    """Complex whose maximal simplices are the maximal open neighborhoods.

    Vertices with empty neighborhoods contribute nothing.  For a graph with
    no edges the result is the empty complex.
    """
    return SimplicialComplex(ns for v in g.vertices() if (ns := g.neighborhood(v)))
