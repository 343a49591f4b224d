"""Abstract simplicial complexes presented by their maximal simplices.

A complex stores an antichain of sorted vertex tuples.  Construction
normalizes any generating family: faces of larger simplices and duplicates
are dropped, so two presentations of the same complex compare equal.  A
caller whose family is already such an antichain says so with
``antichain=True`` and skips that work.
"""

from __future__ import annotations

from itertools import combinations


class SimplicialComplex:
    """Immutable simplicial complex given by maximal simplices.

    It keeps four indices, each built once:

    - ``star(v)``, the maximal simplices through vertex v, built by the
      constructor; containment, link and connectivity queries read it
      instead of scanning every maximal simplex;
    - ``faces(d)``, the sorted d-faces, read off the other indices: the
      vertices are the keys of the star index, the top faces are the
      top-dimensional maximal simplices, and the d-faces in between are
      the keys of ``cofaces(d + 1)`` together with the maximal
      d-simplices, so no face is enumerated twice;
    - ``cofaces(d)``, each (d-1)-face of a d-face -> the sorted d-faces
      through it, read by the collapse screen, homology, surface
      recognition and garland piece detection;
    - the component root of each vertex, read by ``components()`` and
      ``is_connected()``.

    The last three are built on first use (faces and cofaces per
    dimension); each cache write is a single assignment, so concurrent
    readers are safe under the GIL.
    """

    __slots__ = ("_maximal", "_dim", "_faces", "_cofaces", "_star", "_roots")

    def __init__(self, simplices, antichain=False):
        """Complex generated by simplices.

        With antichain=True the caller promises sorted vertex tuples that
        form an antichain, and the normalization and the filter of faces
        are skipped; only the indices are built.
        """
        self._star = star = {}
        if antichain:
            kept = sorted(simplices)
            for s in kept:
                for v in s:
                    star.setdefault(v, []).append(s)
        else:
            cleaned = sorted(
                {tuple(sorted(set(s))) for s in simplices if len(s) > 0},
                key=lambda s: (-len(s), s),
            )
            # Longest first: a candidate can only lie inside a strictly
            # longer simplex, kept before it, so the longest ones need no
            # test.  _star (vertex -> kept maximal simplices through it) is
            # the incidence index that maximal_cofaces scans.
            kept = []
            top = len(cleaned[0]) if cleaned else 0
            for s in cleaned:
                if len(s) == top or not self.maximal_cofaces(s):
                    kept.append(s)
                    for v in s:
                        star.setdefault(v, []).append(s)
            kept.sort()
        self._maximal = tuple(kept)
        self._dim = max(map(len, kept), default=0) - 1
        self._faces = {}
        self._cofaces = {}
        self._roots = None

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
        """Sorted tuple of all d-dimensional faces; empty unless 0 <= d <= dim.

        A d-face below the top is a maximal d-simplex or a key of
        ``cofaces(d + 1)``, never both, since a key lies in a (d+1)-face.
        """
        if not 0 <= d <= self._dim:
            return ()
        cached = self._faces.get(d)
        if cached is None:
            if d == 0:
                # From a list: tuple() of a generator leaves shrunk tuples in free lists.
                cached = tuple([(v,) for v in sorted(self._star)])
            else:
                # The maximal simplices are sorted, so their d-simplices are.
                own = tuple([m for m in self._maximal if len(m) == d + 1])
                cached = own if d == self._dim else tuple(sorted([*self.cofaces(d + 1), *own]))
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

    def f_vector(self):
        return tuple([len(self.faces(d)) for d in range(self.dim() + 1)])

    def euler_characteristic(self):
        return sum((-1) ** d * f for d, f in enumerate(self.f_vector()))

    def _component_roots(self):
        """Map each vertex to the smallest vertex of its connected component.

        Built on first use and kept, as the complex is immutable.
        """
        if self._roots is not None:
            return self._roots
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
        self._roots = root
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
        return [SimplicialComplex(groups[r], antichain=True) for r in sorted(groups)]

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


def neighborhood_complex(g, fold_free=False):
    """Complex whose maximal simplices are the maximal open neighborhoods.

    Vertices with empty neighborhoods contribute nothing.  For a graph with
    no edges the result is the empty complex.  fold_free=True promises that
    g has no fold: then no neighborhood lies in another one (N(u) in N(v)
    is a fold), so they already form an antichain and are not filtered.
    """
    return SimplicialComplex(
        (ns for v in g.vertices() if (ns := g.neighborhood(v))), antichain=fold_free
    )
