"""Parameter classification and instance-by-instance verification.

Two-generator circulant parameters (n, s, t) fall into a partition of
cases, each carrying a predicted homotopy type for the neighborhood
complex.  verify() and analyze_graph() share one pipeline:
reduce_to_core() folds, builds and collapses, and _measure() measures one
core component: each of them for analyze_graph(), and for verify() the
first, which every other component must be a rotation of.  verify()
grades the prediction, sharpened from the case arithmetic in two cases:
I1A with n = 4s grades as tetrahedron boundary spheres, and I4A as S^3
when (n, t) = (5s, 2s) and as one circle otherwise; a note names the
sharper shape.  The checks are decidable: collapses to a vertex for
points, 1-dimensional torsion-free cores for wedges of circles, Betti
numbers (1, 1) for one circle, the boundary of the 4-simplex for S^3,
exact Betti profiles with shelling certificates for the wedge of two
2-spheres, tetrahedron-boundary piece counts for garlands, and intrinsic
closed-orientable-surface recognition for connected sums of tori, whose
genus is read off the classification string classify_surface returns.
verify_shelling returns the spanning simplices, two per doubled-sphere
component.  Anything outside the guarantee is a fail; a true-but-stronger
outcome (for example genus above one), or a right homology profile with
no certificate, is reported as notable, never silently passed.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .collapse import collapse_core
from .complexes import neighborhood_complex
from .graphs import circulant, find_fold, fold_reduce, is_connected, normalize_circulant_pair
from .homology import homology, uct_check
from .shelling import verify_shelling, wedge_shelling_orders
from .surfaces import classify_surface, tetrahedron_boundary_pieces

PREDICTIONS = {
    "I1A": "point-or-wedge-circles",
    "I1B": "point-or-S1",
    "I2A": "S3",
    "I2B": "S2vS2",
    "I2C": "wedge-circles",
    "I3A": "garland-of-S2",
    "I3B": "S2vS2",
    "I3C": "wedge-circles",
    "I3D": "connected-sum-tori",
    "I4A": "S1-or-S3",
    "I4B": "garland-of-S2",
    "I4C": "connected-sum-tori",
    "degenerate-3-regular": "point-or-wedge-circles",
}

CASE_TAGS = tuple(PREDICTIONS)


class ClassificationCase(NamedTuple):
    tag: str
    n: int
    s: int
    t: int
    witness: str


def case_of(n, s, t):
    """Classify normalized parameters into the case partition.

    Generators are first normalized (both into 1..n/2, ordered); the
    partition is then decided by exact integer arithmetic.  Raises
    ValueError for n < 5 or degenerate generator pairs.
    """
    if n < 5:
        raise ValueError(f"n = {n} is out of range; need n >= 5")
    s, t = normalize_circulant_pair(n, s, t)

    if 2 * s == n or 2 * t == n:
        return ClassificationCase("I1A", n, s, t, "2s = n" if 2 * s == n else "2t = n")
    if 2 * (s + t) == n:
        return ClassificationCase("I1B", n, s, t, "2(s+t) = n")

    if t == 3 * s:
        if n == 10 * s:
            return ClassificationCase("I2A", n, s, t, "t = 3s, n = 10s")
        if n == 12 * s:
            return ClassificationCase("I2B", n, s, t, "t = 3s, n = 12s")
        # n = 8s would force 2(s+t) = n, already captured above.
        return ClassificationCase("I2C", n, s, t, "t = 3s, n not in {8s, 10s, 12s}")

    if 5 * s == 3 * t:
        if n == 4 * t:
            return ClassificationCase("I3A", n, s, t, "5s = 3t, n = 4t")
        if n == 4 * s:
            return ClassificationCase("I3B", n, s, t, "5s = 3t, n = 4s")
        if n == 6 * s:
            return ClassificationCase("I3C", n, s, t, "5s = 3t, n = 6s")
        if 3 * n == 14 * s:
            return ClassificationCase("I3C", n, s, t, "5s = 3t, 3n = 14s")
        return ClassificationCase("I3D", n, s, t, "5s = 3t, generic n")

    hits = [
        name
        for name, val in (
            ("3t-s", 3 * t - s),
            ("3s+t", 3 * s + t),
            ("3t+s", 3 * t + s),
            ("3s-t", 3 * s - t),
        )
        if val == n
    ]
    if hits:
        return ClassificationCase("I4A", n, s, t, " = n, ".join(hits) + " = n")
    if 4 * s == n or 4 * t == n:
        return ClassificationCase("I4B", n, s, t, "4s = n" if 4 * s == n else "4t = n")
    return ClassificationCase("I4C", n, s, t, "no congruence hits")


def predicted(case):
    """Predicted homotopy shape for a case tag or ClassificationCase."""
    tag = case.tag if isinstance(case, ClassificationCase) else case
    return PREDICTIONS[tag]


def special_params(p, q):
    """Coprime-factor torus families: admissible (n, s, t) for n = p*q.

    The two generator families are (s, t) = ((p-q)/2, (p+q)/2) and
    ((p^2-q)/2, (p^2+q)/2), reduced mod n and normalized.  A family
    member is admissible when case_of puts it in a torus case, I3D or
    I4C, that is when none of 2s, 2t, 2(s+t), 3s-t, 3t-s, 3s+t, 3t+s,
    4s, 4t vanishes mod n; each admissible triple is expected to verify
    as a single torus component.
    """
    if p <= 0 or q <= 0:
        raise ValueError("factors must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError(f"factors must be coprime, got gcd = {math.gcd(p, q)}")
    n = p * q
    out = []
    for num_s, num_t in ((p - q, p + q), (p * p - q, p * p + q)):
        if num_s % 2 or num_t % 2:
            continue
        try:
            case = case_of(n, (num_s // 2) % n, (num_t // 2) % n)
        except ValueError:
            continue
        if case.tag in ("I3D", "I4C") and (n, case.s, case.t) not in out:
            out.append((n, case.s, case.t))
    return out


class ComponentReport(NamedTuple):
    f_vector: tuple
    betti_z: tuple
    torsion: tuple
    betti_z2: tuple
    euler: int
    surface: str
    core_dim: int
    verdict: str
    note: str = ""

    def to_json_obj(self):
        return {
            "f_vector": list(self.f_vector),
            "betti_z": list(self.betti_z),
            "torsion": [list(x) for x in self.torsion],
            "betti_z2": list(self.betti_z2),
            "euler": self.euler,
            "surface": self.surface,
            "core_dim": self.core_dim,
        }


class VerificationReport(NamedTuple):
    n: int
    s: int
    t: int
    case: ClassificationCase
    prediction: str
    components: tuple
    verdict: str
    notes: tuple = ()

    def to_json_obj(self):
        return {
            "n": self.n,
            "s": self.s,
            "t": self.t,
            "case": self.case.tag,
            "prediction": self.prediction,
            "components": [c.to_json_obj() for c in self.components],
            "verdict": self.verdict,
        }


def _is_simplex_boundary(comp):
    """Whether comp is the boundary of the simplex on its vertex set V: its
    maximal simplices are all the (|V| - 1)-subsets of V, which holds when
    there are |V| of them, each on |V| - 1 vertices."""
    verts = comp.vertices()
    return len(comp.maximal_simplices) == len(verts) and all(
        len(m) == len(verts) - 1 for m in comp.maximal_simplices
    )


def _check_component(shape, comp, h, surface):
    """Per-component verdict (verdict, note) for a predicted shape.

    After the torsion and UCT prelude every rule reads the core's
    dimension d and integral Betti numbers b; garlands add their
    tetrahedron pieces, spheres the simplex-boundary test, and the
    tetrahedron boundary and tori the surface classification.
    """
    if any(h.torsion):
        return "fail", f"torsion {h.torsion} contradicts every predicted shape"
    if not uct_check(h):
        return "fail", "mod-2 Betti numbers disagree with the integral ones"

    d, b = comp.dim(), h.betti_z
    # A vertex counts as the empty wedge; a 1-dimensional core with
    # connected b0 covers every positive circle count.
    wedge = d in (0, 1) and b[0] == 1
    s3 = b == (1, 0, 0, 1) and _is_simplex_boundary(comp)
    rules = {
        "point-or-wedge-circles": (wedge, "core is neither a vertex nor 1-dimensional"),
        "point-or-S1": (
            d in (0, 1) and b == (1,) * (d + 1),
            "core is neither a vertex nor a single circle",
        ),
        "wedge-circles": (wedge, "core is not a torsion-free 1-dimensional complex"),
        "S1": (b == (1, 1), f"betti {b} differs from (1, 1)"),
        "S3": (s3, f"betti {b} differs from (1, 0, 0, 1)"),
        "S2vS2": (b == (1, 0, 2), f"betti {b} differs from (1, 0, 2)"),
        "tetra-sphere": (
            b == (1, 0, 1) and surface == "sphere" and _is_simplex_boundary(comp),
            "component is not a tetrahedron boundary sphere",
        ),
    }
    if shape in rules:
        ok, note = rules[shape]
        if ok:
            return "pass", ""
        # Contractibility gets certified only by an actual collapse to a
        # vertex, and S^3 only as the boundary of a 4-simplex; the homology
        # profile alone is not allowed to claim either.
        if shape in ("point-or-wedge-circles", "point-or-S1") and b[0] == 1 and not any(b[1:]):
            return "notable", "homology-trivial core that did not collapse to a vertex"
        if shape == "S3" and b == (1, 0, 0, 1):
            return "notable", "homology 3-sphere core that is not the boundary of a 4-simplex"
        return "fail", note
    if shape == "garland-of-S2":
        if d != 2:
            return "fail", "core is not 2-dimensional"
        pieces = tetrahedron_boundary_pieces(comp)
        m = len(pieces)
        if m < 1:
            return "fail", "no tetrahedron-boundary pieces found"
        if b != (1, 1, m):
            return "fail", f"betti {b} differs from (1, 1, {m}) for {m} pieces"
        covered = {f for quad in pieces for f in combinations(quad, 3)}
        if covered != set(comp.faces(2)) or 4 * m != len(comp.faces(2)):
            return "fail", "triangles are not exactly the garland piece boundaries"
        return "pass", ""
    if shape == "connected-sum-tori":
        if surface == "not-a-surface":
            return "fail", "component is not a closed surface"
        if surface.startswith("nonorientable-"):
            return "fail", "surface is non-orientable"
        if surface == "sphere":
            return "fail", "surface is a sphere, expected genus at least 1"
        genus = int(surface.removeprefix("orientable-genus-"))
        if b != (1, 2 * genus, 1):
            return "fail", f"betti {b} inconsistent with genus {genus}"
        if genus > 1:
            return "notable", f"genus {genus} exceeds the expected genus 1"
        return "pass", ""
    raise ValueError(f"unknown predicted shape {shape!r}")


def _shelling_certificate(comps, n, s, t):
    """Match the components against the canonical shelling orders; one (verdict, note).

    Every component must carry the maximal simplices of one canonical
    order.  The orders are rotations of one another, as are the
    components, so the order of the first component is checked alone.
    """
    certs = wedge_shelling_orders(n, s, t)
    if len(certs) != len(comps):
        return "fail", f"{len(certs)} shelling orders for {len(comps)} components"
    by_maximal = {tuple(sorted(set(order))): (order, spanning) for order, spanning in certs}
    if set(by_maximal) != {comp.maximal_simplices for comp in comps}:
        return "fail", "component does not match any canonical shelling order"
    order, spanning = by_maximal[comps[0].maximal_simplices]
    found = verify_shelling(comps[0], order)
    if found is None:
        return "fail", "canonical order is not a shelling of the component"
    if sorted(found) != sorted(tuple(x) for x in spanning):
        return "fail", "spanning simplices differ from the canonical pair"
    return "pass", ""


def _worse(*verdicts):
    """The worst of the verdicts; pass when there are none."""
    return max(verdicts, key=("pass", "notable", "fail").index, default="pass")


def _is_excluded(g):
    """Whether g is K_4 or K_{4,4} minus a perfect matching, the two graphs
    the degree-3 guarantee excludes.

    K_4 is the only 3-regular graph on 4 vertices.  A 3-regular bipartite
    graph on 8 vertices has 4 vertices on each side, and each vertex misses
    exactly one vertex of the other side, so it is K_{4,4} minus a perfect
    matching.  g is bipartite iff the 2-colouring of a spanning forest
    gives no edge one colour at both ends.
    """
    n = g.num_vertices
    if n not in (4, 8) or any(g.degree(v) != 3 for v in g.vertices()):
        return False
    if n == 4:
        return True
    colour = [None] * n
    for root in g.vertices():
        if colour[root] is None:
            colour[root], stack = 0, [root]
            while stack:
                u = stack.pop()
                for w in g.neighborhood(u):
                    if colour[w] is None:
                        colour[w] = 1 - colour[u]
                        stack.append(w)
    return all(colour[u] != colour[v] for u, v in g.edges())


# Cap on the face count bound of a neighborhood complex.  Every 4-regular
# circulant on at most MAX_VERTEX_LABEL + 1 vertices stays below it
# (15 * 100001 faces); the complete graph K_17 is admitted and K_18 not.
MAX_COMPLEX_FACES = 1 << 21


def _check_face_bound(g):
    """Raise ValueError when N(g) may have more than MAX_COMPLEX_FACES faces.

    Every face of N(g) lies in some N(v), which has 2^deg(v) - 1 nonempty
    subsets, so their sum bounds the face count.
    """
    bound = sum(map((1).__lshift__, map(g.degree, g.vertices()))) - g.num_vertices
    if bound > MAX_COMPLEX_FACES:
        raise ValueError(
            f"the neighborhood complex may have {bound} faces, "
            f"above the cap of {MAX_COMPLEX_FACES}"
        )


def reduce_to_core(g, params=None):
    """Fold, build and collapse g; returns (graph, complex, trace).

    With circulant parameters params = (n, s, t) and no fold in g, the
    complex of g itself is collapsed with the circulant strategy.
    Otherwise g is fold-reduced and its complex is collapsed generically:
    folds relabel vertices, after which the closed-form schedules no
    longer address the right simplices.  Either way the graph whose
    complex is built is fold-free, so its neighborhoods are built unfiltered.
    Before the complex is built, a graph whose face count bound exceeds
    MAX_COMPLEX_FACES is rejected with ValueError.
    """
    if params is not None and find_fold(g) is None:
        strategy = {"strategy": "circulant", "circulant": params}
    else:
        g = fold_reduce(g)
        strategy = {"strategy": "generic"}
    _check_face_bound(g)
    k = neighborhood_complex(g, fold_free=True)
    return g, k, collapse_core(k, **strategy)


def _measure(comp, shape, certificate=None):
    """ComponentReport of one component, graded against shape unless it is None.

    A certificate, such as the shelling check's, is one more (verdict,
    note): a verdict worse than pass is merged in and its note appended.
    """
    h = homology(comp)
    surface = classify_surface(comp)
    verdict, note = ("", "") if shape is None else _check_component(shape, comp, h, surface)
    cert, cert_note = certificate or ("pass", "")
    if cert != "pass":
        verdict, note = _worse(verdict, cert), (note + "; " + cert_note).strip("; ")
    return ComponentReport(
        f_vector=comp.f_vector(),
        betti_z=h.betti_z,
        torsion=h.torsion,
        betti_z2=h.betti_z2,
        euler=h.euler,
        surface=surface,
        core_dim=comp.dim(),
        verdict=verdict,
        note=note,
    )


def verify(n, s, t):
    """Full verification of one parameter triple; returns a report.

    Pipeline: classify, build the circulant graph, reduce it to a collapsed
    core with reduce_to_core, then measure and grade its first component
    against the shape its case gives; every other one must be a rotation of it.
    """
    case = case_of(n, s, t)
    n, s, t = case.n, case.s, case.t
    prediction = predicted(case)

    g = circulant(n, (s, t))

    # The grading shape, read off the case arithmetic.  With s < t <= n/2,
    # I1A means 2t = n, and n = 4s makes the graph k copies of K_4, the one
    # graph excluded from the degree-3 wedge guarantee that a circulant
    # realizes (not K_{4,4} minus a matching: C_8(a, 4) with a odd has the
    # 5-cycle 0, a, 2a, 3a, 4); its complex components are tetrahedron
    # boundary spheres.  I4A with (n, t) = (5s, 2s) is k copies of K_5,
    # whose components are S^3; every other I4A component is one circle.
    # The prediction string does not name the sharper shape, so a note does.
    grading, sharper = prediction, None
    if case.tag == "I1A" and n == 4 * s:
        grading = "tetra-sphere"
        sharper = (
            "a tetrahedron boundary sphere: the graph components are K_4, "
            "an excluded degree-3 graph"
        )
    elif case.tag == "I4A" and (n, t) == (5 * s, 2 * s):
        grading, sharper = "S3", "S^3, the boundary of a 4-simplex: the graph components are K_5"
    elif case.tag == "I4A":
        grading, sharper = "S1", "one circle, betti (1, 1)"
    notes = [] if sharper is None else [f"graded as {sharper}"]

    _, _, trace = reduce_to_core(g, (n, s, t))
    comps = trace.core.components()
    first, *rest = comps
    certificate = _shelling_certificate(comps, n, s, t) if case.tag in ("I2B", "I3B") else None
    report = _measure(first, grading, certificate)
    if report.note:
        notes.append(report.note)
    overall = report.verdict

    # Z_n acts transitively on the components.  Each other one must be the
    # first shifted by the difference of least vertices, an isomorphism.
    for i, comp in enumerate(rest, start=1):
        shift = comp.vertices()[0] - first.vertices()[0]
        rotated = (tuple(sorted((v + shift) % n for v in m)) for m in first.maximal_simplices)
        if tuple(sorted(rotated)) != comp.maximal_simplices:
            overall = "fail"
            notes.append(f"component {i} is not component 0 rotated by {shift}")

    return VerificationReport(
        n=n,
        s=s,
        t=t,
        case=case,
        prediction=prediction,
        components=(report,) * len(comps),
        verdict=overall,
        notes=tuple(notes),
    )


def analyze_graph(g, name=""):
    """Topology report for an arbitrary graph's neighborhood complex.

    Fold-reduces, collapses generically, and measures the components.
    When the graph is connected with maximum degree at most 3 and its fold
    reduction avoids the two exceptional graphs, the contractible-or-wedge
    prediction applies and is graded; otherwise the report carries the
    measurements with no verdict.
    """
    reduced, _, trace = reduce_to_core(g)
    comps = trace.core.components()

    max_degree = g.max_degree()
    applicable = (
        g.num_vertices >= 1
        and max_degree <= 3
        and is_connected(g)
        and not _is_excluded(reduced)
    )
    case = "degenerate-3-regular" if applicable else None
    prediction = PREDICTIONS[case] if case else None
    components = [_measure(comp, prediction) for comp in comps]

    return {
        "graph": name,
        "num_vertices": g.num_vertices,
        "max_degree": max_degree,
        "case": case,
        "prediction": prediction,
        "components": components,
        "verdict": _worse(*[c.verdict for c in components]) if applicable else None,
    }
