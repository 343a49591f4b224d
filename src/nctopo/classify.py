"""Parameter classification and instance-by-instance verification.

Two-generator circulant parameters (n, s, t) fall into a partition of
cases, each carrying a predicted homotopy type for the neighborhood
complex.  verify() and analyze_graph() share one pipeline:
reduce_to_core() folds, builds and collapses, and _measure() measures
every core component.  verify() grades the prediction with decidable
checks: collapses to a vertex for points, 1-dimensional torsion-free
cores for wedges of circles, exact Betti profiles with shelling
certificates for the wedge of two 2-spheres, tetrahedron-boundary piece
counts for garlands, and intrinsic closed-orientable-surface recognition
for connected sums of tori.  Anything outside the guarantee is a fail; a
true-but-stronger outcome (for example genus above one) is reported as
notable, never silently passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .collapse import collapse_core
from .complexes import neighborhood_complex
from .graphs import (
    circulant,
    connected_components,
    find_fold,
    fold_reduce,
    induced_subgraph,
    is_connected,
    normalize_circulant_pair,
)
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


@dataclass(frozen=True)
class ClassificationCase:
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


@dataclass(frozen=True)
class ComponentReport:
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


@dataclass(frozen=True)
class VerificationReport:
    n: int
    s: int
    t: int
    case: ClassificationCase
    prediction: str
    components: tuple
    verdict: str
    notes: tuple = field(default=())

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


def _is_tetrahedron_boundary(comp):
    verts = comp.vertices()
    if len(verts) != 4:
        return False
    return comp.maximal_simplices == tuple(combinations(verts, 3))


def _check_component(shape, comp, h, sr):
    """Per-component verdict (verdict, note) for a predicted shape.

    After the torsion and UCT prelude every rule reads the core's
    dimension d and integral Betti numbers b; garlands add their
    tetrahedron pieces, spheres and tori the surface report.
    """
    if any(h.torsion):
        return "fail", f"torsion {h.torsion} contradicts every predicted shape"
    if not uct_check(h):
        return "fail", "mod-2 Betti numbers disagree with the integral ones"

    d, b = comp.dim(), h.betti_z
    # A vertex counts as the empty wedge; a 1-dimensional core with
    # connected b0 covers every positive circle count.
    wedge = d in (0, 1) and b[0] == 1
    rules = {
        "point-or-wedge-circles": (wedge, "core is neither a vertex nor 1-dimensional"),
        "point-or-S1": (
            d in (0, 1) and b == (1,) * (d + 1),
            "core is neither a vertex nor a single circle",
        ),
        "wedge-circles": (wedge, "core is not a torsion-free 1-dimensional complex"),
        "S1-or-S3": (
            b == (1, 1) or b == (1, 0, 0, 1),
            "component is neither a circle core nor a homology 3-sphere profile",
        ),
        "S3": (b == (1, 0, 0, 1), f"betti {b} differs from (1, 0, 0, 1)"),
        "S2vS2": (b == (1, 0, 2), f"betti {b} differs from (1, 0, 2)"),
        "tetra-sphere": (
            b == (1, 0, 1) and sr.classification == "sphere" and _is_tetrahedron_boundary(comp),
            "component is not a tetrahedron boundary sphere",
        ),
    }
    if shape in rules:
        ok, note = rules[shape]
        if ok:
            return "pass", ""
        # Contractibility gets certified only by an actual collapse to a
        # vertex; trivial homology alone is not allowed to claim it.
        if shape in ("point-or-wedge-circles", "point-or-S1") and b[0] == 1 and not any(b[1:]):
            return "notable", "homology-trivial core that did not collapse to a vertex"
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
        if not (sr.closed_surface and sr.connected):
            return "fail", "component is not a closed surface"
        if not sr.orientable:
            return "fail", "surface is non-orientable"
        genus = (2 - sr.euler) // 2
        if genus < 1:
            return "fail", "surface is a sphere, expected genus at least 1"
        if b != (1, 2 * genus, 1):
            return "fail", f"betti {b} inconsistent with genus {genus}"
        if genus > 1:
            return "notable", f"genus {genus} exceeds the expected genus 1"
        return "pass", ""
    raise ValueError(f"unknown predicted shape {shape!r}")


def _shelling_certificate(comps, n, s, t):
    """Match each component against its canonical shelling order.

    Returns a list of (verdict, note) adjustments aligned with comps.
    """
    certs = wedge_shelling_orders(n, s, t)
    out = [("pass", "")] * len(comps)
    if len(certs) != len(comps):
        return [("fail", f"{len(certs)} shelling orders for {len(comps)} components")] * len(comps)
    by_maximal = {tuple(sorted(set(order))): (order, spanning) for order, spanning in certs}
    for i, comp in enumerate(comps):
        key = comp.maximal_simplices
        cert = by_maximal.get(key)
        if cert is None:
            out[i] = ("fail", "component does not match any canonical shelling order")
            continue
        order, spanning = cert
        report = verify_shelling(comp, order)
        if not report.valid:
            out[i] = ("fail", "canonical order is not a shelling of the component")
        elif sorted(report.spanning) != sorted(tuple(x) for x in spanning):
            out[i] = ("fail", "spanning simplices differ from the canonical pair")
        elif report.sphere_dims != (2, 2):
            out[i] = ("fail", f"shelling gives spheres {report.sphere_dims}, expected (2, 2)")
    return out


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
    bound = sum((1 << g.degree(v)) - 1 for v in g.vertices())
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


def _measure(comps, shape, certificate=None):
    """One ComponentReport per component, graded against shape unless it is None.

    A certificate, such as the shelling check's, is one more (verdict,
    note) per component: a verdict worse than pass is merged in and its
    note appended.
    """
    out = []
    for comp, (cert, cert_note) in zip(comps, certificate or [("pass", "")] * len(comps)):
        h = homology(comp)
        sr = classify_surface(comp)
        verdict, note = ("", "") if shape is None else _check_component(shape, comp, h, sr)
        if cert != "pass":
            verdict, note = _worse(verdict, cert), (note + "; " + cert_note).strip("; ")
        out.append(
            ComponentReport(
                f_vector=comp.f_vector(),
                betti_z=h.betti_z,
                torsion=h.torsion,
                betti_z2=h.betti_z2,
                euler=h.euler,
                surface=sr.classification,
                core_dim=comp.dim(),
                verdict=verdict,
                note=note,
            )
        )
    return out


def verify(n, s, t):
    """Full verification of one parameter triple; returns a report.

    Pipeline: classify, build the circulant graph, reduce it to a collapsed
    core with reduce_to_core, then measure and grade every component of
    the core against the predicted shape.
    """
    case = case_of(n, s, t)
    n, s, t = case.n, case.s, case.t
    prediction = predicted(case)

    g = circulant(n, (s, t))

    # The degree-3 wedge guarantee carves out two exceptional graphs.  A
    # circulant can only realize the complete one (on 4 vertices, when
    # 2t = n and 4s = n); its complex components are tetrahedron boundary
    # spheres, which is what gets graded instead of the wedge shape.
    grading, notes = prediction, []
    if case.tag == "I1A" and _is_excluded(induced_subgraph(g, connected_components(g)[0])):
        grading = "tetra-sphere"
        notes.append(
            "graph components match an excluded degree-3 graph; grading "
            "each complex component as a tetrahedron boundary sphere"
        )

    _, _, trace = reduce_to_core(g, (n, s, t))
    comps = trace.core.components()
    certificate = _shelling_certificate(comps, n, s, t) if case.tag in ("I2B", "I3B") else None
    components = _measure(comps, grading, certificate)
    notes += [c.note for c in components if c.note]
    overall = _worse(*(c.verdict for c in components))

    # Components of one circulant complex are pairwise isomorphic under
    # rotation, so their measurements must coincide.
    profiles = {(c.f_vector, c.betti_z, c.torsion, c.betti_z2, c.surface) for c in components}
    if len(profiles) > 1:
        overall = "fail"
        notes.append("components disagree, breaking the homeomorphic-components invariant")

    return VerificationReport(
        n=n,
        s=s,
        t=t,
        case=case,
        prediction=prediction,
        components=tuple(components),
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
        and is_connected(g)
        and max_degree <= 3
        and not _is_excluded(reduced)
    )
    case = "degenerate-3-regular" if applicable else None
    prediction = PREDICTIONS[case] if case else None
    components = _measure(comps, prediction)

    return {
        "graph": name,
        "num_vertices": g.num_vertices,
        "max_degree": max_degree,
        "case": case,
        "prediction": prediction,
        "components": components,
        "verdict": _worse(*(c.verdict for c in components)) if applicable else None,
    }
