"""Predicate library: every combinatorial pruning rule and contradiction source.

Each checker returns a :class:`ConstraintVerdict`; a failed verdict carries a
structured witness of the violating configuration.  The size-bound rules for
parallel families are exposed as small rule objects so callers can quote the
bound and run the structural side conditions separately.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from toruscert.errors import NotCellular, WrongDelta
from toruscert.homology import scan_klein_slopes


@dataclass(frozen=True)
class ConstraintVerdict:
    name: str
    satisfied: bool
    witness: dict | None = None

    def __post_init__(self):
        if self.satisfied and self.witness is not None:
            raise ValueError("a satisfied verdict carries no witness")
        if not self.satisfied and self.witness is None:
            raise ValueError("a violated verdict must carry a witness")

    def __bool__(self):
        return self.satisfied


def check_parity_rule(sign_in_s, sign_in_t):
    """An arc is positive in one graph exactly when negative in the other."""
    ok = sign_in_s == -sign_in_t
    witness = None if ok else {"sign_in_s": sign_in_s, "sign_in_t": sign_in_t}
    return ConstraintVerdict("parity-rule", ok, witness)


def check_no_double_parallel(pairing):
    """No two arcs lie in a common family on both sides.

    ``pairing`` yields ``(family_in_s, family_in_t)`` per arc.
    """
    seen = {}
    for i, key in enumerate(pairing):
        if key in seen:
            return ConstraintVerdict(
                "no-double-parallel",
                False,
                {"edges": (seen[key], i), "families": key},
            )
        seen[key] = i
    return ConstraintVerdict("no-double-parallel", True)


@dataclass(frozen=True)
class PositiveSizeRule:
    """Size cap for a positive family, with the structure forced at the cap.

    At size exactly ``t`` the partner count must be even, the induced
    involution fixed-point free (its orbits are then ``t/2`` disjoint
    2-cycles), and some partner vertex can keep at most two incident positive
    non-loop reduced edges.
    """

    t: int

    @property
    def bound(self):
        return self.t

    def check(self, size, alpha=None, partner_positive_nonloop_degrees=None):
        if size > self.t:
            return ConstraintVerdict(
                "positive-size-bound",
                False,
                {"size": size, "bound": self.t, "reason": "size exceeds partner count"},
            )
        if size == self.t:
            if self.t % 2:
                return ConstraintVerdict(
                    "positive-size-bound",
                    False,
                    {"size": size, "t": self.t, "reason": "partner count must be even"},
                )
            if alpha is not None and alpha % 2 == 0:
                # for even t, x -> alpha - x has fixed points iff alpha is even
                return ConstraintVerdict(
                    "positive-size-bound",
                    False,
                    {
                        "size": size,
                        "alpha": alpha,
                        "reason": "induced involution has fixed points",
                    },
                )
            if partner_positive_nonloop_degrees is not None and all(
                d > 2 for d in partner_positive_nonloop_degrees
            ):
                return ConstraintVerdict(
                    "positive-size-bound",
                    False,
                    {
                        "partner_positive_nonloop_degrees": tuple(
                            partner_positive_nonloop_degrees
                        ),
                        "reason": "every partner vertex keeps >2 positive nonloop edges",
                    },
                )
        return ConstraintVerdict("positive-size-bound", True)


def positive_size_bound(t) -> PositiveSizeRule:
    if t < 3:
        raise ValueError("the positive size bound applies for partner count >= 3")
    return PositiveSizeRule(t)


@dataclass(frozen=True)
class NegativeSizeRule:
    """Size cap ``t + 1`` for a negative family.

    A family of size ``t + 2`` or more forces one of the exceptional
    manifolds, whose admissible slope distances are 4, 2, 1; with
    ``allow_exceptional`` the verdict carries that routing data instead of a
    plain rejection, and is satisfied only when the ambient distance is one
    of the admissible values.
    """

    t: int
    allow_exceptional: bool = False

    @property
    def bound(self):
        return self.t + 1

    def check(self, size, delta=None):
        if size <= self.t + 1:
            return ConstraintVerdict("negative-size-bound", True)
        if not self.allow_exceptional:
            return ConstraintVerdict(
                "negative-size-bound",
                False,
                {"size": size, "bound": self.t + 1, "reason": "exceeds partner count + 1"},
            )
        solutions = [
            {"m": m, "q": sol.q, "distance": sol.distance}
            for m, sol in scan_klein_slopes(4)
        ]
        admissible = sorted({s["distance"] for s in solutions}, reverse=True)
        if delta is not None and delta in admissible:
            return ConstraintVerdict("negative-size-bound", True)
        return ConstraintVerdict(
            "negative-size-bound",
            False,
            {
                "size": size,
                "bound": self.t + 1,
                "exceptional_route": True,
                "admissible_distances": admissible,
                "klein_solutions": solutions,
                "delta": delta,
            },
        )


def negative_size_bound(t, allow_exceptional=False) -> NegativeSizeRule:
    if t < 1:
        raise ValueError("partner count must be >= 1")
    return NegativeSizeRule(t, allow_exceptional)


def polarization_consequences(t, size, alpha, partner_polarized=None, face_sizes=None):
    """Consequences of a negative family exceeding the partner count.

    For a negative family of size at least ``t + 1``: any ``t`` consecutive
    members have a single edge orbit, i.e. ``gcd(t, alpha) = 1`` for the
    induced translation; the partner surface is polarized; and every disk
    face on the family's own side is even sided.  Any given conjunct that
    fails is a contradiction witness.
    """
    if t < 1:
        raise ValueError("partner count must be >= 1")
    if size < t + 1:
        raise ValueError("polarization consequences require size >= t + 1")
    g = math.gcd(t, alpha % t)
    if g != 1:
        return ConstraintVerdict(
            "negative-family-polarization",
            False,
            {"t": t, "alpha": alpha, "orbits": g, "reason": "translation splits into >1 orbit"},
        )
    if partner_polarized is False:
        return ConstraintVerdict(
            "negative-family-polarization",
            False,
            {"reason": "partner must be polarized"},
        )
    if face_sizes is not None:
        odd = [s for s in face_sizes if s % 2]
        if odd:
            return ConstraintVerdict(
                "negative-family-polarization",
                False,
                {"odd_faces": tuple(odd), "reason": "all disk faces must be even sided"},
            )
    return ConstraintVerdict("negative-family-polarization", True)


def detect_s_cycles(g):
    """Bigon faces between consecutive positive edges labelled ``{j, j+1}``.

    Returns ``(face_index, (j, j+1))`` pairs, with the type well defined mod
    the opposite vertex count.
    """
    from toruscert.embedded import trace_faces

    n = g.n_opposite
    out = []
    for fi, face in enumerate(trace_faces(g)):
        if len(face) != 2:
            continue
        (e1, _), (e2, _) = face.sides
        if e1 == e2:
            continue
        a, b = g.edges[e1], g.edges[e2]
        if a.sign != 1 or b.sign != 1:
            continue
        type_pair = _consecutive_pair(set(a.labels), n)
        if type_pair is None or _consecutive_pair(set(b.labels), n) != type_pair:
            continue
        out.append((fi, type_pair))
    return tuple(out)


def _consecutive_pair(labels, n):
    if n == 1:
        return (1, 1) if labels == {1} else None
    if len(labels) != 2:
        return None
    a, b = sorted(labels)
    if (b - a) % n == 1:
        return (a, b)
    if (a - b) % n == 1:
        return (b, a)
    return None


def check_jn1(order_u, order_v, delta=6):
    """Jumping number one: the shared intersection points appear in the same
    cyclic order around both vertices, up to reflection.

    Only meaningful at distance 6; any other length raises
    :class:`WrongDelta`.
    """
    if delta != 6 or len(order_u) != 6 or len(order_v) != 6:
        raise WrongDelta("the jumping number one condition applies at distance 6")
    u = tuple(order_u)
    candidates = []
    for seq in (tuple(order_v), tuple(reversed(order_v))):
        candidates.extend(seq[i:] + seq[:i] for i in range(6))
    ok = u in candidates
    witness = None if ok else {"order_u": u, "order_v": tuple(order_v)}
    return ConstraintVerdict("jumping-number-one", ok, witness)


def check_reduced_torus_degrees(graph):
    """Degree and face structure of a reduced graph on the torus.

    (a) minimum degree 6 forces degree exactly 6 everywhere and all faces
    triangles; (b) a triangle-free graph has a vertex of degree at most 4.
    Raises :class:`NotCellular` when the derived surface is not a torus.
    """
    fat = getattr(graph, "graph", graph)
    if not fat.is_connected() or fat.euler_characteristic() != 0:
        raise NotCellular("the degree/face dichotomy is stated for torus graphs")
    degrees = fat.degrees
    sizes = fat.face_sizes()
    if min(degrees) >= 6:
        bad_deg = [d for d in degrees if d != 6]
        bad_faces = [s for s in sizes if s != 3]
        if bad_deg or bad_faces:
            return ConstraintVerdict(
                "reduced-torus-degree-six",
                False,
                {"degrees": degrees, "face_sizes": sizes, "part": "a"},
            )
    if 3 not in sizes and min(degrees) > 4:
        return ConstraintVerdict(
            "reduced-torus-degree-six",
            False,
            {"degrees": degrees, "face_sizes": sizes, "part": "b"},
        )
    return ConstraintVerdict("reduced-torus-degree-six", True)
