"""Rank-3 based rings: construction, axioms, canonical forms, enumeration,
and the global Frobenius-Perron dimension of a solved dimension character.

The self-dual family is parametrized by nonnegative integers (k, l, m, n)
with multiplication

    X^2 = 1 + m X + k Y,   Y^2 = 1 + l X + n Y,   XY = YX = k X + l Y,

which is associative exactly when the star constraint k^2 + l^2 = lm + kn + 1
holds.  The only other based ring of rank 3 is the group ring of Z/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .exactnum import IntPoly, RealAlgebraic
from .exactnum.qpoly import charpoly, qadd, qconst, qmul
from .exactnum.realalg import from_poly_expr


class StarViolation(ValueError):
    """Raised when (k, l, m, n) fails the star constraint."""


@dataclass(frozen=True, order=True)
class Rank3Params:
    """Parameter quadruple of the self-dual rank-3 family."""

    k: int
    l: int
    m: int
    n: int

    def __post_init__(self):
        for v in (self.k, self.l, self.m, self.n):
            if v < 0:
                raise ValueError("parameters must be nonnegative integers")

    @property
    def satisfies_star(self) -> bool:
        return self.k**2 + self.l**2 == self.l * self.m + self.k * self.n + 1

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k, self.l, self.m, self.n)

    def swapped(self) -> "Rank3Params":
        """Image under the basis swap X <-> Y."""
        return Rank3Params(self.l, self.k, self.n, self.m)

    def name(self) -> str:
        return f"K({self.k},{self.l},{self.m},{self.n})"


def canonicalize(params: Rank3Params) -> Rank3Params:
    """Lexicographic minimum over the swap orbit {(k,l,m,n), (l,k,n,m)}."""
    if not params.satisfies_star:
        raise StarViolation(f"{params.name()} violates the star constraint")
    return min(params, params.swapped())


def param_aliases(params: Rank3Params) -> list[str]:
    """Display names for the swap orbit, canonical representative first."""
    canon = canonicalize(params)
    names = [canon.name()]
    if canon.swapped() != canon:
        names.append(canon.swapped().name())
    return names


class FusionRing:
    """A based ring: nonnegative structure tensor, unit, duality involution.

    N[i][j][k] is the multiplicity of basis element k in the product b_i b_j;
    index 0 is the unit.
    """

    __slots__ = ("rank", "labels", "dual", "N", "params")

    def __init__(self, labels, dual, tensor, params: Rank3Params | None = None):
        self.labels = tuple(labels)
        self.rank = len(self.labels)
        self.dual = tuple(dual)
        self.N = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
        self.params = params

    def mult_matrix(self, i: int) -> list[list[int]]:
        """Matrix of multiplication by b_i: entry [s][j] = N[i][j][s]."""
        return [[self.N[i][j][s] for j in range(self.rank)] for s in range(self.rank)]

    @property
    def is_z3(self) -> bool:
        return self.dual == (0, 2, 1) and self.N == make_z3_ring().N

    def axiom_report(self) -> "AxiomReport":
        return check_based_axioms(self.N, self.dual)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "dual": list(self.dual),
            "N": [[list(row) for row in plane] for plane in self.N],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FusionRing)
            and self.dual == other.dual
            and self.N == other.N
        )

    def __hash__(self) -> int:
        return hash((self.dual, self.N))

    def __repr__(self) -> str:
        if self.params is not None:
            return f"FusionRing({self.params.name()})"
        if self.is_z3:
            return "FusionRing(Z/3)"
        return f"FusionRing(labels={self.labels})"


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the based-ring axiom check."""

    unit_ok: bool
    duality_ok: bool
    involution_ok: bool
    associativity_ok: bool
    first_violation: tuple | None

    @property
    def all_ok(self) -> bool:
        return self.unit_ok and self.duality_ok and self.involution_ok and self.associativity_ok


def check_based_axioms(tensor, dual) -> AxiomReport:
    """Check unit, duality pairing, involution, and full associativity.

    Associativity is verified exhaustively over all index tuples; the first
    violated axiom records its witnessing indices.
    """
    n = len(dual)
    N = tensor
    first: tuple | None = None

    unit_ok = True
    for j, k in product(range(n), repeat=2):
        if N[0][j][k] != (1 if j == k else 0) or N[j][0][k] != (1 if j == k else 0):
            unit_ok = False
            first = first or ("unit", (j, k))
            break

    involution_ok = all(dual[dual[i]] == i for i in range(n)) and dual[0] == 0
    if not involution_ok:
        first = first or ("involution", tuple(dual))
    else:
        # The involution must be a ring anti-automorphism:
        # N[i][j][k] == N[dual(j)][dual(i)][dual(k)].
        for i, j, k in product(range(n), repeat=3):
            if N[i][j][k] != N[dual[j]][dual[i]][dual[k]]:
                involution_ok = False
                first = first or ("involution", (i, j, k))
                break

    duality_ok = True
    for i, j in product(range(n), repeat=2):
        expected = 1 if j == dual[i] else 0
        if N[i][j][0] != expected:
            duality_ok = False
            first = first or ("duality", (i, j))
            break

    associativity_ok = True
    for i, j, k, s in product(range(n), repeat=4):
        lhs = sum(N[i][j][t] * N[t][k][s] for t in range(n))
        rhs = sum(N[j][k][t] * N[i][t][s] for t in range(n))
        if lhs != rhs:
            associativity_ok = False
            first = first or ("associativity", (i, j, k, s))
            break

    return AxiomReport(unit_ok, duality_ok, involution_ok, associativity_ok, first)


def rank3_tensor(params: Rank3Params):
    """Structure tensor of the (k, l, m, n) multiplication table."""
    k, l, m, n = params.as_tuple()
    return (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, m, k), (0, k, l)),
        ((0, 0, 1), (0, k, l), (1, l, n)),
    )


def make_rank3_ring(params: Rank3Params) -> FusionRing:
    """Self-dual rank-3 ring with basis {1, X, Y}; refuses star violations.

    Every star solution satisfies the based-ring axioms: each associativity
    defect of `rank3_tensor` is a fixed multiple in {0, +-1} of k^2 + l^2 -
    lm - kn - 1, a polynomial identity that tests/test_fusion.py proves on
    a grid of three points per parameter; unit, duality and involution hold
    for every parameter tuple.  So nothing is checked at run time."""
    if not params.satisfies_star:
        raise StarViolation(
            f"{params.name()}: k^2+l^2 = {params.k**2 + params.l**2} != "
            f"lm+kn+1 = {params.l * params.m + params.k * params.n + 1}"
        )
    return FusionRing(("1", "X", "Y"), (0, 1, 2), rank3_tensor(params), params)


def make_z3_ring() -> FusionRing:
    """Group ring of Z/3 with basis {1, g, g^2} and dual(g) = g^2."""
    tensor = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    )
    return FusionRing(("1", "g", "g2"), (0, 2, 1), tensor)


# ---------------------------------------------------------------------------
# Brute-force audit of the rank-3 classification
# ---------------------------------------------------------------------------

def enumerate_rank3_based_rings(coeff_bound: int) -> list[FusionRing]:
    """All rank-3 based rings with structure constants <= coeff_bound,
    deduplicated up to the basis relabeling that fixes the unit.

    The duality involution is either the identity or the swap of the two
    non-unit elements (dual(0) = 0 forces this).  The unit and duality rows
    are determined, leaving eight free entries per involution.
    """
    if coeff_bound < 0:
        raise ValueError("coeff_bound must be nonnegative")
    if coeff_bound > 3:
        raise ValueError("coeff_bound above 3 makes the search space unreasonable")
    rings: dict[tuple, FusionRing] = {}
    values = range(coeff_bound + 1)
    for dual in ((0, 1, 2), (0, 2, 1)):
        for free in product(values, repeat=8):
            a = free
            tensor = (
                ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                (
                    (0, 1, 0),
                    (1 if dual[1] == 1 else 0, a[0], a[1]),
                    (1 if dual[1] == 2 else 0, a[2], a[3]),
                ),
                (
                    (0, 0, 1),
                    (1 if dual[2] == 1 else 0, a[4], a[5]),
                    (1 if dual[2] == 2 else 0, a[6], a[7]),
                ),
            )
            report = check_based_axioms(tensor, dual)
            if not report.all_ok:
                continue
            key = _relabel_canonical_key(tensor, dual)
            if key not in rings:
                rings[key] = FusionRing(("1", "b1", "b2"), dual, tensor)
    return [rings[k] for k in sorted(rings)]


def _relabel_canonical_key(tensor, dual) -> tuple:
    """Canonical key under the swap of basis elements 1 and 2."""
    def serialize(t, d):
        return (tuple(d), tuple(t[i][j][k] for i in range(3) for j in range(3) for k in range(3)))

    perm = (0, 2, 1)
    swapped = tuple(
        tuple(tuple(tensor[perm[i]][perm[j]][perm[k]] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    swapped_dual = tuple(perm[dual[perm[i]]] for i in range(3))
    return min(serialize(tensor, dual), serialize(swapped, swapped_dual))


# ---------------------------------------------------------------------------
# Global Frobenius-Perron dimension
# ---------------------------------------------------------------------------

def global_fp_dim(system) -> RealAlgebraic:
    """Sum of squares of the Frobenius-Perron dimensions, exactly, from the
    solved character system (`solve_characters`).

    1 + d_X^2 + d_Y^2 = 3 + (m+l) d_X + (k+n) d_Y is the value of the
    Casimir element 1 + X^2 + Y^2 = 3 + (m+l)X + (k+n)Y at the dimension
    character, so it is the Perron-Frobenius root of the integer matrix
    3I + (m+l)N_X + (k+n)N_Y (Ostrik, arXiv:0810.3242), a root of that
    matrix's characteristic cubic."""
    fp = system.chars[0]
    if fp.is_cyclotomic:  # the Z/3 group ring: every dimension is 1
        return RealAlgebraic.from_rational(3)
    if fp.all_rational:
        x = fp.x.rational_value
        y = fp.y.rational_value
        return RealAlgebraic.from_rational(1 + x * x + y * y)
    k, l, m, n = system.ring.params.as_tuple()
    N = system.ring.N
    casimir = [
        [3 * (r == c) + (m + l) * N[1][c][r] + (k + n) * N[2][c][r] for c in range(3)]
        for r in range(3)
    ]
    expr = qadd(qconst(1), qadd(qmul(fp.x_rep, fp.x_rep), qmul(fp.y_rep, fp.y_rep)))
    return from_poly_expr(fp.gen, expr, IntPoly(charpoly(casimir)))
