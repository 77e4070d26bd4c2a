"""The datum types, the exact field of a candidate's S-matrix, and the
search for ribbon-data witnesses.

Given a rank-3 ring with structure tensor N and duality *, a character d used
as candidate dimensions, and twists theta (roots of unity, unit twist 1), the
matrix is

    S[i][j] = theta_i^-1 theta_j^-1 * sum_k N[i*][j][k] theta_k d_k.

The twists of an admissible datum have orders q with phi(q) <= 12
(`twist_table`), so the search draws them from one fixed table of at most
180 roots of unity.  Row i of S must be d_i times a character, so for each
pair of characters one row pins both twists, through one quadratic over the
character field, solved in floats and looked up in the table
(`_pinned_pairs`).  The exact checks of `_certify_candidate` alone decide
each candidate, and there is no approximate fallback.  Each candidate is
checked in one field, Q(zeta_n)[x]/(f) with f the minimal polynomial of the
character generator alpha over Q(zeta_n), decided once per (minimal
polynomial, n) by `exactnum.cyclotomic.embed_real_algebraic`: f = x - beta
when alpha = beta lies in Q(zeta_n), and every element is then one CycloNum
(integer numerators over one denominator); f is alpha's minimal polynomial
over Q otherwise, and elements are ExtNum polynomials with CycloNum
coefficients.  Either way the ring is a field, so a zero test reads the
representative (`ExactContext._is_zero`), and building and checking a
matrix runs on Python ints.  Only three entries of S depend on the twists:
row 0 is d by the unit axiom, and on a ring whose elements are self-dual
with N[i][j] = N[j][i] S is symmetric term by term.  Each of S11, S12 and
S22, and each Frobenius-Schur sum, is one rotated combination
sum c * zeta^e * v of field elements shared by the whole search
(`exactnum.cyclotomic.rotated_sum`), so only the row and determinant checks
form products; the field data (`_Field`) live in a dict that one search
holds.  The rendered `approx` S-matrix encloses the three free entries from
their coefficients over alpha's minimal polynomial by Horner's rule on
balls, and the dimension row once per field (`build_s_matrix`).  A witness
is admitted only if its structure class passes the corresponding rule
(`rules`):

- Symmetric (rank 1): the dimensions must be the everywhere-positive character
  with integer values and total squared dimension within the Landau bound for
  three classes, since a symmetric structure forces the ring to be the
  character ring of a finite group (`landau_rule`, which also decides the
  symmetric filter and the rational-spectrum case).  With every
  twist 1, S[i][j] = d_i* d_j for any character d, so such a datum is
  symmetric if it is anything, and the rule alone decides it.
- Modular (nonzero determinant): the second Frobenius-Schur indicators
  computed exactly from (N, d, theta) must be +-1 on self-dual elements and 0
  otherwise; this is the standard admissibility test for modular data and is
  what pins the twists beyond the S-matrix itself.
- Properly premodular (degenerate, rank 2): such data cannot be certified at
  this level and are reported only when `include_degenerate` is set; the
  non-modular ring filter (`nonmodular_filter`) covers that regime.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

from .characters import (
    Character, CharacterSystem, FloatCharacter, GaloisInfo, float_characters, galois_type,
    solve_characters,
)
from .exactnum import ComplexBall, CycloNum, RealAlgebraic, RootOfUnity, decimal_str, lcm
from .exactnum.cyclotomic import embed_real_algebraic, euler_phi, roots_of_unity_up_to, rotated_sum
from .exactnum.qpoly import QPoly
from .fusion import FusionRing
from .rules import FilterVerdict, _degenerate_certificate, landau_rule, symmetric_filter

EXACT_PHI_CAP = 256  # largest cyclotomic degree for which exact certification runs
SMATRIX_PRECISION_BITS = 128  # radius bound 2^-bits of the rendered approx S-matrix


class ZeroDimension(ValueError):
    """A candidate dimension is exactly zero."""


class Undecidable(RuntimeError):
    """No exact certificate within the cap: the cyclotomic field is too large."""


class StructureClass(enum.Enum):
    SYMMETRIC = "Symmetric"
    PROPER_PREMODULAR = "ProperPremodular"
    MODULAR = "Modular"


@dataclass(frozen=True)
class Twists:
    """Twist tuple (roots of unity); index 0 is the unit object, twist 1."""

    theta: tuple[RootOfUnity, RootOfUnity, RootOfUnity]

    def __post_init__(self):
        if not self.theta[0].is_one:
            raise ValueError("the unit twist must be 1")

    @staticmethod
    def of(t1: RootOfUnity, t2: RootOfUnity) -> "Twists":
        return Twists((RootOfUnity.one(), t1, t2))

    def to_json(self) -> list[dict]:
        return [t.to_json() for t in self.theta]


@dataclass
class SMatrix:
    """3x3 ball rendering of an exact S-matrix (`build_s_matrix`).  The
    matrix is symmetric, and a mirrored entry is the same ball object."""

    entries: tuple  # 3x3 tuple of ComplexBall
    precision_bits: int

    def entry(self, i: int, j: int) -> ComplexBall:
        return self.entries[i][j]

    def to_json(self) -> dict:
        """Each distinct ball is rendered once, from its integers."""
        rows: list[list] = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                ball = self.entries[i][j]
                if j < i and ball is self.entries[j][i]:
                    rows[i][j] = rows[j][i]
                    continue
                re, im, rad, den = ball.integers
                rows[i][j] = {
                    "re": decimal_str(re, 12, den),
                    "im": decimal_str(im, 12, den),
                    "radius": decimal_str(rad, 12, den),
                    "note": "approx",
                }
        return {"entries": rows, "precision_bits": self.precision_bits}


@dataclass
class PremodularDatum:
    """A candidate premodular structure: dimensions, twists, S-matrix, class."""

    ring: FusionRing
    dims: Character
    dims_index: int
    twists: Twists
    smatrix: SMatrix
    structure_class: StructureClass
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "dims": self.dims.to_json(),
            "dims_index": self.dims_index,
            "twists": self.twists.to_json(),
            "structure_class": self.structure_class.value,
            "smatrix": self.smatrix.to_json(),
            "certificate": self.certificate,
        }


# ---------------------------------------------------------------------------
# Exact entries in one field: Q(zeta_n), or Q(zeta_n)[x]/(m)
# ---------------------------------------------------------------------------

class ExtNum:
    """Element of Q(zeta_n)[x]/(modulus) for a generator whose minimal
    polynomial `modulus` (monic, of degree >= 2) stays irreducible over
    Q(zeta_n), so that the ring is a field.  `coeffs` holds exactly
    deg(modulus) CycloNum coefficients."""

    __slots__ = ("n", "modulus", "coeffs")

    def __init__(self, n: int, modulus: QPoly, coeffs: tuple[CycloNum, ...]):
        self.n = n
        self.modulus = modulus
        deg = len(modulus) - 1
        if len(coeffs) > deg:
            if any(coeffs[deg:]):
                raise ValueError(
                    f"representative of degree {len(coeffs) - 1} is not reduced "
                    f"modulo a modulus of degree {deg}"
                )
            coeffs = coeffs[:deg]
        elif len(coeffs) < deg:
            coeffs = tuple(coeffs) + (CycloNum.from_rational(n, 0),) * (deg - len(coeffs))
        self.coeffs = tuple(coeffs)

    def _with(self, coeffs) -> "ExtNum":
        """A sibling with the same field and `coeffs` already of full length."""
        out = object.__new__(ExtNum)
        out.n, out.modulus, out.coeffs = self.n, self.modulus, tuple(coeffs)
        return out

    def __sub__(self, other: "ExtNum") -> "ExtNum":
        return self._with(a - b for a, b in zip(self.coeffs, other.coeffs))

    def scale(self, r) -> "ExtNum":
        return self._with(a.scale(r) for a in self.coeffs)

    def __mul__(self, other: "ExtNum") -> "ExtNum":
        deg = len(self.modulus) - 1
        prod: list = [None] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, i):
                if b:
                    ab = a * b
                    prod[j] = ab if prod[j] is None else prod[j] + ab
        # Reduce modulo the monic modulus.
        for d in range(2 * deg - 2, deg - 1, -1):
            lead = prod[d]
            if not lead:  # None or zero
                continue
            for t, m in enumerate(self.modulus[:deg], d - deg):
                if m:
                    lm = lead.scale(m)
                    prod[t] = -lm if prod[t] is None else prod[t] - lm
        zero = CycloNum.from_rational(self.n, 0)
        return self._with(zero if c is None else c for c in prod[:deg])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __hash__(self):
        raise TypeError("ExtNum is unhashable")


FREE_ENTRIES = ((1, 1), (1, 2), (2, 2))  # the entries of S that depend on the twists
_UNIT_REP = (Fraction(1),)


def _ring_premises(ring: FusionRing) -> tuple[bool, bool]:
    """The two facts about N that fix six of the nine entries of S for any
    twists, S[i][j] = theta_i^-1 theta_j^-1 sum_k N[i*][j][k] theta_k d_k:

    - unit: N[0*][j][k] = [j = k] (the unit axiom), so S[0][j] =
      theta_j^-1 theta_j d_j = d_j;
    - symmetric: every element is self-dual and N[i][j] = N[j][i], so the
      sums of S[i][j] and S[j][i] agree term by term.

    With both, S = [[1, d_1, d_2], [d_1, S11, S12], [d_2, S12, S22]], and
    only S11, S12 and S22 depend on the twists.  Every self-dual ring of
    the package has both; Z/3 is not self-dual."""
    N, dual = ring.N, ring.dual
    unit = all(N[dual[0]][j][k] == (j == k) for j in range(3) for k in range(3))
    symmetric = dual == (0, 1, 2) and all(N[i][j] == N[j][i] for i in range(3) for j in range(i))
    return unit, symmetric


class _Field:
    """What the exact contexts of one dimension character over one field
    share: the d_j, their coefficients over the modulus in alpha (`lifts`),
    the products d_i d_j, D^2 = sum_j d_j^2, the balls of alpha and the
    rendered dimension row, each formed once, on first use."""

    def __init__(self, n: int, gen: RealAlgebraic, beta, dim_terms):
        self.n, self.gen, self.beta = n, gen, beta
        # Every generator is a root of a monic integer cubic, so its minimal
        # polynomial is monic.
        self.modulus = tuple(Fraction(c) for c in gen.minpoly.coeffs)
        self.deg = len(self.modulus) - 1
        zero = CycloNum.from_rational(n, 0)
        # d_j = rep_j(alpha) * root_j, root_j a root of unity (not 1 only for
        # Z/3 dimensions).
        self.lifts = []
        for rep, root in dim_terms:
            z = CycloNum.from_root(root, n)
            self.lifts.append(tuple(z.scale(c) for c in rep) + (zero,) * (self.deg - len(rep)))
        self.d = [self._at_generator(lift) for lift in self.lifts]
        self._gen_balls: dict[int, ComplexBall] = {}
        self.dim_row: Optional[tuple[ComplexBall, ...]] = None  # set by build_s_matrix

    def _at_generator(self, coeffs: tuple[CycloNum, ...]):
        """The element with these coefficients over the modulus in alpha."""
        if self.beta is None:
            return ExtNum(self.n, self.modulus, coeffs)
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * self.beta + c
        return acc

    def combine(self, terms, values):
        """sum c * zeta_n^e * values[k] over the terms (c, e, k), for values
        in the field: one rotated combination (`rotated_sum`), taken
        coefficientwise when the field is an extension of Q(zeta_n)."""
        if self.beta is not None:
            return rotated_sum(self.n, [(c, e, values[k]) for c, e, k in terms])
        return ExtNum(self.n, self.modulus, self.coefficients(terms, [v.coeffs for v in values]))

    def coefficients(self, terms, vectors) -> tuple[CycloNum, ...]:
        """The coefficients of sum c * zeta_n^e * vectors[k] over the terms
        (c, e, k), for coefficient vectors over the modulus."""
        return tuple(
            rotated_sum(self.n, [(c, e, vectors[k][t]) for c, e, k in terms])
            for t in range(self.deg)
        )

    @cached_property
    def dim_products(self) -> list[list]:
        """d_i * d_j, each product formed once (d_0 = 1 adds none)."""
        d = self.d
        out = [list(d), [d[1], None, None], [d[2], None, None]]
        for i, j in FREE_ENTRIES:
            out[i][j] = out[j][i] = d[i] * d[j]
        return out

    @cached_property
    def global_dim_sq(self):
        squares = [self.dim_products[j][j] for j in range(3)]
        return self.combine([(1, 0, j) for j in range(3)], squares)

    def gen_ball(self, prec: int) -> ComplexBall:
        """alpha enclosed by the node of its bisection tree at width
        2^-prec, formed once per precision."""
        ab = self._gen_balls.get(prec)
        if ab is None:
            ab = self._gen_balls[prec] = ComplexBall.from_real_interval(
                *self.gen.tree_interval(Fraction(1, 2**prec))
            )
        return ab


class ExactContext:
    """Exact S-matrix entries for one (ring, dims, twists) datum, in one
    field F = Q(zeta_n)[x]/(f), f the minimal polynomial of the character
    generator alpha over Q(zeta_n) (`embed_real_algebraic`):

    - f = x - beta when alpha = beta lies in Q(zeta_n).  Then F = Q(zeta_n)
      and every element is one CycloNum: so for rational and Z/3 dimensions
      (generator 0), sqrt(2) = zeta_8 + zeta_8^-1 at n = 16 and 2cos(pi/7) =
      -(zeta_7^3 + zeta_7^4) at n = 7.
    - f = m, the minimal polynomial over Q, otherwise; elements are ExtNum.
    Either way F is a field and a value is zero exactly when its
    representative is (`_is_zero`).

    Only the free entries S11, S12 and S22 are formed (`_ring_premises`),
    each once, as one rotated combination of the field's d_k
    (`rotated_sum`).  The checks read the symmetric matrix they span
    (`entries`), which is S wherever `is_symmetric` and `unit_row_ok` hold:
    on every self-dual ring by the premises, and on Z/3 once `is_symmetric`
    has compared the entries, as the search and the Z/3 report do first.
    The d_j, d_i d_j, D^2 and the generator's balls are field data
    (`_Field`), looked up in `fields`, a dict the caller keeps for as long as
    it wants them shared: the search keeps one per search.  A context built
    without one gets a field of its own.

    Raises Undecidable, before any arithmetic table is built, when the
    ambient cyclotomic degree phi(n) exceeds EXACT_PHI_CAP.
    """

    def __init__(self, ring: FusionRing, dims: Character, twists: Twists,
                 fields: Optional[dict] = None):
        n = ambient_cyclotomic_order(dims, twists)
        self.n = n
        self.phi_degree = euler_phi(n)
        if self.phi_degree > EXACT_PHI_CAP:
            raise Undecidable(
                f"cyclotomic order {n} has degree phi = {self.phi_degree}, "
                f"beyond the exact cap {EXACT_PHI_CAP}"
            )
        # Rational and Z/3 dimensions have no generator of their own: they take
        # 0, whose minimal polynomial x is the modulus.
        gen = dims.gen or RealAlgebraic.from_rational(0)
        self.gen = gen
        self.beta = embed_real_algebraic(gen, n)
        self.ring = ring
        self.dims = dims
        self.twists = twists
        one = RootOfUnity.one()
        if dims.is_cyclotomic:
            dim_terms = ((_UNIT_REP, one), (_UNIT_REP, dims.x), (_UNIT_REP, dims.y))
        else:
            dim_terms = ((_UNIT_REP, one), (dims.x_rep, one), (dims.y_rep, one))
        self.premises = _ring_premises(ring)
        # beta is in the key because it decides the field: the same character
        # and order can be certified in Q(zeta_n) or in Q(zeta_n)[x]/(m).
        key = (gen, dim_terms, n, self.beta)
        if fields is None:
            fields = {}
        if key not in fields:
            fields[key] = _Field(n, gen, self.beta, dim_terms)
        field = self.field = fields[key]
        self.modulus, self.d = field.modulus, field.d
        self._exps = [t.p * (n // t.q) for t in twists.theta]  # theta_k = zeta^e_k

    def _terms(self, i: int, j: int) -> list[tuple[int, int, int]]:
        """S[i][j] = sum_k N[i*][j][k] theta_k (theta_i theta_j)^-1 d_k as
        rotated-combination terms (N[i*][j][k], e_k - e_i - e_j, k)."""
        coefs = self.ring.N[self.ring.dual[i]][j]
        e = self._exps
        return [(coefs[k], e[k] - e[i] - e[j], k) for k in range(3) if coefs[k]]

    def _entry(self, i: int, j: int):
        return self.field.combine(self._terms(i, j), self.d)

    @cached_property
    def entries(self) -> list[list]:
        """The symmetric matrix [[1, d_1, d_2], [d_1, S11, S12], [d_2, S12,
        S22]], built on first use: a candidate rejected by its
        Frobenius-Schur indicators never needs it."""
        d = self.d
        s11, s12, s22 = (self._entry(i, j) for i, j in FREE_ENTRIES)
        return [list(d), [d[1], s11, s12], [d[2], s12, s22]]

    def _is_zero(self, elem) -> bool:
        """Whether the value vanishes: the context's ring is a field, so this
        is whether the representative is zero."""
        return not elem

    # -- rendering ----------------------------------------------------------

    def _coefficients(self, i: int, j: int) -> tuple[CycloNum, ...]:
        """The coefficients over the modulus in alpha of the free entry
        S[i][j]: in an extension field and at degree 1 the entry itself, and
        otherwise its rotated combination taken over the coefficients of the
        d_k."""
        value = self.entries[i][j]
        if self.beta is None:
            return value.coeffs
        if self.field.deg == 1:
            return (value,)
        return self.field.coefficients(self._terms(i, j), self.field.lifts)

    def _eval_ball_at_gen(self, poly, prec: int) -> ComplexBall:
        """Certified ball around poly(alpha) for CycloNum coefficients, each
        enclosed at `prec` bits, and alpha enclosed by the node of its
        bisection tree at width 2^-prec (`_Field.gen_ball`), by Horner's rule
        from the top coefficient; for one coefficient the ball is exactly its
        own.  The ball does not depend on how far alpha was refined before."""
        acc = poly[-1].ball(prec)
        if len(poly) > 1:
            ab = self.field.gen_ball(prec)
            for c in reversed(poly[:-1]):
                acc = acc * ab + c.ball(prec)
        return acc

    # -- exact checks -----------------------------------------------------

    def is_symmetric(self) -> bool:
        """S[j][i] = S[i][j].  Under the ring's symmetry premise the two sums
        agree term by term, so nothing is formed; otherwise (Z/3) the three
        entries below the diagonal are formed and compared exactly."""
        if self.premises[1]:
            return True
        e = self.entries
        return all(
            self._is_zero(self._entry(j, i) - e[i][j]) for i in range(3) for j in range(i + 1, 3)
        )

    def unit_row_ok(self) -> bool:
        """S[0][j] = d_j, which the unit axiom of the ring proves for any
        twists (`_ring_premises`); a ring without it fails."""
        return self.premises[0]

    def rows_are_characters(self) -> bool:
        """Rows 1 and 2 over d_i satisfy the defining relations of the ring,
        verified after clearing denominators: e_a e_b = sum_k N[a][b][k] d_i
        e_k, with d_i e_0 taken as d_i^2 and e_0 = S[i][0] = d_i.  Row 0 is
        d (unit axiom), a character of the ring by construction, so it is
        not re-checked.  Both rows are read from the entries on and above
        the diagonal, and each product, S12^2 included, is formed once."""
        N, e, dp = self.ring.N, self.entries, self.field.dim_products
        products: dict = {}

        def product(p, q):  # of the entries at upper-triangle positions p, q
            key = (p, q) if p <= q else (q, p)
            if key not in products:
                products[key] = e[p[0]][p[1]] * e[q[0]][q[1]]
            return products[key]

        for i in (1, 2):
            at = [(0, i), (min(i, 1), max(i, 1)), (i, 2)]  # row i, column k
            basis = [dp[i][i], product((0, i), at[1]), product((0, i), at[2])]
            for a, b in ((1, 1), (1, 2), (2, 2)):
                terms = [(N[a][b][k], 0, k) for k in range(3)] + [(-1, 0, 3)]
                if not self._is_zero(self.field.combine(terms, [*basis, product(at[a], at[b])])):
                    return False
        return True

    def det(self):
        """det S expanded along row 0 = (1, d_1, d_2): S11 S22 - S12^2 -
        d_1^2 S22 + 2 d_1 d_2 S12 - d_2^2 S11, one rotated combination of
        five products."""
        e, dp = self.entries, self.field.dim_products
        s11, s12, s22 = e[1][1], e[1][2], e[2][2]
        products = [s11 * s22, s12 * s12, dp[1][1] * s22, dp[1][2] * s12, dp[2][2] * s11]
        return self.field.combine(
            [(1, 0, 0), (-1, 0, 1), (-1, 0, 2), (2, 0, 3), (-1, 0, 4)], products
        )

    def rank_is_one(self) -> bool:
        """Every 2x2 minor vanishes.  Row 0 = d starts with 1 and S[i][0] =
        d_i, so that holds exactly when each row i is d_i times row 0, that
        is when S_ij = d_i d_j on the three free entries."""
        e, dp = self.entries, self.field.dim_products
        return all(self._is_zero(e[i][j] - dp[i][j]) for i, j in FREE_ENTRIES)

    def structure_class(self) -> StructureClass:
        if not self._is_zero(self.det()):
            return StructureClass.MODULAR
        if self.rank_is_one():
            return StructureClass.SYMMETRIC
        return StructureClass.PROPER_PREMODULAR

    # -- second Frobenius-Schur indicators ---------------------------------

    def global_dim_sq(self):
        return self.field.global_dim_sq

    def fs_indicator_sums(self) -> list:
        """A_k = sum_{i,j} N[i][j][k] d_i d_j (theta_i / theta_j)^2 for each k;
        an admissible modular datum has A_k = nu_k * D^2 with nu_k in {0,+-1}.
        Each A_k is one rotated combination of the field's products d_i d_j,
        so no product is formed here."""
        N, e, dp = self.ring.N, self._exps, self.field.dim_products
        values = [dp[i][j] for i in range(3) for j in range(3)]
        return [
            self.field.combine(
                [(N[i][j][k], 2 * (e[i] - e[j]), 3 * i + j)
                 for i in range(3) for j in range(3) if N[i][j][k]],
                values,
            )
            for k in range(3)
        ]

    def fs_indicators(self) -> Optional[list[int]]:
        """Exact indicators [nu_0, nu_1, nu_2] if each A_k is 0 or +-D^2 with
        the duality pattern (unit +1, self-dual +-1, non-self-dual 0); None if
        the datum is not admissible as modular data."""
        d2 = self.global_dim_sq()
        if self._is_zero(d2):
            return None
        sums = self.fs_indicator_sums()
        out = []
        for k in range(3):
            allowed = [1] if k == 0 else ([1, -1] if self.ring.dual[k] == k else [0])
            hit = None
            for nu in allowed:
                if self._is_zero(sums[k] - d2.scale(nu)):
                    hit = nu
                    break
            if hit is None:
                return None
            out.append(hit)
        return out


def ambient_cyclotomic_order(dims: Character, twists: Twists) -> int:
    n = lcm(*(t.q for t in twists.theta))
    if dims.is_cyclotomic:
        n = lcm(n, 3)
    return n


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def build_s_matrix(ctx: ExactContext) -> SMatrix:
    """The context's exact S-matrix rendered for output: each entry as a ball
    of radius at most 2^-SMATRIX_PRECISION_BITS around its value, from its
    coefficients over the modulus in alpha by Horner's rule on balls
    (`ExactContext._eval_ball_at_gen`); exactly 0 when those coefficients
    are zero.

    Only the three free entries are rendered per datum.  Row 0 is d by the
    unit axiom, rendered once per field, and the entries below the diagonal
    are the same balls as those above it.  That is S for a symmetric datum,
    so a matrix that is not symmetric (a Z/3 datum the checks reject) is
    refused."""
    if not ctx.dims.nonzero():
        raise ZeroDimension("candidate dimensions contain an exact zero")
    if not (ctx.is_symmetric() and ctx.unit_row_ok()):
        raise ValueError("the S-matrix is not symmetric with unit row d")
    field = ctx.field
    if field.dim_row is None:
        field.dim_row = tuple(_render_ball(ctx, lift) for lift in field.lifts)
    r0, r1, r2 = field.dim_row
    s11, s12, s22 = (_render_ball(ctx, ctx._coefficients(i, j)) for i, j in FREE_ENTRIES)
    return SMatrix(((r0, r1, r2), (r1, s11, s12), (r2, s12, s22)), SMATRIX_PRECISION_BITS)


def _render_ball(ctx: ExactContext, coeffs) -> ComplexBall:
    """The ball of the value with these coefficients over the modulus, at
    doubling precision from SMATRIX_PRECISION_BITS + 16 bits until its
    radius is at most 2^-SMATRIX_PRECISION_BITS."""
    prec = SMATRIX_PRECISION_BITS + 16
    while True:
        out = ctx._eval_ball_at_gen(coeffs, prec)
        _, _, rad, den = out.integers
        if rad << SMATRIX_PRECISION_BITS <= den:
            return out
        prec *= 2


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def search_ribbon_data(
    ring: FusionRing,
    max_twist_order: int,
    include_degenerate: bool = False,
    system: CharacterSystem | None = None,
    landau: FilterVerdict | None = None,
    info: GaloisInfo | None = None,
) -> list[PremodularDatum]:
    """All admissible (dimension character, twist pair) data with twist orders
    up to `max_twist_order`, deterministically ordered.

    The twists range over `twist_table(max_twist_order)`, which holds every
    twist of every admissible datum from order 42 on; it is built once per
    capped order (`_twist_index`).  Candidates are the solutions of the
    pinning row (`_pinned_pairs`), solved in closed form from the floats of
    the characters: read off the roots of `info`, the `galois_type` of a
    parameter ring (taken here unless the caller holds it), which places
    them, with the exact zeros taken from the integer data
    (`characters.float_characters`).  Each candidate is then verified
    exactly, and the exact checks alone decide: it must pass its
    structure-class consistency rule (see module docstring).  Degenerate
    (properly premodular) candidates are returned only when
    `include_degenerate` is set.

    The characters are solved only for a candidate that builds an exact
    context, once per search: `system` when the caller has solved them, and
    `solve_characters(ring, info)` otherwise.  `landau` is the symmetric
    rule's verdict on the dimension character when the caller holds it; it
    is taken here otherwise (`symmetric_filter`, which reads the dimension
    root alone), once and only if a pair is proposed for the dimension
    character.  With every twist 1, S[i][j] = d_i* d_j, so such a datum is
    Symmetric if it is anything: when that verdict fails, the unit pair is
    rejected without a context, and so without solving anything.
    """
    if max_twist_order < 1:
        raise ValueError("max_twist_order must be >= 1")
    if system is not None and system.ring != ring:
        raise ValueError("the character system belongs to a different ring")
    if ring.params is None:  # Z/3, whose characters are roots of unity
        system = system or solve_characters(ring)
        chars = [FloatCharacter(tuple(c.value_complex(j) for j in range(3)), (False,) * 3)
                 for c in system.chars]
    else:
        info = info or galois_type(ring.params)
        chars = float_characters(ring.params, info.roots)
    twists = _twist_index(min(max_twist_order, TWIST_ORDER_BOUND))
    table = twists.table
    witnesses: list[PremodularDatum] = []
    fields: dict = {}  # the field data this search's contexts share
    for dims_index, dims in enumerate(chars):
        if any(dims.zero):
            continue
        pairs = _pinned_pairs(ring, dims, chars, twists)
        sym_ok = False
        if dims_index == 0 and pairs:
            if landau is None:
                landau = (symmetric_filter(ring.params, info) if ring.params is not None
                          else landau_rule(system.chars[0]))
            sym_ok = landau.passed
        for a, b in pairs:
            if not sym_ok and table[a].is_one and table[b].is_one:
                continue
            if system is None:
                system = solve_characters(ring, info)
            datum = _certify_candidate(
                ring, system.chars[dims_index], dims_index, Twists.of(table[a], table[b]),
                include_degenerate, landau if dims_index == 0 else None, fields,
            )
            if datum is not None:
                witnesses.append(datum)
    witnesses.sort(
        key=lambda w: (w.dims_index, w.twists.theta[1].turn, w.twists.theta[2].turn)
    )
    return witnesses


TWIST_PHI_BOUND = 12  # phi(q) of every twist order q of an admissible datum
TWIST_ORDER_BOUND = 42  # the largest q with phi(q) <= TWIST_PHI_BOUND
SCAN_TOL = 1e-9  # float tolerance of the pinning-row test; exact checks decide


def twist_table(max_twist_order: int) -> list[RootOfUnity]:
    """The roots of unity of order q <= max_twist_order with phi(q) <= 12,
    sorted by (order, turn): at most 180 roots of 26 orders, all q <= 42.

    Theorem: every twist of a datum that `_certify_candidate` admits has such
    an order.  On a self-dual ring the character values span a real field F,
    the splitting field of char_poly_x (of char_poly_y when k = 0), so [F:Q]
    <= 6.  The rows of a certified datum are d_i * chi_i for characters
    chi_i, with every d_i nonzero.  With u = theta_1^-1 and w = theta_2^-1,
    S[1][2] = l d_2 u + k d_1 w = gamma := d_1 chi_1(2), and l d_2, k d_1 and
    gamma lie in F.

    (a) k, l, gamma nonzero.  |gamma - l d_2 u| = |k d_1| puts 2 Re u =
        (gamma^2 + l^2 d_2^2 - k^2 d_1^2) / (l d_2 gamma) in F, and 2 Re w
        likewise.  2cos(2 pi p/q) has degree phi(q)/2, so phi(q) <= 12.
    (b) gamma = 0, k, l nonzero.  Then w = +-u, and S[1][1] = d_1 chi_1(1)
        makes theta_1 a root of d_1 chi_1(1) x^2 - (m d_1 +- k d_2) x - 1,
        nonzero of degree <= 2 over F; theta_2 = +-theta_1.
    (c) k = 0.  The star equation gives l = 1, m = 0, so gamma = d_2 u makes
        theta_1 = +-1, and S[2][2] = d_2 chi_2(2) makes theta_2 a root of
        d_2 chi_2(2) x^2 - n d_2 x - (1 + d_1 theta_1).  That vanishes
        identically only if n = 0 and d_1 theta_1 = -1.  On that ring,
        K(0,1,0,0), S does not depend on theta_2 and det S = -4 d_2^2, so the
        datum is Modular; with d_1 = 1 and d_2 = +-sqrt(2), its
        Frobenius-Schur sum A_2 = d_2 (1 + d_1)(theta_2^2 + theta_2^-2) =
        +-D^2 = +-4 gives theta_2^2 + theta_2^-2 = +-sqrt(2): theta_2 has
        order 16.  l = 0 is the swap of this case.
    (d) Z/3.  S[1][2] = theta_2^-1 d_1 and S[1][1] = theta_1^-2 are cube
        roots of unity, so theta_2^3 = theta_1^6 = 1.

    So a pair of the table has phi(lcm(q_1, q_2)) <= phi(q_1) phi(q_2) <= 144
    < EXACT_PHI_CAP, and orders above 42 add no root.  The search runs this
    proof per pair of characters (`_pinned_pairs`).
    """
    return list(_twist_index(min(max_twist_order, TWIST_ORDER_BOUND)).table)


class _TwistIndex(NamedTuple):
    """A twist table with what the pinning-row solve reads: the value of
    each root, the table's indices sorted by turn (`by_turn`) with their
    turns (`turns`), both closed by the first root again at turn 1, and the
    indices of the roots of order 16 (`order_16`)."""

    table: tuple[RootOfUnity, ...]
    values: tuple[complex, ...]
    by_turn: tuple[int, ...]
    turns: tuple[float, ...]
    order_16: tuple[int, ...]

    def nearest(self, z: complex) -> int:
        """The index of the root of the table nearest to z by turn.  The
        table holds 1, at turn 0, so the turn of z, in [0, 1], lies between
        two listed turns."""
        turns = self.turns
        turn = cmath.phase(z) / (2 * math.pi) % 1.0
        pos = min(bisect.bisect(turns, turn), len(turns) - 1)
        return self.by_turn[pos if turns[pos] - turn < turn - turns[pos - 1] else pos - 1]


@lru_cache(maxsize=None)
def _twist_index(order: int) -> _TwistIndex:
    """The twist table of orders up to `order` <= TWIST_ORDER_BOUND and its
    lookup data, built on first use, once per order."""
    table = tuple(r for r in roots_of_unity_up_to(order) if euler_phi(r.q) <= TWIST_PHI_BOUND)
    by_turn = sorted(range(len(table)), key=lambda j: table[j].turn)
    return _TwistIndex(
        table,
        tuple(r.complex_approx() for r in table),
        (*by_turn, by_turn[0]),
        (*(float(table[j].turn) for j in by_turn), 1.0),
        tuple(j for j, r in enumerate(table) if r.q == 16),
    )


def _pinned_pairs(ring, dims: FloatCharacter, chars, twists: _TwistIndex) -> list[tuple[int, int]]:
    """The index pairs (theta_1, theta_2) of the twist table, row-major,
    whose pinning row i is within SCAN_TOL of d_i * chi at both non-unit
    entries for some character chi, solved per chi in closed form: the
    proof of `twist_table`, run in floats.

    Times theta_i theta_e, entry e of row i reads (a_e + b_e t) s = (c_e t
    + f_e) t + g_e in t = theta_i and s = theta_o (o the other index), with
    a_e = N[i*][e][o] d_o, b_e = -d_i chi(o) if e = o, c_e = d_i chi(i) if
    e = i, f_e = -N[i*][e][i] d_i and g_e = -N[i*][e][0].  A self-dual ring
    has N[1][1][2] = k or N[2][2][1] = l nonzero (star equation), and row i
    is one with it, so a_i != 0; on Z/3 row 1 pins, with a_i = 0.  Entry o
    gives s:
    - a_o = 0 (k = 0, l = 0 or Z/3): b_o t s = f_o t, so s = f_o / b_o,
      and no pair when chi(o) = 0 exactly;
    - a_o != 0: the ring is self-dual and every coefficient real, so
      conjugating entry o divided by t s gives the line a_o t + b_o = f_o s
      on the unit circle.
    So s = s_0 + s_1 t, and entry i turns into Q(t) = c_i t^2 + (f_i - a_i
    s_1) t + g_i - a_i s_0 = 0: cases (a)-(d) of `twist_table` in one
    quadratic.  Each root of Q, and then s, is looked up in the table by
    its turn (`_TwistIndex.nearest`), and the pair is kept when both entries
    are within SCAN_TOL, the test the exact checks then decide on.  c_i = 0
    exactly only where chi(i) = 0, which forces a_o = 0 (x = 0 needs l = 0,
    and row 2 pins only when k = 0), so Q is then f_i t + g_i - a_i s_0,
    linear unless N[i*][i][i] = 0.  Then Q is constant, theta_i is free,
    and case (c) of `twist_table` tries the roots of order 16 alone."""
    N, dual = ring.N, ring.dual
    i = 1 if N[dual[1]][1][2] or not N[dual[2]][2][1] else 2
    o = 3 - i
    n_i, n_o = N[dual[i]][i], N[dual[i]][o]
    d = dims.values
    a_i, f_i, g_i = n_i[o] * d[o], -n_i[i] * d[i], -n_i[0]
    a_o, f_o, g_o = n_o[o] * d[o], -n_o[i] * d[i], -n_o[0]
    values, nearest = twists.values, twists.nearest
    found: set = set()
    for chi in chars:
        c_i, b_o = d[i] * chi.values[i], -d[i] * chi.values[o]
        if n_o[o]:
            s_0, s_1 = b_o / f_o, a_o / f_o
        elif chi.zero[o]:
            continue
        else:
            s_0, s_1 = f_o / b_o, 0
        q1, q0 = f_i - a_i * s_1, g_i - a_i * s_0
        if not chi.zero[i]:
            root = cmath.sqrt(q1 * q1 - 4 * c_i * q0)
            firsts = {nearest((-q1 + root) / (2 * c_i)), nearest((-q1 - root) / (2 * c_i))}
        elif n_i[i]:
            firsts = (nearest(-q0 / q1),)
        else:
            firsts = twists.order_16
        for first in firsts:
            t = values[first]
            second = nearest(s_0 + s_1 * t)
            s = values[second]
            if (abs(a_i * s - (c_i * t + f_i) * t - g_i) <= SCAN_TOL
                    and abs((a_o + b_o * t) * s - f_o * t - g_o) <= SCAN_TOL):
                found.add((first, second) if i == 1 else (second, first))
    return sorted(found)


def _certify_candidate(ring, dims, dims_index, twists, include_degenerate,
                       landau: FilterVerdict | None,
                       fields: Optional[dict] = None) -> Optional[PremodularDatum]:
    """Exact verification and class-consistency rules for one candidate,
    on field data shared through `fields` (`ExactContext`).

    `landau` is the symmetric rule's verdict on the dimensions when they are
    the dimension character (index 0), taken once per search, and None
    otherwise.  The symmetric rule holds when it passes.  When it does not
    and degenerate data are not requested, only a Modular verdict can admit
    the candidate, and that needs exact Frobenius-Schur indicators.  They
    read only d and the twists, so they run first and reject the candidate
    before its S-matrix is built.

    The verdict is the one the full check order gives."""
    sym_ok = landau is not None and landau.passed
    ctx = ExactContext(ring, dims, twists, fields)
    fs = None
    if not (sym_ok or include_degenerate):
        fs = ctx.fs_indicators()
        if fs is None:
            return None
    if not (ctx.is_symmetric() and ctx.unit_row_ok() and ctx.rows_are_characters()):
        return None
    certificate: dict = {"verification": "exact"}
    sclass = ctx.structure_class()

    if sclass == StructureClass.SYMMETRIC:
        if not sym_ok:
            return None
        certificate["symmetric_rule"] = landau.certificate
    elif sclass == StructureClass.MODULAR:
        if fs is None:
            fs = ctx.fs_indicators()
        if fs is None:
            return None
        certificate["fs_indicators"] = fs
    else:
        if not include_degenerate:
            return None
        certificate["degenerate_rule"] = _degenerate_certificate(ring, dims, twists)

    return PremodularDatum(
        ring=ring,
        dims=dims,
        dims_index=dims_index,
        twists=twists,
        smatrix=build_s_matrix(ctx),
        structure_class=sclass,
        certificate=certificate,
    )
