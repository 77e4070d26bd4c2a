"""S-matrices from candidate (dimension, twist) data, their structure
classification, and the search for ribbon-data witnesses.

Given a rank-3 ring with structure tensor N and duality *, a character d used
as candidate dimensions, and twists theta (roots of unity, unit twist 1), the
matrix is

    S[i][j] = theta_i^-1 theta_j^-1 * sum_k N[i*][j][k] theta_k d_k.

The twists of an admissible datum have orders q with phi(q) <= 12
(`twist_table`), so the search scans one fixed table of at most 180 roots of
unity.  A floating screen proposes twist pairs from it: row i of S must be
d_i times a character, so one row names the other twist (`_arc_candidates`),
and each candidate gets the exact checks that can change its verdict
(`_certify_candidate`); there is no approximate fallback.  Exact
entries live in Q(zeta_n)[x]/(minimal polynomial of the character generator)
as ExtNum polynomials whose coefficients are CycloNum integer vectors over
one denominator, so building and checking a matrix runs on Python ints, and
each product of the matrix, row and Frobenius-Schur checks is formed once
per context.  A nonzero representative is a nonzero value when gcd(deg
modulus, phi(n)) = 1 (the tensor ring is then a field); otherwise it is
divided by a factor of the lifted modulus that the context learns with the
gcd and division of `exactnum.qpoly`, run over CycloNum coefficients (see
`ExactContext._is_zero`).  The rendered `approx` S-matrix is that certified
exact matrix, each entry enclosed in a ball by the evaluator the zero test
uses (`build_s_matrix`).  A witness is admitted only if its structure class
passes the corresponding consistency rule:

- Symmetric (rank 1): the dimensions must be the everywhere-positive character
  with integer values and total squared dimension within the Landau bound for
  three classes, since a symmetric structure forces the ring to be the
  character ring of a finite group (`landau_rule`, which also decides the
  symmetric filter and the rational-spectrum case of `classify`).  With every
  twist 1, S[i][j] = d_i* d_j for any character d, so such a datum is
  symmetric if it is anything, and the rule alone decides it.
- Modular (nonzero determinant): the second Frobenius-Schur indicators
  computed exactly from (N, d, theta) must be +-1 on self-dual elements and 0
  otherwise; this is the standard admissibility test for modular data and is
  what pins the twists beyond the S-matrix itself.
- Properly premodular (degenerate, rank 2): such data cannot be certified at
  this level and are reported only when `include_degenerate` is set; the
  dedicated non-modular ring filter covers that regime.
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

from .characters import Character, CharacterSystem, GaloisInfo, galois_type, solve_characters
from .exactnum import ComplexBall, CycloNum, IntPoly, RealAlgebraic, RootOfUnity, lcm, two_cos
from .exactnum.cyclotomic import roots_of_unity_up_to
from .exactnum.qpoly import QPoly, qdivmod, qgcd
from .fusion import FusionRing, Rank3Params, canonicalize

EXACT_PHI_CAP = 256  # largest cyclotomic degree for which exact certification runs
SMATRIX_PRECISION_BITS = 128  # radius bound 2^-bits of the rendered approx S-matrix
PRECISION_CAP_BITS = 4096  # ball precision cap before declaring Undecidable
LANDAU_BOUND_3 = 6  # landau_bound(3): a group with three classes has order <= 6


class ZeroDimension(ValueError):
    """A candidate dimension is exactly zero."""


class Undecidable(RuntimeError):
    """No exact certificate within the caps: the cyclotomic field is too large
    or a zero test did not separate at the precision cap."""


class StructureClass(enum.Enum):
    SYMMETRIC = "Symmetric"
    PROPER_PREMODULAR = "ProperPremodular"
    MODULAR = "Modular"


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class FilterVerdict:
    status: Verdict
    certificate: dict

    @property
    def passed(self) -> bool:
        return self.status == Verdict.PASS

    def to_json(self) -> dict:
        return {"status": self.status.value, "certificate": self.certificate}


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
    """3x3 ball rendering of an exact S-matrix (`build_s_matrix`)."""

    entries: tuple  # 3x3 tuple of ComplexBall
    precision_bits: int

    def entry(self, i: int, j: int) -> ComplexBall:
        return self.entries[i][j]

    def to_json(self) -> dict:
        return {
            "entries": [
                [
                    {
                        "re": _dec(self.entries[i][j].re),
                        "im": _dec(self.entries[i][j].im),
                        "radius": _dec(self.entries[i][j].rad),
                        "note": "approx",
                    }
                    for j in range(3)
                ]
                for i in range(3)
            ],
            "precision_bits": self.precision_bits,
        }


def _dec(x: Fraction) -> str:
    from .exactnum.realalg import decimal_str

    return decimal_str(x, 12) if x != 0 else "0"


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
# Exact entries over Q(zeta_N) extended by the character field
# ---------------------------------------------------------------------------

class ExtNum:
    """Element of Q(zeta_n)[x]/(modulus), the exact house for S-matrix entries.

    `modulus` is the (monic) minimal polynomial of the character generator:
    x for the generator 0 of rational and Z/3 dimensions, since
    Q(zeta_n)[x]/(x) = Q(zeta_n).  `coeffs` holds exactly deg(modulus)
    CycloNum coefficients.
    """

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

    @staticmethod
    def from_cyclo(n: int, modulus: QPoly, c: CycloNum) -> "ExtNum":
        return ExtNum(n, modulus, (c,))

    @staticmethod
    def from_rational(n: int, modulus: QPoly, value) -> "ExtNum":
        return ExtNum(n, modulus, (CycloNum.from_rational(n, value),))

    @staticmethod
    def from_gen_poly(n: int, modulus: QPoly, rep: QPoly) -> "ExtNum":
        return ExtNum(
            n, modulus, tuple(CycloNum.from_rational(n, c) for c in rep)
        )

    def _with(self, coeffs) -> "ExtNum":
        """A sibling with the same field and `coeffs` already of full length."""
        out = object.__new__(ExtNum)
        out.n, out.modulus, out.coeffs = self.n, self.modulus, tuple(coeffs)
        return out

    def __add__(self, other: "ExtNum") -> "ExtNum":
        return self._with(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "ExtNum") -> "ExtNum":
        return self._with(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "ExtNum":
        return self._with(-a for a in self.coeffs)

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

    @property
    def is_zero_in_tensor_ring(self) -> bool:
        """Zero on the nose in Q(zeta_n)[x]/(modulus).  Sufficient but not
        necessary for the value to vanish: the character field may meet the
        cyclotomic field (e.g. sqrt(2) lies in the 8th cyclotomic field), so a
        vanishing value can have a nonzero tensor representative."""
        return all(c.is_zero for c in self.coeffs)

    def __hash__(self):
        raise TypeError("ExtNum is unhashable")


class ExactContext:
    """Exact S-matrix entries for one (ring, dims, twists) datum.

    Raises Undecidable, before any arithmetic table is built, when the
    ambient cyclotomic degree phi(n) exceeds EXACT_PHI_CAP.
    """

    def __init__(self, ring: FusionRing, dims: Character, twists: Twists):
        n = ambient_cyclotomic_order(dims, twists)
        self.n = n
        self.phi_degree = euler_phi(n)
        if self.phi_degree > EXACT_PHI_CAP:
            raise Undecidable(
                f"cyclotomic order {n} has degree phi = {self.phi_degree}, "
                f"beyond the exact cap {EXACT_PHI_CAP}"
            )
        # Rational and Z/3 dimensions have no generator of their own: they take
        # 0, whose monic minimal polynomial x is the modulus.
        gen = dims.gen or RealAlgebraic.from_rational(0)
        self.gen = gen
        self.modulus = tuple(Fraction(c, gen.minpoly.leading) for c in gen.minpoly.coeffs)
        # The modulus over Q(zeta_n), for the gcd of the zero test.
        self.cyclo_modulus = tuple(CycloNum.from_rational(n, c) for c in self.modulus)
        self.ring = ring
        self.dims = dims
        self.twists = twists
        self.d = [self._dim_value(j) for j in range(3)]
        # A monic factor of cyclo_modulus that has alpha as a root; zero tests
        # shrink it towards alpha's minimal polynomial over Q(zeta_n).
        self.alpha_factor = self.cyclo_modulus
        # The field-degree rule of `_is_zero`: Q(zeta_n)[x]/(modulus) is a field.
        self.tensor_is_field = math.gcd(len(self.modulus) - 1, self.phi_degree) == 1

    def _dim_value(self, j: int) -> ExtNum:
        if j == 0:
            return ExtNum.from_rational(self.n, self.modulus, 1)
        if self.dims.is_cyclotomic:
            root = self.dims.x if j == 1 else self.dims.y
            return ExtNum.from_cyclo(self.n, self.modulus, CycloNum.from_root(root, self.n))
        rep = self.dims.x_rep if j == 1 else self.dims.y_rep
        return ExtNum.from_gen_poly(self.n, self.modulus, rep)

    def _times_root(self, x: ExtNum, r: RootOfUnity) -> ExtNum:
        """x * r for a root of unity r, with no product when r = 1."""
        if r.is_one:
            return x
        return x * ExtNum.from_cyclo(self.n, self.modulus, CycloNum.from_root(r, self.n))

    @cached_property
    def entries(self) -> list[list[ExtNum]]:
        """The exact S-matrix, built on first use: a candidate rejected by its
        Frobenius-Schur indicators never needs it.

        theta_i^-1 theta_j^-1 = (theta_i theta_j)^-1 is one root of unity, so
        an entry takes one product (none when that root is 1), and each
        theta_k d_k is formed once."""
        N, dual = self.ring.N, self.ring.dual
        theta = self.twists.theta
        td = [self._times_root(self.d[k], theta[k]) for k in range(3)]
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = ExtNum.from_rational(self.n, self.modulus, 0)
                for k in range(3):
                    coef = N[dual[i]][j][k]
                    if coef:
                        acc = acc + td[k].scale(coef)
                row.append(self._times_root(acc, (theta[i] * theta[j]).inverse()))
            out.append(row)
        return out

    @cached_property
    def dim_products(self) -> list[list[ExtNum]]:
        """d_i * d_j, each product formed once (d_0 = 1 adds none)."""
        d = self.d
        out = [list(d), [d[1], None, None], [d[2], None, None]]
        for i, j in ((1, 1), (1, 2), (2, 2)):
            out[i][j] = out[j][i] = d[i] * d[j]
        return out

    # -- faithful zero test --------------------------------------------------

    def _is_zero(self, elem: ExtNum) -> bool:
        """Whether the represented value vanishes in the actual number field.

        The value is g(alpha) for the representative g over Q(zeta_n), where
        alpha is the character generator, a simple root of the modulus m of
        degree d.  A representative that is zero in Q(zeta_n)[x]/(m) is a zero
        value.  A nonzero one may still vanish when the character field K =
        Q(alpha) meets the cyclotomic one (sqrt(2) lies in Q(zeta_8)), and is
        tested in two steps.

        Field-degree rule: Q(zeta_n) is Galois over Q, so [K(zeta_n) :
        Q(zeta_n)] = [K : K meet Q(zeta_n)], and the degree of K meet Q(zeta_n)
        divides both d and phi(n).  When gcd(d, phi(n)) = 1 the intersection
        is Q, m stays irreducible over Q(zeta_n), the tensor ring is a field,
        and a nonzero representative is a nonzero value: no gcd is needed.

        Learned factor: otherwise the context keeps `alpha_factor`, a monic
        factor f of m over Q(zeta_n) with f(alpha) = 0, starting at m.  With
        r = g mod f, g(alpha) = r(alpha): r = 0 means zero and a nonzero
        constant r means nonzero.  Else alpha is a root of exactly one of h =
        gcd(r, f) and f/h (f divides the squarefree m), and certified
        enclosures of the two factors at alpha decide which: exactly one
        separates from zero.  The factor that vanishes at alpha replaces f.
        f only shrinks, so after a few splits it is alpha's minimal polynomial
        over Q(zeta_n) and each test is one division.
        """
        if elem.is_zero_in_tensor_ring:
            return True
        if self.tensor_is_field:
            return False
        f = self.alpha_factor
        _, r = qdivmod(elem.coeffs, f)
        if len(r) <= 1:
            return not r
        h = qgcd(r, f)
        if len(h) <= 1:
            return False
        h2, rem = qdivmod(f, h)
        assert not rem, "the gcd must divide the factor"
        prec = 96
        while prec <= PRECISION_CAP_BITS:
            if self._eval_ball_at_gen(h, prec).definitely_nonzero():
                self.alpha_factor = h2
                return False
            if self._eval_ball_at_gen(h2, prec).definitely_nonzero():
                self.alpha_factor = h
                return True
            prec *= 2
        raise Undecidable("zero test did not separate at the precision cap")

    def _eval_ball_at_gen(self, poly, prec: int) -> ComplexBall:
        """Certified ball around poly(alpha) for CycloNum coefficients, each
        enclosed at `prec` bits, and alpha enclosed by the node of its
        bisection tree at width 2^-prec; at the generator 0, poly is one
        coefficient and the ball is exactly its own.  The ball does not depend
        on how far alpha was refined before."""
        ab = ComplexBall.from_real_interval(*self.gen.tree_interval(Fraction(1, 2**prec)))
        acc = ComplexBall.from_rational(0)
        for c in reversed(poly):
            acc = acc * ab + c.ball(prec)
        return acc

    # -- exact checks -----------------------------------------------------

    def is_symmetric(self) -> bool:
        e = self.entries
        return all(
            self._is_zero(e[i][j] - e[j][i]) for i in range(3) for j in range(i + 1, 3)
        )

    def unit_row_ok(self) -> bool:
        return all(self._is_zero(self.entries[0][j] - self.d[j]) for j in range(3))

    def rows_are_characters(self) -> bool:
        """Row i over d_i satisfies the defining relations of the ring,
        verified after clearing denominators: e_a e_b = sum_k N[a][b][k] d_i e_k,
        with d_i e_0 taken as d_i^2.  The products d_i^2, d_i e_1 and d_i e_2
        are formed once per row."""
        N = self.ring.N
        for i in range(3):
            di = self.d[i]
            e = self.entries[i]
            if not self._is_zero(e[0] - di):
                return False
            basis = [self.dim_products[i][i]] + [di * e[k] if i else e[k] for k in (1, 2)]
            for a, b in ((1, 1), (1, 2), (2, 2)):
                rhs = ExtNum.from_rational(self.n, self.modulus, 0)
                for k in range(3):
                    if N[a][b][k]:
                        rhs = rhs + basis[k].scale(N[a][b][k])
                if not self._is_zero(e[a] * e[b] - rhs):
                    return False
        return True

    def det(self) -> ExtNum:
        e = self.entries

        def minor(r1, r2, c1, c2):
            return e[r1][c1] * e[r2][c2] - e[r1][c2] * e[r2][c1]

        return (
            e[0][0] * minor(1, 2, 1, 2)
            - e[0][1] * minor(1, 2, 0, 2)
            + e[0][2] * minor(1, 2, 0, 1)
        )

    def rank_is_one(self) -> bool:
        e = self.entries
        for r1 in range(3):
            for r2 in range(r1 + 1, 3):
                for c1 in range(3):
                    for c2 in range(c1 + 1, 3):
                        m = e[r1][c1] * e[r2][c2] - e[r1][c2] * e[r2][c1]
                        if not self._is_zero(m):
                            return False
        return True

    def structure_class(self) -> StructureClass:
        if not self._is_zero(self.det()):
            return StructureClass.MODULAR
        if self.rank_is_one():
            return StructureClass.SYMMETRIC
        return StructureClass.PROPER_PREMODULAR

    # -- second Frobenius-Schur indicators ---------------------------------

    def global_dim_sq(self) -> ExtNum:
        acc = ExtNum.from_rational(self.n, self.modulus, 0)
        for j in range(3):
            acc = acc + self.dim_products[j][j]
        return acc

    def fs_indicator_sums(self) -> list[ExtNum]:
        """A_k = sum_{i,j} N[i][j][k] d_i d_j (theta_i / theta_j)^2 for each k;
        an admissible modular datum has A_k = nu_k * D^2 with nu_k in {0,+-1}.
        Each term d_i d_j (theta_i / theta_j)^2 is formed once per (i, j) with
        a nonzero N[i][j], and not multiplied out when the ratio is 1."""
        theta = self.twists.theta
        out = [ExtNum.from_rational(self.n, self.modulus, 0) for _ in range(3)]
        for i in range(3):
            for j in range(3):
                coefs = self.ring.N[i][j]
                if not any(coefs):
                    continue
                term = self._times_root(
                    self.dim_products[i][j], (theta[i] * theta[j].inverse()) ** 2
                )
                for k in range(3):
                    if coefs[k]:
                        out[k] = out[k] + term.scale(coefs[k])
        return out

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


def euler_phi(n: int) -> int:
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
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
    of radius at most 2^-SMATRIX_PRECISION_BITS around its value, exactly 0
    when its representative is zero."""
    if not ctx.dims.nonzero():
        raise ZeroDimension("candidate dimensions contain an exact zero")
    limit = Fraction(1, 2**SMATRIX_PRECISION_BITS)

    def ball(entry: ExtNum) -> ComplexBall:
        prec = SMATRIX_PRECISION_BITS + 16
        while (out := ctx._eval_ball_at_gen(entry.coeffs, prec)).rad > limit:
            prec *= 2
        return out

    entries = tuple(tuple(ball(e) for e in row) for row in ctx.entries)
    return SMatrix(entries, SMATRIX_PRECISION_BITS)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def search_ribbon_data(
    ring: FusionRing,
    max_twist_order: int,
    include_degenerate: bool = False,
    system: CharacterSystem | None = None,
) -> list[PremodularDatum]:
    """All admissible (dimension character, twist pair) data with twist orders
    up to `max_twist_order`, deterministically ordered.

    The twists range over `twist_table(max_twist_order)`, which holds every
    twist of every admissible datum from order 42 on; it and its float
    screen data are built once per capped order (`_twist_screen`).  One row
    of S names the other twist of each (`_arc_candidates`), and the scan
    accepts a pair when S is symmetric and every row is a character within
    SCAN_TOL (`_scan_twist_grid`).  The scan reads the characters' floats,
    their reps at float(gen), so it locates no y-value.  Each candidate is
    then re-verified exactly from the reps and must pass its
    structure-class consistency rule (see module docstring).  Degenerate
    (properly premodular) candidates are returned only when
    `include_degenerate` is set.  `system` is the ring's character system
    when the caller has already solved it; it is solved here otherwise.
    """
    if max_twist_order < 1:
        raise ValueError("max_twist_order must be >= 1")
    if system is None:
        system = solve_characters(ring)
    elif system.ring != ring:
        raise ValueError("the character system belongs to a different ring")
    screen = _twist_screen(min(max_twist_order, TWIST_ORDER_BOUND))
    table = screen.table
    chars = [[c.value_complex(j) for j in range(3)] for c in system.chars]
    witnesses: list[PremodularDatum] = []
    for dims_index, dims in enumerate(system.chars):
        if not dims.nonzero():
            continue
        for a, b in _scan_twist_grid(ring, chars[dims_index], chars, screen, SCAN_TOL):
            datum = _certify_candidate(
                ring, dims, dims_index, Twists.of(table[a], table[b]),
                include_degenerate,
            )
            if datum is not None:
                witnesses.append(datum)
    witnesses.sort(
        key=lambda w: (w.dims_index, w.twists.theta[1].turn, w.twists.theta[2].turn)
    )
    return witnesses


TWIST_PHI_BOUND = 12  # phi(q) of every twist order q of an admissible datum
TWIST_ORDER_BOUND = 42  # the largest q with phi(q) <= TWIST_PHI_BOUND
SCAN_TOL = 1e-9  # float tolerance of the scan; exact certification follows


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
    < EXACT_PHI_CAP, and orders above 42 add no root.
    """
    return list(_twist_screen(min(max_twist_order, TWIST_ORDER_BOUND)).table)


class _TwistScreen(NamedTuple):
    """A twist table with the float data the scan reads: the value of each
    root, and the table by turn three times over (`by_turn`), with turns
    shifted by -1, 0 and +1 (`turns`), so that an arc of width <= 1 around
    a center in [0, 1] is one run of each list."""

    table: tuple[RootOfUnity, ...]
    values: tuple[complex, ...]
    by_turn: tuple[int, ...]
    turns: tuple[float, ...]


@lru_cache(maxsize=None)
def _twist_screen(order: int) -> _TwistScreen:
    """The twist table of orders up to `order` <= TWIST_ORDER_BOUND and its
    screen data, built on first use, once per order."""
    table = tuple(r for r in roots_of_unity_up_to(order) if euler_phi(r.q) <= TWIST_PHI_BOUND)
    by_turn = sorted(range(len(table)), key=lambda j: table[j].p / table[j].q) * 3
    return _TwistScreen(
        table,
        tuple(r.complex_approx() for r in table),
        tuple(by_turn),
        tuple(table[j].p / table[j].q + n // len(table) - 1 for n, j in enumerate(by_turn)),
    )


def _scan_twist_grid(ring, d, chars, screen, tol) -> list[tuple[int, int]]:
    """The index pairs (theta_1, theta_2) of `screen`'s table, row-major,
    that pass `_looks_admissible`; `d` and `chars` are the float values of
    the dimensions and of every character."""
    values = screen.values
    rows = [[[d[i] * c[j] for j in range(3)] for c in chars] for i in range(3)]
    found = _arc_candidates(ring, d, chars, screen, tol)
    return [
        (a, b) for (a, b), index in sorted(found.items())
        if _looks_admissible(ring, d, rows, index, values[a], values[b], tol)
    ]


def _arc_candidates(ring, d, chars, screen, tol) -> dict:
    """Every pair (a, b) of `screen`'s table whose pinning row i is within
    tol of d_i * chi at both non-unit entries for some character chi, mapped
    to the first such chi: a necessary part of `_looks_admissible`'s row
    test.

    Times the unit theta_i theta_e, entry e of row i is the balancing sum
    sum_k N[i*][e][k] theta_k d_k, so its test reads |k_e theta_o - r_e| <=
    tol (o the other twist).  A self-dual ring has N[1][1][2] = k or
    N[2][2][1] = l nonzero (star equation), and that row's diagonal entry
    has the constant coefficient k d_2 or l d_1.  On Z/3 both vanish, and S[1][2]
    = theta_2^-1 d_1 pins theta_2.  Then ||r| - |k|| <= tol, and theta_o is
    within tol/|k| of r/k, so at an angle at most pi * min(tol/|k|, 1) from
    it (sin x >= 2x/pi up to pi/2; beyond, every point is 1 away): one run
    of the sorted turns, whose points are kept when both entries pass."""
    N, dual = ring.N, ring.dual
    i = 1 if N[dual[1]][1][2] or not N[dual[2]][2][1] else 2
    o = 3 - i
    pin = i if N[dual[i]][i][o] else o

    def entry(e, chi):  # (a, b, c, f, g): k_e = a + b t, r_e = (c t + f) t + g
        n, target = N[dual[i]][e], d[i] * chi[e]
        return (n[o] * d[o], -target if e == o else 0,
                target if e == i else 0, -n[i] * d[i], -n[0])

    values, by_turn, turns = screen.values, screen.by_turn, screen.turns
    found: dict = {}
    for index, chi in enumerate(chars):
        k, b, c, f, g = entry(pin, chi)
        if pin == o:  # Z/3: k_2 = b theta_1 and r_2 = f theta_1
            k, f, g = b, 0, f
        size, turn = abs(k), cmath.phase(k) / (2 * math.pi)
        half = min(tol / size, 1.0) / 2
        k2, b2, c2, f2, g2 = entry(3 - pin, chi)
        for first, t in enumerate(values):
            r = (c * t + f) * t + g
            if abs(abs(r) - size) > tol:
                continue
            center = (cmath.phase(r) / (2 * math.pi) - turn) % 1.0
            other_k, other_r = k2 + b2 * t, (c2 * t + f2) * t + g2
            for second in by_turn[bisect.bisect_left(turns, center - half):
                                  bisect.bisect_right(turns, center + half)]:
                s = values[second]
                if abs(k * s - r) <= tol and abs(other_k * s - other_r) <= tol:
                    found.setdefault((first, second) if i == 1 else (second, first), index)
    return found


def _looks_admissible(ring, d, rows, index, t1, t2, tol) -> bool:
    """Floating screen of the twists theta_1 = t1, theta_2 = t2: symmetric,
    row i within tol of some rows[i][c] = d_i * (character c), and either
    degenerate (|det| <= 1e-6) or passing the Frobenius-Schur indicator test.
    Row 1 is tested first against character `index`, which proposed the
    pair through the pinning row (row 2 on k = 0 rings)."""
    N, dual = ring.N, ring.dual
    theta = (1, t1, t2)
    t = (1, t1 * d[1], t2 * d[2])
    inv = (1, t1.conjugate(), t2.conjugate())

    def row(i):
        return [inv[i] * inv[j] * (n[0] + n[1] * t[1] + n[2] * t[2])
                for j, n in enumerate(N[dual[i]])]

    def near(r, x):
        return abs(r[1] - x[1]) <= tol and abs(r[2] - x[2]) <= tol and abs(r[0] - x[0]) <= tol

    S = [None, row(1), None]
    if not (near(S[1], rows[1][index]) or any(near(S[1], r) for r in rows[1])):
        return False
    S[0], S[2] = row(0), row(2)
    if any(abs(S[i][j] - S[j][i]) > tol for i, j in ((0, 1), (0, 2), (1, 2))):
        return False
    if not any(near(S[2], r) for r in rows[2]):
        return False
    det = (
        S[0][0] * (S[1][1] * S[2][2] - S[1][2] * S[2][1])
        - S[0][1] * (S[1][0] * S[2][2] - S[1][2] * S[2][0])
        + S[0][2] * (S[1][0] * S[2][1] - S[1][1] * S[2][0])
    )
    if abs(det) <= 1e-6:
        return True
    d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    for k in range(3):
        acc = sum(
            N[i][j][k] * (d[i] * d[j]) * (theta[i] * theta[j].conjugate()) ** 2
            for i in range(3) for j in range(3) if N[i][j][k]
        )
        allowed = [1] if k == 0 else ([1, -1] if dual[k] == k else [0])
        if all(abs(acc - nu * d2) > 1e-6 * max(1.0, abs(d2)) for nu in allowed):
            return False
    return True


def _certify_candidate(ring, dims, dims_index, twists,
                       include_degenerate) -> Optional[PremodularDatum]:
    """Exact verification and class-consistency rules for one scan survivor.

    The symmetric rule holds when the dimensions are the dimension character
    (index 0) and `landau_rule` passes on them.  When it fails:

    - with every twist 1, S[i][j] = d_i* d_j, so the datum is Symmetric if
      it is anything and the rule rejects it: no exact context is built;
    - when degenerate data are not requested, only a Modular verdict can
      admit the candidate, and that needs exact Frobenius-Schur indicators.
      They read only d and the twists, so they run first and reject the
      candidate before its S-matrix is built.

    The verdict is the one the full check order gives."""
    landau = landau_rule(dims) if dims_index == 0 else None
    sym_ok = landau is not None and landau.passed
    if not sym_ok and all(t.is_one for t in twists.theta):
        return None
    ctx = ExactContext(ring, dims, twists)
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


def landau_rule(dims: Character) -> FilterVerdict:
    """The finite-group rule on a dimension character, the one test behind
    the symmetric filter, the rational-spectrum case and symmetric witnesses.

    Rank-1 (symmetric) data live on the character ring of a finite group, so
    the dimensions must be integers with total squared dimension 1 + d_X^2 +
    d_Y^2 at most LANDAU_BOUND_3, the order bound for three classes.  A
    non-integer value fails with its minimal polynomial as certificate.  The
    dimension character of the Z/3 group ring is trivial, all values 1."""
    if dims.is_cyclotomic:
        if not dims.is_positive:
            raise ValueError("a nontrivial Z/3 character is not a dimension character")
        dx = dy = Fraction(1)
    else:
        for j in (1, 2):  # x first: an irrational x fails without locating y
            value = dims.value(j)
            if not value.is_integer:
                return _nonintegral_dimension(value)
        dx, dy = dims.x.rational_value, dims.y.rational_value
    total = 1 + dx * dx + dy * dy
    cert: dict = {
        "dims": ["1", str(dx), str(dy)],
        "global_dim": str(total),
        "landau_bound": LANDAU_BOUND_3,
    }
    if total > LANDAU_BOUND_3:
        cert["failed"] = f"global dimension {total} exceeds the Landau bound {LANDAU_BOUND_3}"
        return FilterVerdict(Verdict.FAIL, cert)
    return FilterVerdict(Verdict.PASS, cert)


def _nonintegral_dimension(value) -> FilterVerdict:
    """Landau-rule Fail for a dimension character with the non-integer real
    algebraic value `value`, certified by its minimal polynomial."""
    return FilterVerdict(Verdict.FAIL, {
        "failed": "dimension character is not integral",
        "nonintegral_value": {
            "minpoly": list(value.minpoly.coeffs),
            "approx": value.approx_str(12),
        },
    })


def _degenerate_certificate(ring, dims, twists) -> dict:
    """For rings of canonical shape (0,1,0,n), record whether the degenerate
    datum satisfies the exact twist relation n*d_Y = -2*(theta_Y+theta_Y^-1),
    where Y is the element outside the two-object symmetric subring."""
    cert: dict = {"checked": False}
    params = ring.params
    if params is None:
        return cert
    canon = canonicalize(params)
    if (canon.k, canon.l, canon.m) != (0, 1, 0):
        return cert
    n = canon.n
    if params.k == 0:
        d_val, theta = dims.y, twists.theta[2]
    else:  # swapped orientation (1, 0, n, 0)
        d_val, theta = dims.x, twists.theta[1]
    target = theta.real_two_cos()  # theta + theta^-1
    lhs_needed = _scaled_value(d_val, Fraction(-n, 2))
    cert["checked"] = True
    cert["relation_holds"] = bool(lhs_needed == target)
    cert["theta_turn"] = str(theta.turn)
    return cert


def _scaled_value(v: RealAlgebraic, c: Fraction) -> RealAlgebraic:
    """c*v, a root of v's minimal polynomial p scaled by c: with c = a/b,
    sum p_i a^(d-i) b^i x^i = a^d p(b x / a) (for c = 0 this is p_d x^d,
    and from_poly_expr gives 0 without it)."""
    from .exactnum.qpoly import X, qscale
    from .exactnum.realalg import from_poly_expr

    a, b = c.numerator, c.denominator
    d = v.minpoly.degree
    scaled = IntPoly(p * a ** (d - i) * b**i for i, p in enumerate(v.minpoly.coeffs))
    return from_poly_expr(v, qscale(X, c), scaled)


# ---------------------------------------------------------------------------
# Non-modular, non-symmetric filter
# ---------------------------------------------------------------------------

def nonmodular_filter(params: Rank3Params, info: GaloisInfo | None = None) -> FilterVerdict:
    """Necessary conditions for a degenerate, non-symmetric structure.

    Applies only to rings whose canonical form is (0, 1, 0, n) -- the shape
    forced by a two-object symmetric subring.  Passing requires n*y_+ <= 4 for
    the positive root y_+ of y^2 = 2 + n*y, together with a root of unity
    theta satisfying n*d_Y = -2*(theta + theta^-1) for some root d_Y; both
    checks are exact (minimal-polynomial comparison for the 2cos values).
    The roots y_+ and y_- are the y-values of the first and last characters
    in `info`, the `galois_type` of the canonical form, computed here unless
    the caller already holds it.
    """
    canon = canonicalize(params)
    if (canon.k, canon.l, canon.m) != (0, 1, 0):
        return FilterVerdict(Verdict.NOT_APPLICABLE, {"reason": "ring has no two-object symmetric subring shape"})
    n = canon.n
    if info is None:
        info = galois_type(canon)
    y_plus, _zero, y_minus = info.roots
    cert: dict = {"n": n, "y_plus": y_plus.approx_str(12)}
    if n > 0 and not (y_plus <= Fraction(4, n)):
        cert["violated"] = f"n*y_+ = {_scaled_value(y_plus, Fraction(n)).approx_str(12)} > 4"
        return FilterVerdict(Verdict.FAIL, cert)
    witness = None
    for d_y in (y_minus, y_plus):  # both nonzero: y_+ * y_- = -2
        target = _scaled_value(d_y, Fraction(-n, 2))
        hit = _match_two_cos(target)
        if hit is not None:
            witness = {"d_Y": d_y.approx_str(12), "theta_turn": str(hit.turn)}
            break
    if witness is None:
        cert["violated"] = "no root of unity satisfies n*d_Y = -2*(theta+theta^-1)"
        return FilterVerdict(Verdict.FAIL, cert)
    cert["witness"] = witness
    return FilterVerdict(Verdict.PASS, cert)


def _match_two_cos(value) -> Optional[RootOfUnity]:
    """Exact search for a reduced turn p/q with 2cos(2*pi*p/q) equal to the
    given real algebraic number.

    2cos(2*pi*p/q) has degree phi(q)/2 for q > 2 and 1 for q in {1, 2}, so
    only the finitely many q with phi(q) = 2*deg (all q <= 8*deg^2, since
    phi(q) >= sqrt(q/2)), plus q in {1, 2} when deg = 1, can match; they are
    tried in ascending order.
    """
    if value < Fraction(-2) or value > Fraction(2):
        return None
    deg = value.degree
    for q in range(1, 8 * deg * deg + 1):
        if euler_phi(q) != 2 * deg and not (deg == 1 and q <= 2):
            continue
        for p in range(q // 2 + 1):
            if math.gcd(p, q) == 1 and two_cos(Fraction(p, q)) == value:
                return RootOfUnity(p, q)
    return None
