"""The branch rules of the rank-3 case analysis, each with its certificate.

A ring is admissible when one of three independent branches passes:

- symmetric: rank-1 data exist only on finite-group character rings
  (integer dimensions, total squared dimension within the Landau bound):
  `landau_rule` on a dimension character, `symmetric_filter` on a ring;
- nonmodular: degenerate non-symmetric data force the (0,1,0,n) shape and an
  exact twist relation that bounds n (`nonmodular_filter`, and
  `_degenerate_certificate` on one datum);
- modular: the one exact rule that the Galois type selects
  (`modular_branch`): case 1 is the Landau rule, case 2 the cyclic cubic,
  cases 3a and 3b an order-two image fixing or moving the dimension
  character, and a full symmetric-group image fails since the Galois action
  on modular data is abelian.  Two audits check the inequalities of case 3b.

Every rule reads integers, a Galois typing or a dimension character, never
an S-matrix, and returns a `FilterVerdict` whose certificate holds the exact
intermediate quantities.  Importing the module computes nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .characters import Character, GaloisInfo, GaloisType, _selfdual_characters, galois_type
from .exactnum import IntPoly, RealAlgebraic, RootOfUnity, isolate_real_roots, realalg, two_cos
from .exactnum.cyclotomic import euler_phi
from .fusion import Rank3Params, canonicalize

LANDAU_BOUND_3 = 6  # landau_bound(3): a group with three classes has order <= 6


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


# ---------------------------------------------------------------------------
# Symmetric branch
# ---------------------------------------------------------------------------

def landau_bound(num_classes: int) -> int:
    """Largest part over all solutions of 1 = 1/c_1 + ... + 1/c_r in positive
    integers: the classical bound on the order of a finite group with r
    conjugacy classes.  The number of solutions grows doubly exponentially
    with the class count, so counts above 6 are rejected."""
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if num_classes > 6:
        raise ValueError("num_classes above 6 makes the unit-fraction enumeration unreasonable")
    best = 0
    for sol in _unit_fraction_solutions(Fraction(1), num_classes, 1):
        best = max(best, max(sol))
    return best


def _unit_fraction_solutions(remaining: Fraction, parts: int, min_c: int):
    if parts == 1:
        if remaining > 0 and remaining.numerator == 1 and remaining.denominator >= min_c:
            yield (remaining.denominator,)
        return
    c = max(min_c, math.ceil(1 / remaining)) if remaining > 0 else None
    if c is None:
        return
    while Fraction(parts, c) >= remaining:
        tail = remaining - Fraction(1, c)
        if tail >= 0:
            for sol in _unit_fraction_solutions(tail, parts - 1, c):
                yield (c,) + sol
        c += 1


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


def symmetric_filter(params: Rank3Params, info: GaloisInfo) -> FilterVerdict:
    """Admissibility of rank-1 (symmetric) data on K(params): `landau_rule`
    on the dimension character, built alone from its root `info.top`, the
    `galois_type` of `params`; when k >= 1 and that root x of char_poly_x is
    irrational, x fails the rule alone.

    No datum needs checking.  With every twist 1, S[i][j] = sum_k
    N[i*][j][k] d_k = d_i* d_j for any character d, so the dimension
    character with unit twists is always a symmetric rank-1 datum whose rows
    are characters, and the rule alone decides."""
    top = info.top
    if params.k and not top.is_rational:
        return _nonintegral_dimension(top)
    (dims,) = _selfdual_characters(params, (top,))
    return landau_rule(dims)


# ---------------------------------------------------------------------------
# Nonmodular branch: degenerate, non-symmetric data
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
    """c*v.  For v irrational and c = a/b nonzero it is a root of v's
    minimal polynomial p scaled by c, sum p_i a^(d-i) b^i x^i = a^d p(b x /
    a), which is irreducible with the roots c*r of p: its rank among them is
    v's for c > 0 and the reverse for c < 0.  It is located by
    `realalg.roots_of_irreducible` as bound at the call."""
    if v.is_rational or not c:
        return RealAlgebraic.from_rational(c * (v.rational_value or 0))
    a, b = c.numerator, c.denominator
    d = v.minpoly.degree
    roots = realalg.roots_of_irreducible(
        IntPoly(p * a ** (d - i) * b**i for i, p in enumerate(v.minpoly.coeffs)))
    return roots[v.root_index if c > 0 else len(roots) - 1 - v.root_index]


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


# ---------------------------------------------------------------------------
# Modular branch: the case rules, dispatched on the Galois type
# ---------------------------------------------------------------------------

def modular_branch(params: Rank3Params, info: GaloisInfo,
                   symmetric: FilterVerdict) -> tuple[str, FilterVerdict]:
    """The case name and verdict of the one case rule that the Galois type
    `info` of the canonical ring `params` selects.  Case 1 (integer values)
    is the Landau rule, so it returns `symmetric`, the ring's symmetric
    verdict."""
    if info.tag == GaloisType.TRIVIAL:
        return "case1", symmetric
    if info.tag == GaloisType.C3:
        return "case2", case2_rule(params)
    if info.tag == GaloisType.C2_FIXING_FP:
        return "case3a", case3a_rule(params)
    if info.tag == GaloisType.C2_MOVING_FP:
        return "case3b", case3b_rule(params, info)
    return "none", FilterVerdict(
        Verdict.FAIL,
        {"failed": "Galois image is the full symmetric group; the Galois action on modular data is abelian"},
    )


def case2_rule(params: Rank3Params) -> FilterVerdict:
    """Cyclic-cubic branch: a positive rational lambda with lambda^3 = l*k
    must satisfy the two symmetric-function identities below.

    Precondition: k, l >= 1, which every C3 ring meets.  If k = 0, the star
    equation l^2 = lm + 1 gives l = 1 and m = 0, so char_poly_x = x^3 - x^2 -
    x + 1 = (x - 1)^2 (x + 1): every x-value is rational, every y-value is
    then quadratic at most, and the Galois image is not C3.  If l = 0 the
    swapped ring has k = 0, and the Galois type does not depend on the
    orientation.  (Equally: a canonical ring with l = 0 has k = 0, since
    (0, k, n, m) precedes (k, 0, m, n).)  So m + l and n + k are nonzero on
    every C3 ring; they vanish only on K(0,1,0,0) = K(1,0,0,0), which is
    C2-moving.
    """
    k, l, m, n = params.as_tuple()
    if k < 1 or l < 1:
        raise ValueError(f"case 2 needs k, l >= 1, as every C3 ring has; got {params.name()}")
    cert: dict = {"lk": l * k}
    lam = _integer_cube_root(l * k)
    if lam is None:
        cert["failed"] = f"lambda = (l*k)^(1/3) = {l*k}^(1/3) is irrational"
        return FilterVerdict(Verdict.FAIL, cert)
    cert["lambda"] = lam
    lhs2 = Fraction(m + l)
    rhs2 = Fraction(lam * (n * k - l * l - 1), -k)
    lhs3 = Fraction(m * l - k * k - 1)
    rhs3 = Fraction(lam * lam * (n + k), -k)
    cert["eq2"] = {"lhs": str(lhs2), "rhs": str(rhs2)}
    cert["eq3"] = {"lhs": str(lhs3), "rhs": str(rhs3)}
    if lhs2 == rhs2 and lhs3 == rhs3:
        return FilterVerdict(Verdict.PASS, cert)
    cert["failed"] = "symmetric-function identities do not hold"
    return FilterVerdict(Verdict.FAIL, cert)


def _integer_cube_root(v: int) -> int | None:
    """The integer c with c^3 = v, or None when v is not a perfect cube.

    Exact for any size: integer Newton steps from above converge to the
    floor of the real cube root."""
    if v < 0:
        return None
    if v == 0:
        return 0
    c = 1 << -(-v.bit_length() // 3)
    while True:
        nxt = (2 * c + v // (c * c)) // 3
        if nxt >= c:
            break
        c = nxt
    return c if c**3 == v else None


def case3a_rule(params: Rank3Params) -> FilterVerdict:
    """Order-two-fixing branch: divisibility forces k <= 1 and l <= 1, and a
    rationality refinement leaves only two parameter orbits.

    The proportionality identity (k^2 m + l^3) l = (k^3 + l^2 n) k is recorded
    in the certificate; on the surviving rings its two sides differ even
    though the divisibility conclusion holds, so it is reported but not used
    for exclusion.
    """
    k, l, m, n = params.as_tuple()
    lhs = (k * k * m + l**3) * l
    rhs = (k**3 + l * l * n) * k
    cert: dict = {
        "proportionality_sides": [lhs, rhs],
        "sides_equal": lhs == rhs,
    }
    if lhs != rhs:
        cert["note"] = (
            "proportionality sides disagree on this ring; the filter applies "
            "only the divisibility and rationality conclusions"
        )
    canon = canonicalize(params).as_tuple()
    cert["canonical"] = canon
    if k <= 1 and l <= 1 and canon in ((0, 1, 0, 1), (1, 1, 0, 1)):
        return FilterVerdict(Verdict.PASS, cert)
    if k > 1 or l > 1:
        cert["failed"] = f"divisibility forces k <= 1 and l <= 1; got k={k}, l={l}"
    else:
        cert["failed"] = "rationality refinement excludes this parameter orbit"
    return FilterVerdict(Verdict.FAIL, cert)


def case3b_rule(params: Rank3Params, info: GaloisInfo) -> FilterVerdict:
    """Order-two-moving branch: the fixed character has integer values (t, s),
    and the three exhaustive branches (grid impossibility; t = -1 family;
    s = 0 family) leave only the canonical ring (0,1,0,0).

    `info` is `galois_type(params)`: t is the rational root of char_poly_x
    and s = (t^2 - m t - 1)/k, or (t, s) = (-1, 0) on K(0,1,0,n); both are
    integers, as rational roots of the monic char_poly_x and char_poly_y."""
    if info.tag != GaloisType.C2_MOVING_FP:
        raise ValueError(f"case 3b applies to C2-moving rings; {params.name()} is {info.tag.value}")
    t = info.x_roots[0]  # -1 on K(0,1,0,n), whose x-roots are -1, 1, 1
    s = (t * t - params.m * t - 1) // params.k if params.k else 0
    canon = canonicalize(params)
    cert: dict = {"t": t, "s": s, "canonical": canon.as_tuple()}
    passed = canon.as_tuple() == (0, 1, 0, 0)

    # Orient so that the branch taxonomy matches: the swap X <-> Y exchanges
    # the roles of (t, s).
    for oriented, tt, ss in ((params, t, s), (params.swapped(), s, t)):
        if ss == 0 and oriented.k == 0:
            cert["branch"] = "s_zero"
            cert["detail"] = (
                "symmetry of the matrix forces the two conjugate y-values to be "
                f"opposite, hence n = 0; here n = {oriented.n}"
            )
            break
        if tt == -1:
            cert["branch"] = "t_minus_one"
            cert["detail"] = (
                f"the t = -1 family has parameters (2s, 1, 2s^2, s); the twist "
                f"bound forces 2s^2 < 2, impossible for s = {ss}"
            )
            if oriented.as_tuple() == (2 * ss, 1, 2 * ss * ss, ss):
                cert["family_match"] = True
            break
    else:
        cert["branch"] = "grid"
        cert["detail"] = (
            f"integer point (t, s) = ({t}, {s}) with t^2 != 1 and s != 0 is "
            "excluded by the grid identity (left side exceeds the right side)"
        )
    return FilterVerdict(Verdict.PASS if passed else Verdict.FAIL, cert)


# ---------------------------------------------------------------------------
# Desk-scale audits of the two inequality arguments
# ---------------------------------------------------------------------------

def audit_case3b_grid(s_max: int, t_max: int) -> bool:
    """Exact sweep of the identity
        s^2/t^2 + 1/t^2 + 2t^2/(t^2+1) + t^2/s^2 = 1/s^2
    over 1 <= s <= s_max, 2 <= |t| <= t_max: true iff it has no solutions
    (the left side minus the right side is positive everywhere)."""
    if s_max < 0 or t_max < 0:
        raise ValueError("bounds must be nonnegative")
    for s in range(1, s_max + 1):
        s2 = Fraction(s * s)
        for t in range(2, t_max + 1):
            t2 = Fraction(t * t)
            lhs = s2 / t2 + 1 / t2 + 2 * t2 / (t2 + 1) + t2 / s2
            rhs = 1 / s2
            if lhs - rhs <= 0:
                return False
    return True


def audit_t_minus_one_family(s_max: int) -> bool:
    """For 1 <= s <= s_max, verify exactly that the positive root y1 of
    y^2 - 2sy - 2 satisfies y1 > 2s and s*y1 > 2: the twist relation
    |s*y1| <= 2 is therefore impossible for s >= 1."""
    for s in range(1, s_max + 1):
        poly = IntPoly((-2, -2 * s, 1))
        y1 = isolate_real_roots(poly)[-1].value
        if not (y1 > 2 * s):
            return False
        if not (y1 > Fraction(2, s)):
            return False
    return True
