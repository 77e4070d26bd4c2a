"""The branch rules of the rank-3 case analysis, each with its certificate.

A ring is admissible when one of three independent branches passes:

- symmetric: rank-1 data exist only on finite-group character rings
  (integer dimensions, total squared dimension within the Landau bound):
  `landau_rule` on a dimension character, `symmetric_filter` on a ring;
- nonmodular: degenerate non-symmetric data have the Muger center Rep(Z/2),
  which forces the (0,1,0,n) shape and an integral dimension d_Y/2, so n = 1
  (`nonmodular_filter`);
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

from .characters import Character, GaloisInfo, GaloisType, _selfdual_characters
from .exactnum import IntPoly, isolate_real_roots
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

def nonmodular_filter(params: Rank3Params) -> FilterVerdict:
    """Admissibility of degenerate, non-symmetric data on K(params), decided
    from the integers alone by the Muger center C' of such a category C.

    - Shape.  C is neither modular nor symmetric, so C' is a symmetric
      fusion subcategory of rank 2: Rep(Z/2) or sVec (Deligne; Ostrik,
      arXiv:math/0203255).  The ring has the canonical form (0, 1, 0, n),
      X invertible with X Y = Y.  Any other shape is NotApplicable.
    - C' is Tannakian.  d_X d_Y = d_Y with d_Y != 0 gives d_X = 1, and X
      transparent gives theta_X theta_Y = theta_{XY} = theta_Y, so theta_X =
      1, the self-braiding theta_X / d_X of X is 1, and C' = Rep(Z/2).
    - De-equivariantization by Z/2 (Bruguieres; Muger, arXiv:math/9812040;
      Drinfeld-Gelaki-Nikshych-Ostrik, arXiv:0906.0620) splits Y, which X
      fixes, into two simple objects of dimension z = d_Y/2.  From Y^2 = 1
      + X + nY, d_Y^2 = 2 + n d_Y, so 2z^2 - nz - 1 = 0, and a simple
      object's dimension is an algebraic integer.

    The product of the roots is -1/2, so an irrational root is not an
    algebraic integer, and a rational one must be an integer: n^2 + 8 is a
    square only for n = 1, where z = 1 (d_Y = 2) passes."""
    canon = canonicalize(params)
    if (canon.k, canon.l, canon.m) != (0, 1, 0):
        return FilterVerdict(Verdict.NOT_APPLICABLE, {"reason": "ring has no two-object symmetric subring shape"})
    n = canon.n
    cert: dict = {"n": n, "d_X": "1", "theta_X": "1", "z_poly": [-1, -n, 2]}
    root = math.isqrt(n * n + 8)
    roots = (Fraction(n + root, 4), Fraction(n - root, 4)) if root * root == n * n + 8 else ()
    z = next((r for r in roots if r.denominator == 1), None)
    if z is None:
        poly = f"2z^2 - {n}z - 1" if n else "2z^2 - 1"
        cert["failed"] = f"z = d_Y/2 is a root of {poly}, which has no algebraic-integer root"
        return FilterVerdict(Verdict.FAIL, cert)
    cert["z"], cert["d_Y"] = str(z), str(2 * z)
    return FilterVerdict(Verdict.PASS, cert)


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
