"""The six weighted-bound families and their critical weights.

Each user k has three families of weighted rate bounds.  For user 1 with
weight omega in [0, 1] (user 2 mirrors R1 and R2):

    a:  R1 + omega*R2 <= E[N11] + omega*E[(N21-N11)^+]
                         + sum_l [omega*beta1(l) - alpha1(l)]^+
    b:  R1 + omega*R2 <= (1-omega)*E[N11] + omega*E[N21]
                         + sum_l [omega*gamma1(l) - alpha1(l)]^+
                         + omega * sum_l max(P(N11-N21 >= l), P(N12 >= l))
    c:  (1+mu)*R1 + omega*R2 <= E[N11] + omega*E[(N21-N11)^+]
                         + sum_l [omega*gamma1(l) - alpha1(l)]^+
                         + sum_l max(mu*P(N11 >= l), omega*P(N12 >= l))
        for 0 <= mu <= omega.

Every family is piecewise-linear in its weights, so intersecting the
half-planes at the finitely many kink weights already yields the full
region; that critical-weight enumeration is the primary mode, with a dense
weight grid available as a cross-checking fallback.

Evaluation goes through one BoundKernel per (spec, user), built once from
the integer vectors of layer_coefficients.  It holds every quantity the
bounds read as an integer numerator over their denominator D, the
coefficients' own M = lcm(L11*L21, L22*L12), with no second lcm taken here.
Since alpha(l) >= 0, a kink sum is

    sum_l [omega*g(l) - alpha(l)]^+ = omega*G(omega) - A(omega),

G and A summing g and alpha over the layers with g(l) > 0 and
alpha(l)/g(l) < omega; likewise, for omega > 0,

    sum_l max(mu*P(N11 >= l), omega*P(N12 >= l)) = mu*X(mu/omega)
                                  + omega*(E[N12] - Y(mu/omega)),

X and Y summing P(N11 >= l) and P(N12 >= l) over the layers with
P(N12 >= l) < (mu/omega)*P(N11 >= l).  Each sweep sorts its layers by
ratio, as integer pairs (num, den), and keeps the integer prefix sums of
that order.  With omega = p/r and mu = m/r over one denominator r, a bound
is then one integer expression over r*D, for example

    r*D * c(p/r, m/r) = r*(E11 - A) + p*(LIFT + G) + m*X + p*(E12 - Y),

read on the pieces its weights sit at: i of the family's omega sweep, the
prefix of layers below omega, and j of the top sweep, those below mu/omega,
a term the a- and b-families leave at zero.  A weight is the integer tuple
(p, m, r, i, j).  Each sweep reduces its kinks once, when its kernel is
built, and keeps them as a tuple: every distinct ratio in [0, 1] with the
count of layers below it, the piece it closes.  The critical weights are
read off those tables with their pieces known, and grid weights find theirs
by one walk over the table per grid line.  bound_a/b/c need no piece: a
term [omega*g(l) - alpha(l)]^+ is positive exactly on the layers below
omega, a prefix of the sweep's order, so the kink sum is the largest of its
prefix sums, omega*G - A over every piece, and the top term the largest
mu*X + omega*(E12 - Y).  A single bound is the largest of its pieces'
affine forms, O(q) integer operations on numbers the size of r*D.  Both
enumerations emit their bounds as BoundRows: the half-plane of each over D,
(r+m, p, r*D*bound) for user 1, meaning (r+m)*R1 + p*R2 <= r*bound, read
off those numerators with no Fraction and no gcd.  The rows carry D once,
as their den, and BoundRows.region hands them to intersect as they are,
with D never multiplied in.  The rows of two consecutive a- or b-family
kinks both lie on the bound piece between them, R1 + omega*R2 <= (const +
omega*slope)/D for user 1, so they cross at its apex (const/D, slope/D);
outer_rows records that apex as the pair's crossing, and intersect takes a
chain vertex between such neighbours from there, not by Cramer's rule.  A
WeightedBound, with its Fraction weights, value and reduced half-plane, is
built only for a row that is read: by active_bounds for the constraints it
reports, or by outer_halfplanes and grid_bounds for every row.

The grid at N steps runs one grid line at a time: the a- and b-families
have one, omega = k/N for k = 0..N, and the c-family one per omega, mu =
j/N for j = 0..k.  BoundKernel.lines builds each line in one pass over the
piece tables: the omega term once per k, then the top term at each mu.
grid_rows lists every grid bound, for the tests and the benchmark's
checks; region --mode grid takes grid_rows(spec, N, prune=True), which
holds three c lines at a time and builds only the rows that are not the
mean of two grid neighbours, tested on the integer values: along the line,
2*v[k][j] != v[k][j-1] + v[k][j+1], along omega, v[k-1][j] and v[k+1][j],
and along the diagonal, v[k-1][j-1] and v[k+1][j+1], wherever both exist
(the a- and b-families' one line runs along omega).  That test reads the
rows' own values, never the kernel's kinks, so the grid stays a
cross-check of the critical weights.  A row's a and b are affine in
(k, j), so a row whose value is the mean of two neighbours' is their
half-sum.  It is then no vertex of the hull of the family's rows, read as
points (a, b, c), so every left-out row is a convex combination of kept
ones: the kept rows carve the same region, and the least kept value is at
most every left-out one, so checking the kept values >= 0 checks them all.
A region of >= 3 vertices satisfies y and z, so a left-out row
x = (y+z)/2 tight along one of its edges makes y and z tight along it
too, and with every c > 0 the three are one half-plane.  In each
direction the earlier neighbour y comes first in (k, j) order, so the
first occurrence of a half-plane, the one active_bounds reports, is never
a left-out row.  A degenerate region (< 3 vertices) reports every row
through a vertex, so none may be left out, and it is read off the spec:
exactly E[N11] = 0 or E[N22] = 0 makes one.
Every user-1 row is at least E[N11]: the a- and c-families add
nonnegative terms to it, and the b-family is at least (1-omega)*E[N11]
for omega < 1 and E[N21] + E[(N11-N21)^+] >= E[N11] at omega = 1.  So
with both means positive every row's c is, and the region has the origin
and two distinct axis points; E[N11] = 0 brings the row 1a at omega = 0,
R1 <= 0, which pins R1.  User 2 mirrors this.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Optional

from .channel import FRAMES, ChannelSpec, as_fraction, layer_coefficients
from .geometry import HalfPlane, RegionPolytope, Row, active_planes, intersect, ratio_order

FAMILIES = ("1a", "1b", "1c", "2a", "2b", "2c")


def _check_user(user):
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")


def _check_family(family):
    if family not in ("a", "b", "c"):
        raise ValueError(f"family must be 'a', 'b' or 'c', got {family!r}")


def _family_tag(user, family) -> str:
    _check_user(user)
    _check_family(family)
    return f"{user}{family}"


def _check_omega(omega) -> Fraction:
    """omega as a Fraction in [0, 1].  Both weight checks compare numerators
    with positive denominators as integers: a Fraction comparison costs
    several times as much."""
    value = as_fraction(omega)
    if not 0 <= value.numerator <= value.denominator:
        raise ValueError(f"omega must lie in [0, 1], got {value}")
    return value


def _check_mu(omega: Fraction, mu) -> Fraction:
    """mu as a Fraction in [0, omega], for an omega that passed _check_omega."""
    if mu is not None:
        value = as_fraction(mu)
        if 0 <= value.numerator * omega.denominator <= omega.numerator * value.denominator:
            return value
    raise ValueError(f"mu must lie in [0, omega], got mu={mu}, omega={omega}")


@dataclass(frozen=True)
class WeightedBound:
    """One evaluated bound: family tag, weights and right-hand side.

    Families 1a/1b induce R1 + omega*R2 <= value, family 1c induces
    (1+mu)*R1 + omega*R2 <= value; the 2-families mirror R1 and R2.
    """

    family: str
    omega: Fraction
    mu: Optional[Fraction]
    value: Fraction

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        omega = _check_omega(self.omega)
        if self.family.endswith("c"):
            _check_mu(omega, self.mu)
        elif self.mu is not None:
            raise ValueError("mu only applies to c-families")
        if self.value.numerator < 0:
            raise ValueError(f"bound value must be nonnegative, got {self.value}")

    def halfplane(self) -> HalfPlane:
        """The bound's reduced half-plane."""
        own, cross = 1 + (self.mu or 0), self.omega
        mirror = self.family[0] == "2"
        return HalfPlane(*((cross, own) if mirror else (own, cross)), self.value)


def _kinks(keys) -> tuple:
    """The kinks inside the weight range of a sweep's sorted keys, ascending,
    as reduced pairs with the index of their first key, (n, d, k): (0, 1, 0),
    each distinct key ratio in (0, 1), then (1, 1).  k counts the keys below
    n/d: the piece of every weight past the previous kink up to n/d."""
    out, last = [(0, 1, 0)], (0, 1)
    for k, (n, d) in enumerate(keys):
        if n >= d:
            break
        if n * last[1] != last[0] * d:  # keys ascend: new iff unequal to the last
            last, g = (n, d), gcd(n, d)
            out.append((n // g, d // g, k))
    else:
        k = len(keys)
    return (*out, (1, 1, k))


class _Sweep:
    """The prefix sums of den and num over the layers with den > 0, sorted
    by num/den, and their kinks (_kinks), reduced once and kept.

    num and den are integer numerators over the kernel's denominator, so a
    key is the pair (num, den) and keys are compared by cross-multiplying.
    """

    __slots__ = ("dens", "nums", "kinks")

    def __init__(self, nums, dens):
        pairs = [(n, d) for n, d in zip(nums, dens) if d > 0]
        keys = [pairs[i] for i in ratio_order(pairs)[0]]
        self.dens, self.nums = [0], [0]
        for n, d in keys:
            self.dens.append(self.dens[-1] + d)
            self.nums.append(self.nums[-1] + n)
        self.kinks = _kinks(keys)


def _walk(sweep: _Sweep, r) -> list:
    """The piece of t/r for t = 0..r, in one pass over the sweep's kinks:
    kink (n, d, k) is the piece of every t <= n*r//d not yet filled, and
    the last kink, (1, 1, k), fills t = r."""
    out = []
    for n, d, k in sweep.kinks:
        out += [k] * (n * r // d + 1 - len(out))
    return out


# the a- and b-families have no top term: one piece, zero
_NO_TOP = ((0, 0),)


class BoundKernel:
    """One user's three bound families as integers over one denominator D.

    For user 2 the links are read in its frame, channel.FRAMES[2].  The sweeps
    are alpha/beta (a-family kinks), alpha/gamma (b- and c-family kinks) and
    P(N12 >= l)/P(N11 >= l) (the c-family top term).  Between two kinks of
    its sweep a bound is affine in omega: with the layers below omega = p/r
    counted by the sweep, r*D times the bound is r*const + p*slope for the
    family's (const, slope) at that count, plus the top term m*own + p*rest
    for the (own, rest) at the count of top keys below mu/omega.  at returns
    integer numerators over r*D; only this module turns them into Fractions.
    """

    __slots__ = ("den", "beta", "gamma", "top", "_pieces")

    def __init__(self, den, t11, t21, t12, clear, cross, alpha, beta, gamma):
        # t11, t21, t12: tails; clear: P(N21 - N11 >= l); cross:
        # max(P(N11 - N21 >= l), P(N12 >= l)); all numerators over den
        e11, e21, e12, lift = sum(t11), sum(t21), sum(t12), sum(clear)
        self.den = den
        self.beta = _Sweep(alpha, beta)
        self.gamma = _Sweep(alpha, gamma)
        self.top = _Sweep(t12, t11)
        b_slope = e21 + sum(cross) - e11
        gamma = list(zip(self.gamma.nums, self.gamma.dens))
        # top term mu*X + omega*(E12 - Y): (X, E12 - Y) per piece
        top = [(x, e12 - y) for x, y in zip(self.top.dens, self.top.nums)]
        self._pieces = {  # (const, slope) per omega piece, then the top pieces
            "a": ([(e11 - n, lift + d) for n, d in zip(self.beta.nums, self.beta.dens)], _NO_TOP),
            "b": ([(e11 - n, b_slope + d) for n, d in gamma], _NO_TOP),
            "c": ([(e11 - n, lift + d) for n, d in gamma], top),
        }

    def at(self, family, weights) -> list:
        """r*D times the family's bound at each weight (p, m, r, i, j), read
        on the pieces i and j it sits at."""
        pieces, top = self._pieces[family]
        return [r * pieces[i][0] + p * (pieces[i][1] + top[j][1]) + m * top[j][0]
                for p, m, r, i, j in weights]

    def lines(self, family, steps):
        """The family's grid lines at r = steps, omega ascending, each a pair
        (weight, values): weight(t) is the weight (p, m, r, i, j) of the
        line's row t, built only when asked for, and values[t] what at gives
        there.  The a- and b-families have one line, omega = t/steps for
        t = 0..steps; the c-family one per k, omega = k/steps and mu =
        t/steps for t = 0..k.  The omega term is read once per k, on the
        piece _walk finds along omega; each c line adds the top term at
        every mu on the piece _walk finds along the line."""
        pieces, top = self._pieces[family]
        i_of = _walk(self.beta if family == "a" else self.gamma, steps)
        if family != "c":
            return [(lambda t: (t, 0, steps, i_of[t], 0),
                     [steps * pieces[i][0] + k * pieces[i][1] for k, i in enumerate(i_of)])]

        def line(k, i):
            base, j_of = steps * pieces[i][0] + k * pieces[i][1], _walk(self.top, k)
            return (lambda t: (k, t, steps, i, j_of[t]),
                    [base + k * top[j][1] + t * top[j][0] for t, j in enumerate(j_of)])

        return map(line, range(steps + 1), i_of)


@lru_cache(maxsize=4096)
def bound_kernel(spec: ChannelSpec, user) -> BoundKernel:
    """The per-(spec, user) tables every bound of that user is evaluated from."""
    _check_user(user)
    co = layer_coefficients(spec)
    ints, (n11, n12, n21, _) = co.ints, FRAMES[user]
    t12 = ints[n12]
    return BoundKernel(co.den, ints[n11], ints[n21], t12, ints[f"{n21}-{n11}"],
                       tuple(map(max, ints[f"{n11}-{n21}"], t12)),
                       *(ints[f"{name}{user}"] for name in ("alpha", "beta", "gamma")))


def _bound(spec: ChannelSpec, user, family, omega: Fraction, mu=0) -> Fraction:
    kernel = bound_kernel(spec, user)
    (p, r), (m, s) = omega.as_integer_ratio(), mu.as_integer_ratio()
    t = lcm(r, s)
    p, m = p * (t // r), m * (t // s)
    pieces, top = kernel._pieces[family]
    value = max(t * c + p * v for c, v in pieces) + max(m * x + p * y for x, y in top)
    return Fraction(value, t * kernel.den)


def bound_a(spec: ChannelSpec, user, omega) -> Fraction:
    """Right-hand side of the a-family bound at weight omega."""
    return _bound(spec, user, "a", _check_omega(omega))


def bound_b(spec: ChannelSpec, user, omega) -> Fraction:
    """Right-hand side of the b-family bound at weight omega."""
    return _bound(spec, user, "b", _check_omega(omega))


def bound_c(spec: ChannelSpec, user, omega, mu) -> Fraction:
    """Right-hand side of the c-family bound at weights (omega, mu), mu <= omega."""
    omega = _check_omega(omega)
    return _bound(spec, user, "c", omega, _check_mu(omega, mu))


def _kink_weights(kernel: BoundKernel, family) -> list:
    """critical_weights as integer tuples (p, m, r, i, j), omega = p/r and
    mu = m/r (m = 0 outside family c), in ascending (omega, mu) order, with
    the pieces the weights sit at, the layers below them: i of the family's
    omega sweep, j of the top sweep (0 outside family c)."""
    if family != "c":
        sweep = kernel.beta if family == "a" else kernel.gamma
        return [(n, 0, d, k, 0) for n, d, k in sweep.kinks]
    # omega kinks as in family b, mu kinks along rays mu = s*omega: all cell
    # corners of that subdivision of {0 <= mu <= omega <= 1} are products of
    # an omega kink with a ray slope, and omega = 0 has the one corner (0, 0)
    # on the first piece of both sweeps
    slopes = kernel.top.kinks
    out = [(0, 0, 1, 0, 0)]
    for p, r, i in kernel.gamma.kinks[1:]:
        out += [(p * d, p * n, r * d, i, j) for n, d, j in slopes]
    return out


def critical_weights(spec: ChannelSpec, user, family):
    """Finite weight set whose half-planes already carve the family's region.

    Families a and b return a sorted tuple of omegas, family c a sorted tuple
    of (omega, mu) pairs.  Between adjacent kinks each bound is affine in its
    weights, so the constraint continuum there is implied by the kink
    constraints; ratio kinks above 1 fall outside the weight range and are
    dropped.
    """
    _family_tag(user, family)
    weights = _kink_weights(bound_kernel(spec, user), family)
    if family == "c":
        return tuple((Fraction(p, r), Fraction(m, r)) for p, m, r, _, _ in weights)
    return tuple(Fraction(p, r) for p, _, r, _, _ in weights)


class BoundRows(Sequence):
    """One spec's bounds as Rows of their half-planes over the kernel's
    denominator D, which region intersects; item i is the WeightedBound of
    row i, built when it is read."""

    __slots__ = ("den", "rows", "crossings", "_tags")

    def __init__(self, spec: ChannelSpec):
        self.den = layer_coefficients(spec).den  # D, each bound kernel's den
        self.rows = []  # Rows (a, b, c), each a*R1 + b*R2 <= c/den
        self.crossings = {}  # (i, j) -> (X, Y): rows i and j meet at (X/den, Y/den)
        self._tags = []  # (family, p, m, r) per row

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i) -> WeightedBound:
        family, p, m, r = self._tags[i]
        mu = Fraction(m, r) if family[1] == "c" else None
        return WeightedBound(family, Fraction(p, r), mu, Fraction(self.rows[i][2], r * self.den))

    def region(self) -> RegionPolytope:
        """The region the rows carve, intersected with their crossings."""
        return intersect(self.rows, self.den, self.crossings)

    def extend(self, tag: str, weights, values):
        """Add family tag's rows at weights (p, m, r, i, j), where omega =
        p/r and mu = m/r, m = 0 outside the c-families, with values r*D
        times the bound there."""
        rows, tags, mirror = self.rows, self._tags, tag[0] == "2"
        for (p, m, r, _, _), value in zip(weights, values):
            # r > 0 makes (a, b) != (0, 0)
            if value < 0 or not 0 <= m <= p <= r:
                raise ValueError(f"bound {tag} at omega={p}/{r}, mu={m}/{r}: needs a value "
                                 f">= 0, got {Fraction(value, r * self.den)}, and "
                                 "0 <= mu <= omega <= 1")
            rows.append(Row((p, r + m, value) if mirror else (r + m, p, value)))
            tags.append((tag, p, m, r))


def outer_rows(spec: ChannelSpec, families=FAMILIES) -> BoundRows:
    """Bounds of the given families at their critical weights, in the
    order given, omega ascending within a family; each bound is read on
    the sweep pieces its kink indexes.  Two consecutive a- or b-family rows
    lie on the piece between their kinks, the later kink's, so they cross
    at its apex (const/D, slope/D), mirrored for user 2; the crossings
    record it under both orders of the pair."""
    out = BoundRows(spec)
    for tag in families:
        if tag not in FAMILIES:
            raise ValueError(f"unknown family {tag!r}")
        kernel = bound_kernel(spec, int(tag[0]))
        weights, first = _kink_weights(kernel, tag[1]), len(out)
        out.extend(tag, weights, kernel.at(tag[1], weights))
        if tag[1] != "c":
            pieces = kernel._pieces[tag[1]][0]
            for t, (_, _, _, i, _) in enumerate(weights[1:], first + 1):
                apex = pieces[i] if tag[0] == "1" else pieces[i][::-1]
                out.crossings[t - 1, t] = out.crossings[t, t - 1] = apex
    return out


def _kept(prev, line, nxt) -> list:
    """The indices t of the rows on a grid line that are not the mean of
    their two neighbours along the line, (t-1, t+1), along omega, prev[t]
    and nxt[t], or along the diagonal, prev[t-1] and nxt[t+1], wherever both
    exist.  prev and nxt are the lines one omega step before and after,
    [] where there is none: a c line k has k+1 rows, so both of its
    neighbours along omega exist for t < k and along the diagonal for t > 0."""
    last = len(line) - 1
    along = [t for t in range(1, last) if 2 * line[t] != line[t - 1] + line[t + 1]]
    kept = [0, *along, last] if last else [0]
    if not nxt:
        return kept
    return [t for t in kept if not (t < len(prev) and 2 * line[t] == prev[t] + nxt[t]
                                    or t and 2 * line[t] == prev[t - 1] + nxt[t + 1])]


def grid_rows(spec: ChannelSpec, steps: int, prune=False) -> BoundRows:
    """Dense-grid fallback: every family at omega = k/steps, mu = j/steps <= omega.

    Every grid bound is listed, the reference of the tests and of the
    benchmark's checks.  With prune, the path `region --mode grid` takes,
    only the rows that are not the mean of two grid neighbours are added,
    three lines at a time (_kept): the same region and active_bounds.  A
    spec with E[N11] = 0 or E[N22] = 0 is never pruned: its region is
    degenerate and reports every row (see the module docstring).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    ints = layer_coefficients(spec).ints
    prune = prune and any(ints["n11"]) and any(ints["n22"])
    out = BoundRows(spec)
    for tag in FAMILIES:
        lines = iter(bound_kernel(spec, int(tag[0])).lines(tag[1], steps))
        prev, (weight, line) = [], next(lines)
        for after in chain(lines, [(None, [])]):
            kept = _kept(prev, line, after[1]) if prune else range(len(line))
            out.extend(tag, map(weight, kept), map(line.__getitem__, kept))
            prev, (weight, line) = line, after
    return out


def family_region(spec: ChannelSpec, user, family) -> RegionPolytope:
    """Region cut out by a single family over all of its weights."""
    return outer_rows(spec, (_family_tag(user, family),)).region()


def outer_halfplanes(spec: ChannelSpec) -> list:
    """All six families' bounds at their critical weights, in family order."""
    return list(outer_rows(spec))


def outer_region(spec: ChannelSpec) -> RegionPolytope:
    """The full outer bound: intersection of every family's half-planes."""
    return outer_rows(spec).region()


def grid_bounds(spec: ChannelSpec, steps: int) -> list:
    """Every grid bound of grid_rows(spec, steps), as WeightedBounds."""
    return list(grid_rows(spec, steps))


def active_bounds(rows: BoundRows, region: RegionPolytope) -> list:
    """Bounds whose half-planes support the region along an edge.

    rows are the BoundRows the region was intersected from, by
    rows.region(); the region records which of them are
    active (active_planes), and only those are read as WeightedBounds.
    Identical half-planes keep only the first occurrence, so the family
    order of the rows decides the reported provenance.  Degenerate regions
    (< 3 vertices) only require tightness at one vertex.  Raises TypeError
    for anything but BoundRows, and ValueError unless the region recorded
    the rows' den and, for each active row, that row.
    """
    if not isinstance(rows, BoundRows):
        raise TypeError(f"active_bounds takes BoundRows, got {type(rows).__name__}")
    den, records = active_planes(region, len(rows))
    if den != rows.den or any(row != tuple(rows.rows[i]) for i, row in records):
        raise ValueError("the region was not intersected from these rows")
    return [rows[i] for i, _ in records]
