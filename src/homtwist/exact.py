"""Exact scalars, linear maps, tensor-index conventions and check reports.

Everything else in the package builds on the conventions pinned here, once:

* scalars are ``fractions.Fraction`` rationals, always stored reduced with a
  positive denominator.  No floating point exists anywhere: ``as_scalar``
  rejects a float with ``MalformedRational`` rather than read its binary
  expansion.
* every stored zero is the one shared object ``ZERO``, and every one read
  from a literal or an int is the shared ``ONE``.  ``rat_parse`` and
  ``as_scalar`` return ``ZERO`` for any zero and ``ONE`` for such a one, and
  ``as_scalar`` hands a value that already has the scalar type back
  unchanged (a zero as ``ZERO``), so building a table from scalars creates
  no new ones.  ``Matrix.apply`` and ``HomAlgebra.product`` skip an input
  entry when it ``is ZERO``; a zero made by arithmetic is multiplied
  through, so the shortcut changes no value.  A ``LinearMap`` stores no
  zero coefficient, and its dense views ``matrix()`` and ``table()`` fill
  the absent entries with ``ZERO``.
* tensor factors flatten row-major, zero-based and left-associatively:
  ``(i, j) -> i*dimB + j``, extended as ``((i, j), k) -> (i*dimB + j)*dimC + k``
  for three or more factors.
* a matrix ``M`` acts on column coordinate vectors: the linear map it
  represents sends basis element ``e_c`` to ``sum_r M[r, c] e_r``.
* every structure map (mu, Delta, alpha, R, T, actions, coactions, flips) is
  stored as a ``LinearMap`` between tensor products.  An axiom is a pair of
  paths of ``(map, position)`` checked per basis tuple by
  ``scan_composites``; every alpha-compatibility, (a_0 (x) ...) o f =
  f o (b_0 (x) ...), is the one block that ``intertwining`` builds.  A
  derived map (a product table, a lifted map, a composite of two maps, the
  Kronecker product ``kron``) is such a path tabulated by ``compose`` and
  stored as it comes.  ``mat_inv`` and ``kron`` take and return
  ``LinearMap``s.  Nested input is read once, at the boundary: rows by
  ``LinearMap.from_rows`` (in the manifest and the gallery), and structure
  constants by ``LinearMap.from_constants``, which checks their nesting and
  reads each scalar (in ``hom_algebra``, ``hom_coalgebra``, ``action_table``
  and ``coaction_table``).  Both read each entry with ``as_scalar``.  Dense views
  exist only to be read: ``LinearMap.matrix()``, the one maker of a
  ``Matrix``, and ``LinearMap.table()`` behind the ``mul``, ``comul`` and
  ``table`` properties of algebras, coalgebras, actions and coactions.  The
  one dense scan is in ``algebra``: multiplicativity f(e_i e_j) =
  f(e_i) f(e_j), which reads f through ``matrix()`` and is the only caller
  of ``Matrix.apply`` and ``HomAlgebra.product``.
* the tensor kernel computes in ints.  ``LinearMap.integer_form()`` is a
  map's columns times the lcm ``den`` of its denominators, made once per map
  and kept.  ``apply_at`` is the one place that applies a map to a run of
  factors, of a run of integer sparse tensors at once, and a path carries
  the product of its maps' denominators.  ``compose``, ``tabulate`` and
  ``scan_composites`` feed the basis in runs of contiguous flat indices,
  each run the basis of the shortest trailing product of factors that holds
  at least sqrt(N) of the N basis tensors.  ``scan_composites`` compares two
  sides directly when their denominators are equal and cross-multiplied
  when not.  Rationals come back only at the boundary, through
  ``rationals``: ``compose`` stores reduced ``Fraction`` entries, no zero
  and a one as ``ONE``, and a failing instance reaches the ``Scan`` as
  dense ``Fraction`` vectors, so every report reads as over Q.
  (Hom-)associativity, x_i (e_j e_k) = (e_i e_j) z_k, is the kernel's one
  scan that is not declared as paths: ``scan_associator`` combines the
  integer columns of mu and of x_i e_l, e_l z_k, tabulated once per call,
  with x = z = alpha or with no alpha step.
* a precondition is a check whose report must pass; ``CheckReport.require`` is
  the one place that turns a failed report into an exception.  A composite
  constructor calls the public checked constructors it is built from, checks
  inline nothing that they require on equal arguments, and calls a private
  builder (which checks nothing) only directly after it has verified that
  builder's inputs itself.  No object identity is tracked and no verified
  fact is cached (``uqsl2`` memoizes pure values only).
"""

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import (
    DimensionMismatch,
    MalformedRational,
    NotInvertible,
    PreconditionFailure,
    ZeroDenominator,
)

BACKEND = "fraction"

ZERO = Q(0)
ONE = Q(1)

_RAT_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


def rat_parse(text):
    """Parse the scalar literal syntax ``-?digits(/digits)?`` into a reduced rational."""
    if not isinstance(text, str) or _RAT_RE.match(text) is None:
        raise MalformedRational(f"not a rational literal: {text!r}")
    if "/" not in text:
        num = int(text)
        return ZERO if not num else ONE if num == 1 else Q(num)
    num, den = map(int, text.split("/"))
    if not den:
        raise ZeroDenominator(f"zero denominator in {text!r}")
    return ZERO if not num else ONE if num == den else Q(num, den)


def as_scalar(x):
    """Coerce ints, backend rationals or literal strings to the scalar type.

    A value of the scalar type comes back unchanged, every zero as ``ZERO``
    and any other one as ``ONE``; a float is rejected.
    """
    if type(x) is Q:
        return x if x is ZERO or x else ZERO
    if isinstance(x, str):
        return rat_parse(x)
    if isinstance(x, float):
        raise MalformedRational(f"not an exact scalar: {x!r}")
    x = Q(x)
    return ZERO if not x else ONE if x == 1 else x


# ---------------------------------------------------------------------------
# tensor index flattening
# ---------------------------------------------------------------------------


def flatten_index(dims, multi):
    """Row-major, left-associative flattening of a multi-index."""
    if len(dims) != len(multi):
        raise DimensionMismatch(f"index {multi} does not match dims {dims}")
    flat = 0
    for d, i in zip(dims, multi):
        if not 0 <= i < d:
            raise DimensionMismatch(f"index {multi} out of range for dims {dims}")
        flat = flat * d + i
    return flat


def unflatten_index(dims, flat):
    """Inverse of flatten_index."""
    total = 1
    for d in dims:
        total *= d
    if not 0 <= flat < total:
        raise DimensionMismatch(f"flat index {flat} out of range for dims {dims}")
    out = []
    for d in reversed(dims):
        flat, r = divmod(flat, d)
        out.append(r)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# the dense view of a linear map
# ---------------------------------------------------------------------------


class Matrix:
    """The dense view of a LinearMap, made by ``LinearMap.matrix()``; ``data`` holds its rows."""

    __slots__ = ("rows", "cols", "data", "_columns", "_sparse")

    def __init__(self, lmap):
        self.rows, self.cols = lmap.shape
        self._sparse = lmap.cols
        self._columns = tuple(tuple(to_dense(dict(col), lmap.dst)) for col in lmap.cols)
        self.data = tuple(tuple(column[r] for column in self._columns) for r in range(self.rows))

    def col(self, c):
        return self._columns[c]

    def apply(self, vec):
        """Apply to a column coordinate vector; skips input entries that are ZERO."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vec)} vs {self.cols} columns")
        out = [ZERO] * self.rows
        for xc, col in zip(vec, self._sparse):
            if xc is ZERO:
                continue
            for r, m in col:
                out[r] = out[r] + m * xc
        return out


# ---------------------------------------------------------------------------
# sparse linear maps between tensor products, and composites of them
# ---------------------------------------------------------------------------


_size = math.prod


def _nonzero(vec):
    return tuple((r, c) for r, c in enumerate(vec) if c is not ZERO and c)


class LinearMap:
    """A linear map from a tensor product of factors to another, by sparse columns.

    ``src`` and ``dst`` are the factor dims.  ``cols[c]`` holds the nonzero
    ``(r, coefficient)`` pairs of the image of source basis element ``c``; both
    indices are flattened by the module convention.  Two maps are equal when
    they map between the same factors with the same coefficients, in whatever
    order each column lists its pairs.
    """

    __slots__ = ("src", "dst", "cols", "_integer")

    def __init__(self, src, dst, cols):
        self.src = tuple(src)
        self.dst = tuple(dst)
        self.cols = tuple(cols)
        self._integer = None
        if len(self.cols) != _size(self.src):
            raise DimensionMismatch(f"{len(self.cols)} columns for source dims {self.src}")

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.src, self.dst) == (other.src, other.dst) and all(
            a == b or dict(a) == dict(b) for a, b in zip(self.cols, other.cols)
        )

    def __hash__(self):
        return hash((self.src, self.dst, tuple(frozenset(col) for col in self.cols)))

    def integer_form(self):
        """(den, cols): ``den`` is the lcm of the coefficients' denominators and
        ``cols[c]`` the nonzero ``(r, den * coefficient)`` pairs of ``self.cols[c]``,
        as ints.  Made on first call and kept; equal columns share one tuple, which
        keeps the form of a 0/1 map small."""
        if self._integer is None:
            den = math.lcm(1, *{v.denominator for col in self.cols for _, v in col})
            shared = {}
            self._integer = den, tuple(
                shared.setdefault(col, col) for col in (
                    tuple((r, v.numerator * (den // v.denominator)) for r, v in col if v)
                    for col in self.cols
                )
            )
        return self._integer

    @property
    def shape(self):
        """(rows, columns) of the map's matrix."""
        return _size(self.dst), _size(self.src)

    @classmethod
    def from_rows(cls, rows, cols=0):
        """The map of a matrix by its rows, read by ``as_scalar``; `cols` sizes one with no rows."""
        rows = [tuple(map(as_scalar, row)) for row in rows]
        cols = len(rows[0]) if rows else cols
        if any(len(row) != cols for row in rows):
            raise DimensionMismatch("ragged rows in matrix literal")
        return cls((cols,), (len(rows),), (_nonzero(row[c] for row in rows) for c in range(cols)))

    @classmethod
    def from_constants(cls, table, src, dst, message):
        """Structure constants nested source factors first, then target factors.

        ``mul[i][j][k]`` is a map (d, d) -> (d,), ``comul[i][j][k]`` a map
        (d,) -> (d, d); action and coaction tables read the same way.  A table
        that does not nest as ``src + dst`` raises DimensionMismatch(message).
        """
        flat = [table]
        for d in tuple(src) + tuple(dst):
            if any(len(part) != d for part in flat):
                raise DimensionMismatch(message)
            flat = [x for part in flat for x in part]
        n = _size(dst)
        cols = (_nonzero(map(as_scalar, flat[c * n:(c + 1) * n])) for c in range(_size(src)))
        return cls(src, dst, cols)

    @classmethod
    def identity(cls, d):
        return cls((d,), (d,), (((c, ONE),) for c in range(d)))

    def is_identity(self):
        rows, cols = self.shape
        return rows == cols and all(col == ((c, ONE),) for c, col in enumerate(self.cols))

    @classmethod
    def flip(cls, d1, d2):
        """u (x) v -> v (x) u for u, v in factors of dims d1, d2."""
        return cls((d1, d2), (d2, d1), (((j * d1 + i, ONE),) for i in range(d1) for j in range(d2)))

    def reshaped(self, src, dst):
        """The same map with its source and target regrouped into other factors."""
        if _size(src) != _size(self.src) or _size(dst) != _size(self.dst):
            raise DimensionMismatch(f"cannot regroup {self.src} -> {self.dst} as {src} -> {dst}")
        regrouped = LinearMap(src, dst, self.cols)
        regrouped._integer = self._integer
        return regrouped

    def matrix(self):
        """The dense view, of the map's shape even when it has no rows."""
        return Matrix(self)

    def table(self):
        """Dense constants nested source factors first, then target factors."""
        columns = [_nested(to_dense(dict(col), self.dst), self.dst) for col in self.cols]
        return _nested(columns, self.src)


def mat_inv(f):
    """Exact inverse by Gauss-Jordan elimination; NotInvertible on rank deficiency."""
    n, cols = f.shape
    if n != cols:
        raise DimensionMismatch(f"cannot invert non-square {n}x{cols} matrix")
    m = [[ZERO] * n + [ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for c, col in enumerate(f.cols):
        for r, v in col:
            m[r][c] = v
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise NotInvertible(f"exact rank deficiency at column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        inv_p = ONE / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f_r = m[r][col]
                m[r] = [x - f_r * y for x, y in zip(m[r], m[col])]
    return LinearMap(f.dst, f.src, (_nonzero([m[r][n + c] for r in range(n)]) for c in range(n)))


def kron(f, g):
    """f (x) g between single factors: the path of f on its factors, then g on the next ones."""
    path = [(f, 0), (g, len(f.dst))]
    return compose(path, f.src + g.src).reshaped((_size(f.src + g.src),), (_size(f.dst + g.dst),))


def _nested(items, dims):
    """A flat row-major sequence over `dims` as nested tuples; factors may have dim 0."""
    for k in range(len(dims) - 1, 0, -1):
        d = dims[k]
        items = [tuple(items[i * d:(i + 1) * d]) for i in range(_size(dims[:k]))]
    return tuple(items)


def to_dense(x, dims):
    out = [ZERO] * _size(dims)
    for i, c in x.items():
        out[i] = c
    return out


def rationals(image, den):
    """The nonzero entries of the integer image `image` over `den`, as reduced rationals.

    The one place the kernel turns integers back into scalars: a dict in the
    image's order, a one as the shared ``ONE``.
    """
    return {r: ONE if v == den else Q(v, den) for r, v in image.items() if v}


def apply_at(lmap, xs, dims, pos):
    """Apply `lmap` to factors pos, pos+1, ... of each integer sparse tensor in `xs` over `dims`.

    Reads the map's integer form ``(den, cols)``, so each image is ``den`` times
    the image under `lmap`.  The images come in order, the factors before the
    run and after it unchanged, over ``dims[:pos] + lmap.dst + dims[pos + len(lmap.src):]``;
    a sum that cancels keeps its zero.
    """
    end = pos + len(lmap.src)
    if tuple(dims[pos:end]) != lmap.src:
        raise DimensionMismatch(f"factors {pos}..{end - 1} of {tuple(dims)} are not {lmap.src}")
    right = _size(dims[end:])
    block_in = _size(lmap.src) * right
    block_out = _size(lmap.dst) * right
    cols = lmap.integer_form()[1]
    images = []
    for x in xs:
        out = {}
        for idx, v in x.items():
            outer, rest = divmod(idx, block_in)
            mid, rest = divmod(rest, right)
            base = outer * block_out + rest
            for t, w in cols[mid]:
                o = base + t * right
                out[o] = out[o] + v * w if o in out else v * w
        images.append(out)
    return images


def apply_path(path, xs, dims):
    """Apply each ``(map, position)`` of `path` in turn to the integer run `xs`.

    Returns (images, dims, den): each image is ``den``, the product of the
    maps' denominators, times the image under the path.
    """
    dims = tuple(dims)
    den = 1
    for lmap, pos in path:
        xs = apply_at(lmap, xs, dims, pos)
        dims = dims[:pos] + lmap.dst + dims[pos + len(lmap.src):]
        den *= lmap.integer_form()[0]
    return xs, dims, den


def _runs(dims):
    """The basis tensors over `dims` in contiguous runs, each the basis of the shortest trailing
    product of factors that holds at least sqrt(N) of the N tensors; with no basis, one empty
    run, so a path still meets `dims`."""
    n, run = _size(dims), 1
    for d in reversed(dims):
        if run * run >= n:
            break
        run *= d
    if not n:
        yield []
    for start in range(0, n, run):
        yield [{c: 1} for c in range(start, start + run)]


def tabulate(path, dims):
    """The path's integer images of the basis over `dims`, without zeros.

    Returns (images, target dims, den)."""
    images = []
    for xs in _runs(dims):
        ys, out_dims, den = apply_path(path, xs, dims)
        images.extend({r: v for r, v in y.items() if v} for y in ys)
    return images, out_dims, den


def compose(path, dims):
    """The composite of `path` on tensors over `dims`, tabulated as a LinearMap."""
    images, out_dims, den = tabulate(path, dims)
    return LinearMap(dims, out_dims, [tuple(rationals(y, den).items()) for y in images])


def _agree(a, b, ma, mb):
    """Is a * ma == b * mb, for integer images `a` and `b` that may hold zeros?"""
    if ma == mb and a == b:
        return True
    return {r: v * ma for r, v in a.items() if v} == {r: v * mb for r, v in b.items() if v}


def scan_composites(blocks, scan=None):
    """Check equations between composites on every basis tuple.

    `blocks` is a sequence of ``(dims, equations)``, each equation a triple
    ``(name, lhs path, rhs path)``.  Both sides of every equation are
    tabulated in integers on one run of `_runs` at a time, then compared per
    basis tuple in lexicographic order and, for each tuple, per equation in
    the order given: directly when the two denominators are equal, else
    cross-multiplied.  An equal pair reaches `scan` as two empty tuples, an
    unequal one as dense rational vectors.  Returns the report of `scan` (a
    fresh Scan by default).
    """
    scan = Scan() if scan is None else scan
    eq = scan.eq
    for dims, equations in blocks:
        dims = tuple(dims)
        basis = itertools.product(*(range(d) for d in dims))
        for xs in _runs(dims):
            sides = []
            for name, lhs, rhs in equations:
                ls, l_dims, l_den = apply_path(lhs, xs, dims)
                rs, r_dims, r_den = apply_path(rhs, xs, dims)
                g = math.gcd(l_den, r_den)
                # sides over spaces of different sizes never agree
                scales = (r_den // g, l_den // g) if _size(l_dims) == _size(r_dims) else None
                sides.append((name, ls, rs, scales, l_dims, l_den, r_dims, r_den))
            for k, b in enumerate(itertools.islice(basis, len(xs))):
                for name, ls, rs, scales, l_dims, l_den, r_dims, r_den in sides:
                    if scales is not None and _agree(ls[k], rs[k], *scales):
                        eq(name, b, (), ())
                    else:
                        eq(name, b, to_dense(rationals(ls[k], l_den), l_dims),
                           to_dense(rationals(rs[k], r_den), r_dims))
    return scan.done()


def intertwining(name, f, before, after):
    """The block of (after_0 (x) after_1 ...) o f = f o (before_0 (x) before_1 ...).

    `before` holds one map per factor of f's source and `after` one per factor
    of its target; the block scans the basis of f's source.
    """
    return (f.src, [(
        name,
        [(f, 0)] + [(a, p) for p, a in enumerate(after)],
        [(b, p) for p, b in enumerate(before)] + [(f, 0)],
    )])


def scan_associator(name, mu, alpha=None, scan=None, swapped=False):
    """Scan x_i (e_j e_k) = (e_i e_j) z_k on every basis triple (i, j, k) of `mu`, in order.

    x_i and z_k are alpha(e_i) and alpha(e_k), or e_i and e_k with no `alpha`.
    The products x_i e_l and e_l z_k are tabulated once in integers, and both
    sides are their combinations by the integer constants of e_j e_k and
    e_i e_j, over one denominator.  An equal pair reaches `scan` as two empty
    tuples and an unequal one as dense rational vectors, x_i (e_j e_k) first
    unless `swapped`.  Returns the report of `scan` (a fresh Scan by default).
    """
    # not a scan_composites declaration: every such form ran 2x-7x slower on a dim-36 product
    scan = Scan() if scan is None else scan
    eq = scan.eq
    (d,), (mu_den, cols) = mu.dst, mu.integer_form()
    if alpha is None:
        left = right = [dict(col) for col in cols]
        den = mu_den * mu_den
    else:
        # both paths read alpha and mu once, so the two tables share their denominator
        left, _, den = tabulate([(alpha, 0), (mu, 0)], (d, d))
        right = tabulate([(alpha, 1), (mu, 0)], (d, d))[0]
        den *= mu_den
    right = [right[k::d] for k in range(d)]
    for i in range(d):
        x = left[i * d:(i + 1) * d]
        for j in range(d):
            ij = cols[i * d + j]
            row = j * d
            for k in range(d):
                jk = cols[row + k]
                # both sides are 0 when e_i e_j and e_j e_k are
                if ij or jk:
                    a, b = _combination(jk, x), _combination(ij, right[k])
                    if a != b:
                        a, b = to_dense(rationals(a, den), (d,)), to_dense(rationals(b, den), (d,))
                        eq(name, (i, j, k), *((b, a) if swapped else (a, b)))
                        continue
                eq(name, (i, j, k), (), ())
    return scan.done()


def _combination(terms, columns):
    """The sum of c * columns[l] over the (l, c) of `terms`, as an integer dict without zeros."""
    if not terms:
        return {}
    if len(terms) == 1:
        (l, c), = terms
        column = columns[l]
        return column if c == 1 else {r: c * v for r, v in column.items()}
    out = {}
    for l, c in terms:
        for r, v in columns[l].items():
            out[r] = out[r] + c * v if r in out else c * v
    return {r: v for r, v in out.items() if v}


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    """One failed equation instance: which identity, at which basis tuple."""

    equation: str
    basis: tuple
    lhs: tuple
    rhs: tuple

    def __str__(self):
        lhs = "[" + ", ".join(str(x) for x in self.lhs) + "]"
        rhs = "[" + ", ".join(str(x) for x in self.rhs) + "]"
        return f"{self.equation} at {self.basis}: lhs={lhs} rhs={rhs}"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive axiom scan.

    `passed` reflects the full scan even when the recorded failure list was
    capped.  Failures appear in scan (lexicographic) order.
    """

    passed: bool
    failures: tuple = ()

    def __bool__(self):
        return self.passed

    def require(self, cause, error=None):
        """This report if it passed; otherwise raise.

        The exception is ``PreconditionFailure(cause, report=self)``, or
        ``error(f"{cause}; witness {basis}", witness=basis)`` at the first
        failure when an error type is given.
        """
        if self.passed:
            return self
        if error is None:
            raise PreconditionFailure(cause, report=self)
        basis = self.failures[0].basis
        raise error(f"{cause}; witness {basis}", witness=basis)


DEFAULT_FAILURE_CAP = 16


class Scan:
    """Accumulator for axiom scans; records at most DEFAULT_FAILURE_CAP witnesses.

    `passed` always reflects the full scan; the cap only bounds the recorded
    witness list.  Rebind DEFAULT_FAILURE_CAP to record more or fewer.
    """

    def __init__(self):
        self.passed = True
        self.failures = []

    def eq(self, equation, basis, lhs, rhs):
        if lhs != rhs and list(lhs) != list(rhs):
            self.passed = False
            if len(self.failures) < DEFAULT_FAILURE_CAP:
                self.failures.append(Failure(equation, tuple(basis), tuple(lhs), tuple(rhs)))

    def absorb(self, prefix, report):
        if not report.passed:
            self.passed = False
            room = DEFAULT_FAILURE_CAP - len(self.failures)
            for f in report.failures[:room]:
                self.failures.append(Failure(f"{prefix}:{f.equation}", f.basis, f.lhs, f.rhs))

    def done(self):
        return CheckReport(self.passed, tuple(self.failures))
