"""Exact scalars, dense matrices, tensor-index conventions and check reports.

Everything else in the package builds on the conventions pinned here, once:

* scalars are ``fractions.Fraction`` rationals, always stored reduced with a
  positive denominator.  No floating point exists anywhere.
* every stored zero is the one shared object ``ZERO``.  ``rat_parse`` and
  ``as_scalar`` return ``ZERO`` for any zero, and ``as_scalar`` hands a value
  that already has the scalar type back unchanged, so building a table from
  scalars creates no new ones.  ``Matrix.apply``, ``mat_mul``, ``kron`` and
  ``HomAlgebra.product`` skip an input entry when it ``is ZERO``; a zero made
  by arithmetic is not skipped, only multiplied through, so the skip never
  changes a value.  ``LinearMap.table()`` already returns canonical tables
  (absent entries ``ZERO``, present ones nonzero), so a product table built
  from it is not walked again; ``Matrix.apply`` can leave a cancelled zero
  that is not ``ZERO``, so tables built from it are.
* tensor factors flatten row-major, zero-based and left-associatively:
  ``(i, j) -> i*dimB + j``, extended as ``((i, j), k) -> (i*dimB + j)*dimC + k``
  for three or more factors.
* a matrix ``M`` acts on column coordinate vectors: the linear map it
  represents sends basis element ``e_c`` to ``sum_r M[r, c] e_r``.
* every structure map (mu, Delta, alpha, R, T, actions, coactions, flips) is
  a ``LinearMap`` between tensor products, and ``apply_at`` is the one place
  that applies such a map to a run of factors; an axiom is a pair of paths of
  ``(map, position)`` checked per basis tuple by ``scan_composites``.  The
  exception is Hom-associativity and associativity of one algebra, which
  ``algebra.check_hom_algebra`` and ``algebra.check_associative`` scan on
  sparse columns tabulated once per call; ``HomAlgebra.product`` and
  ``Matrix.apply`` form those tables and the d^2 multiplicativity scans.
* a precondition is a check whose report must pass; ``CheckReport.require`` is
  the one place that turns a failed report into an exception.  A composite
  constructor checks each fact once per call: it skips a scan only when the
  same checker already passed on the very same objects (``is``) earlier in
  the same call, and builds through private builders that check nothing.
  No verified fact is cached across calls (``uqsl2`` memoizes pure values only).
"""

import re
from dataclasses import dataclass
from fractions import Fraction as Q
import itertools

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
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        num = int(num)
        return Q(num, int(den)) if num else ZERO
    num = int(text)
    return Q(num) if num else ZERO


def rat_str(x):
    """Inverse of rat_parse: ``p/q`` reduced, or a bare integer."""
    return str(x)


def as_scalar(x):
    """Coerce ints, backend rationals or literal strings to the scalar type.

    A value of the scalar type comes back unchanged, and every zero as ``ZERO``.
    """
    if x is ZERO:
        return x
    if type(x) is not Q:
        if isinstance(x, str):
            return rat_parse(x)
        x = Q(x)
    return x if x else ZERO


def as_constants(table, shape, message):
    """A nested table of structure constants as tuples of scalars.

    The table must nest as ``shape`` (three dims); otherwise DimensionMismatch
    with `message`.
    """
    table = tuple(tuple(tuple(map(as_scalar, row)) for row in plane) for plane in table)
    d0, d1, d2 = shape
    if len(table) != d0 or any(
        len(plane) != d1 or any(len(row) != d2 for row in plane) for plane in table
    ):
        raise DimensionMismatch(message)
    return table


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
# dense exact matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data", "_coldata", "_sparse")

    def __init__(self, data):
        data = tuple(tuple(map(as_scalar, row)) for row in data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows in matrix literal")
        self.data = data
        self._coldata = None
        self._sparse = None

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows, cols):
        return cls(tuple((ZERO,) * cols for _ in range(rows)))

    @classmethod
    def from_columns(cls, columns):
        rows = len(columns[0]) if columns else 0
        return cls(tuple(tuple(col[r] for col in columns) for r in range(rows)))

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def row(self, r):
        return self.data[r]

    def col(self, c):
        if self._coldata is None:
            self._coldata = tuple(
                tuple(self.data[r][j] for r in range(self.rows)) for j in range(self.cols)
            )
        return self._coldata[c]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.data]})"

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        return NotImplemented

    def transpose(self):
        return Matrix(tuple(self.col(c) for c in range(self.cols)))

    def is_identity(self):
        return self.rows == self.cols and all(
            self.data[r][c] == (ONE if r == c else ZERO)
            for r in range(self.rows)
            for c in range(self.cols)
        )

    def apply(self, vec):
        """Apply to a column coordinate vector; skips input entries that are ZERO."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vec)} vs {self.cols} columns")
        if self._sparse is None:
            self._sparse = tuple(_nonzero(self.col(c)) for c in range(self.cols))
        out = [ZERO] * self.rows
        for xc, col in zip(vec, self._sparse):
            if xc is ZERO:
                continue
            for r, m in col:
                out[r] = out[r] + m * xc
        return out


def mat_mul(a, b):
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for r in range(a.rows):
        arow = a.data[r]
        orow = [ZERO] * b.cols
        for k, ak in enumerate(arow):
            if ak is ZERO:
                continue
            brow = b.data[k]
            for c, bk in enumerate(brow):
                if bk is not ZERO:
                    orow[c] = orow[c] + ak * bk
        out.append(tuple(orow))
    return Matrix(out)


def mat_inv(a):
    """Exact inverse by Gauss-Jordan elimination; NotInvertible on rank deficiency."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"cannot invert non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    m = [list(a.data[r]) + [ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise NotInvertible(f"exact rank deficiency at column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        inv_p = ONE / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return Matrix(tuple(tuple(m[r][n:]) for r in range(n)))


def kron(a, b):
    """Kronecker product consistent with flatten_index: out[(i,j),(p,q)] = a[i,p]*b[j,q]."""
    out = []
    for i in range(a.rows):
        for j in range(b.rows):
            row = []
            arow = a.data[i]
            brow = b.data[j]
            for p in range(a.cols):
                ap = arow[p]
                if ap is not ZERO:
                    row.extend(ap * bq for bq in brow)
                else:
                    row.extend((ZERO,) * b.cols)
            out.append(tuple(row))
    return Matrix(out)


# ---------------------------------------------------------------------------
# vectors (plain lists of scalars)
# ---------------------------------------------------------------------------


def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


# ---------------------------------------------------------------------------
# sparse linear maps between tensor products, and composites of them
# ---------------------------------------------------------------------------


def _size(dims):
    n = 1
    for d in dims:
        n *= d
    return n


def _nonzero(vec):
    return tuple((r, c) for r, c in enumerate(vec) if c is not ZERO and c)


class LinearMap:
    """A linear map from a tensor product of factors to another, by sparse columns.

    ``src`` and ``dst`` are the factor dims.  ``cols[c]`` holds the nonzero
    ``(r, coefficient)`` pairs of the image of source basis element ``c``; both
    indices are flattened by the module convention.
    """

    __slots__ = ("src", "dst", "cols")

    def __init__(self, src, dst, cols):
        self.src = tuple(src)
        self.dst = tuple(dst)
        self.cols = tuple(cols)
        if len(self.cols) != _size(self.src):
            raise DimensionMismatch(f"{len(self.cols)} columns for source dims {self.src}")

    @classmethod
    def from_matrix(cls, m, src=None, dst=None):
        """The map of a matrix, read as acting between the given factor dims."""
        src = (m.cols,) if src is None else src
        dst = (m.rows,) if dst is None else dst
        if _size(src) != m.cols or _size(dst) != m.rows:
            raise DimensionMismatch(f"{m.rows}x{m.cols} matrix does not map {src} to {dst}")
        return cls(src, dst, (_nonzero(m.col(c)) for c in range(m.cols)))

    @classmethod
    def from_constants(cls, table, src, dst):
        """Structure constants nested source factors first, then target factors.

        ``mul[i][j][k]`` is a map (d, d) -> (d,), ``comul[i][j][k]`` a map
        (d,) -> (d, d); action and coaction tables read the same way.
        """
        flat = table
        for _ in range(len(src) + len(dst) - 1):
            flat = [x for part in flat for x in part]
        n = _size(dst)
        if len(flat) != _size(src) * n:
            raise DimensionMismatch(f"constants are not shaped {tuple(src) + tuple(dst)}")
        return cls(src, dst, (_nonzero(flat[c * n:(c + 1) * n]) for c in range(_size(src))))

    @classmethod
    def product(cls, mul):
        d = len(mul)
        return cls.from_constants(mul, (d, d), (d,))

    @classmethod
    def coproduct(cls, comul):
        d = len(comul)
        return cls.from_constants(comul, (d,), (d, d))

    @classmethod
    def flip(cls, d1, d2):
        """u (x) v -> v (x) u for u, v in factors of dims d1, d2."""
        return cls((d1, d2), (d2, d1), (((j * d1 + i, ONE),) for i in range(d1) for j in range(d2)))

    def reshaped(self, src, dst):
        """The same map with its source and target regrouped into other factors."""
        if _size(src) != _size(self.src) or _size(dst) != _size(self.dst):
            raise DimensionMismatch(f"cannot regroup {self.src} -> {self.dst} as {src} -> {dst}")
        return LinearMap(src, dst, self.cols)

    def matrix(self):
        return Matrix.from_columns([to_dense(dict(col), self.dst) for col in self.cols])

    def table(self):
        """Dense constants nested source factors first, then target factors."""
        nested = [tuple(to_dense(dict(col), self.dst)) for col in self.cols]
        for d in reversed(self.dst[1:]):
            nested = [tuple(v[i:i + d] for i in range(0, len(v), d)) for v in nested]
        for d in reversed(self.src[1:]):
            nested = [tuple(nested[i:i + d]) for i in range(0, len(nested), d)]
        return tuple(nested)


def to_sparse(vec):
    """A dense coordinate vector as a sparse tensor {flat index: coefficient}."""
    return dict(_nonzero(vec))


def to_dense(x, dims):
    out = [ZERO] * _size(dims)
    for i, c in x.items():
        out[i] = c
    return out


def apply_at(lmap, x, dims, pos):
    """Apply `lmap` to factors pos, pos+1, ... of the sparse tensor `x` over `dims`.

    The factors before the run and after it pass through unchanged; the
    result lives over ``dims[:pos] + lmap.dst + dims[pos + len(lmap.src):]``.
    """
    end = pos + len(lmap.src)
    if tuple(dims[pos:end]) != lmap.src:
        raise DimensionMismatch(f"factors {pos}..{end - 1} of {tuple(dims)} are not {lmap.src}")
    right = _size(dims[end:])
    block_in = _size(lmap.src) * right
    block_out = _size(lmap.dst) * right
    cols = lmap.cols
    out = {}
    for idx, v in x.items():
        outer, rest = divmod(idx, block_in)
        mid, rest = divmod(rest, right)
        base = outer * block_out + rest
        for t, w in cols[mid]:
            o = base + t * right
            out[o] = out[o] + v * w if o in out else v * w
    return out


def apply_path(path, x, dims):
    """Apply each ``(map, position)`` of `path` in turn; returns (tensor, dims)."""
    dims = tuple(dims)
    for lmap, pos in path:
        x = apply_at(lmap, x, dims, pos)
        dims = dims[:pos] + lmap.dst + dims[pos + len(lmap.src):]
    return x, dims


def compose(path, dims):
    """The composite of `path` on tensors over `dims`, tabulated as a LinearMap."""
    cols, out_dims = [], tuple(dims)
    for c in range(_size(dims)):
        y, out_dims = apply_path(path, {c: ONE}, dims)
        cols.append(tuple((r, v) for r, v in y.items() if v))
    return LinearMap(dims, out_dims, cols)


def scan_composites(blocks, scan=None):
    """Check equations between composites on every basis tuple.

    `blocks` is a sequence of ``(dims, equations)``, each equation a triple
    ``(name, lhs path, rhs path)``.  Within a block the basis tuples over
    `dims` run in lexicographic order and, for each tuple, the equations in
    the order given.  Returns the report of `scan` (a fresh Scan by default).
    """
    scan = Scan() if scan is None else scan
    for dims, equations in blocks:
        dims = tuple(dims)
        for flat, basis in enumerate(itertools.product(*(range(d) for d in dims))):
            x = {flat: ONE}
            for name, lhs, rhs in equations:
                scan.eq(name, basis, to_dense(*apply_path(lhs, x, dims)),
                        to_dense(*apply_path(rhs, x, dims)))
    return scan.done()


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
    """Accumulator for axiom scans; records at most `cap` witnesses.

    `passed` always reflects the full scan; the cap only bounds the recorded
    witness list.  Pass cap explicitly or rebind DEFAULT_FAILURE_CAP.
    """

    def __init__(self, cap=None):
        self.cap = DEFAULT_FAILURE_CAP if cap is None else cap
        self.passed = True
        self.failures = []

    def eq(self, equation, basis, lhs, rhs):
        if list(lhs) != list(rhs):
            self.passed = False
            if len(self.failures) < self.cap:
                self.failures.append(Failure(equation, tuple(basis), tuple(lhs), tuple(rhs)))

    def absorb(self, prefix, report):
        if not report.passed:
            self.passed = False
            for f in report.failures:
                if len(self.failures) >= self.cap:
                    break
                eq = f"{prefix}:{f.equation}" if prefix else f.equation
                self.failures.append(Failure(eq, f.basis, f.lhs, f.rhs))

    def done(self):
        return CheckReport(self.passed, tuple(self.failures))
