"""Exact linear algebra over the rationals.

The kernel everything else builds on: immutable matrices with
``fractions.Fraction`` entries, symmetric bilinear forms, characteristic
polynomials, nilpotent exponentials, and the integer lattice routines
(Hermite reduction, integral solvability) needed for crystallographic
computations. All arithmetic is exact; ``==`` always means mathematical
equality and no operation introduces rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, InvariantViolation, NotNilpotent

#: Exact rationals. ``Fraction`` keeps gcd-reduced numerators and positive
#: denominators, which is exactly the normal form required here.
Rational = Fraction

Scalar = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(value: Scalar) -> Fraction:
    """Coerce an int, Fraction, or string like ``"3/4"`` to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


Vector = tuple[Fraction, ...]


def vec(entries: Iterable[Scalar]) -> Vector:
    return tuple(rat(x) for x in entries)


def unit_vector(dim: int, index: int) -> Vector:
    return tuple(_ONE if j == index else _ZERO for j in range(dim))


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a + b for a, b in zip(u, v))


def vec_is_zero(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


class Frozen:
    """Base of the immutable value types.

    A subclass names its attributes in ``__slots__`` and passes their
    values, in that order, to ``Frozen.__init__``, the one place they are
    set. Afterwards assignment and deletion both raise ``AttributeError``.
    ``@dataclass(frozen=True, slots=True)`` would give the same, but
    importing ``dataclasses`` (and the ``inspect`` module it pulls in)
    raised the package import from about 44 ms to 64 ms, a cost every
    command-line run and every density set-up would pay.
    """

    __slots__ = ()

    def __init__(self, *values):
        slots = type(self).__slots__
        if len(values) != len(slots):
            raise TypeError(
                f"{type(self).__name__} takes {len(slots)} values, got {len(values)}"
            )
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        values = tuple(getattr(self, name) for name in type(self).__slots__)
        return _restore, (type(self), values)


def _restore(cls, values):
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values)
    return obj


class Matrix(Frozen):
    """Immutable matrix with exact rational entries.

    Entries are stored row-major as tuples of ``Fraction``; instances are
    hashable and safe to share between threads.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        data = tuple(tuple(rat(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows have unequal lengths")
        super().__init__(len(data), width, data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, data: tuple) -> Matrix:
        # Internal: entries already normalized tuples of Fractions.
        obj = object.__new__(cls)
        object.__setattr__(obj, "rows", len(data))
        object.__setattr__(obj, "cols", len(data[0]))
        object.__setattr__(obj, "entries", data)
        return obj

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> Matrix:
        return Matrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> Matrix:
        n = len(values)
        return Matrix(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]]) -> Matrix:
        cols = [vec(c) for c in columns]
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    @staticmethod
    def block_diag(*blocks: "Matrix") -> Matrix:
        size = sum(b.rows for b in blocks)
        if any(not b.is_square() for b in blocks):
            raise DimensionMismatch("block_diag expects square blocks")
        out = [[_ZERO] * size for _ in range(size)]
        offset = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[offset + i][offset + j] = b.entries[i][j]
            offset += b.rows
        return Matrix(out)

    # -- basic access ------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    # -- structure tests ---------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"Matrix([{rows}])"

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix._raw(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix._raw(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> Matrix:
        return Matrix._raw(tuple(tuple(-x for x in row) for row in self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = other.columns()
            out = []
            for row in self.entries:
                # skip zero terms: the matrices here are mostly sparse
                support = [(j, a) for j, a in enumerate(row) if a]
                out_row = []
                for col in cols:
                    total = _ZERO
                    for j, a in support:
                        b = col[j]
                        if b:
                            total = total + a * b
                    out_row.append(total)
                out.append(tuple(out_row))
            return Matrix._raw(tuple(out))
        if isinstance(other, (int, Fraction)):
            f = rat(other)
            return Matrix._raw(tuple(tuple(f * x for x in row) for row in self.entries))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Matrix:
        if not self.is_square():
            raise DimensionMismatch("only square matrices have powers")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Matrix.identity(self.rows)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(
                f"matrix has {self.cols} columns but vector has length {len(v)}"
            )
        w = vec(v)
        return tuple(sum(a * b for a, b in zip(row, w)) for row in self.entries)

    def transpose(self) -> Matrix:
        return Matrix._raw(
            tuple(
                tuple(self.entries[i][j] for i in range(self.rows))
                for j in range(self.cols)
            )
        )

    def det(self) -> Fraction:
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        a = [list(row) for row in self.entries]
        n = self.rows
        result = _ONE
        for k in range(n):
            pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
            if pivot is None:
                return _ZERO
            if pivot != k:
                a[k], a[pivot] = a[pivot], a[k]
                result = -result
            result *= a[k][k]
            inv = _ONE / a[k][k]
            for i in range(k + 1, n):
                if a[i][k]:
                    f = a[i][k] * inv
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return result

    def inverse(self) -> Matrix:
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        reduced, pivots = _rref(
            [row + unit_vector(n, i) for i, row in enumerate(self.entries)]
        )
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._raw(tuple(tuple(row[n:]) for row in reduced))

    def _same_shape(self, other: Matrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} differ"
            )


class SymmetricForm(Frozen):
    """Symmetric bilinear form over the rationals, given by its Gram matrix."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix: Union[Matrix, Sequence[Sequence[Scalar]]]):
        m = matrix if isinstance(matrix, Matrix) else Matrix(matrix)
        if not m.is_square():
            raise DimensionMismatch("a symmetric form needs a square Gram matrix")
        if not m.is_symmetric():
            raise ValueError("Gram matrix is not symmetric")
        super().__init__(m.rows, m)

    @staticmethod
    def identity(n: int) -> SymmetricForm:
        return SymmetricForm(Matrix.identity(n))

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> SymmetricForm:
        return SymmetricForm(Matrix.diagonal(values))

    def evaluate(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Fraction:
        """Value of the form on a pair of vectors."""
        xv, yv = vec(x), vec(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise DimensionMismatch("vector length does not match the form dimension")
        my = self.matrix.matvec(yv)
        return sum((a * b for a, b in zip(xv, my)), _ZERO)

    def direct_sum(self, other: SymmetricForm) -> SymmetricForm:
        return SymmetricForm(Matrix.block_diag(self.matrix, other.matrix))

    def is_integral(self) -> bool:
        return self.matrix.is_integral()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(("SymmetricForm", self.matrix))

    def __repr__(self) -> str:
        return f"SymmetricForm({self.matrix!r})"


class IntPolynomial(Frozen):
    """Univariate polynomial with exact rational coefficients, ascending order.

    Despite the name the coefficient type is ``Fraction``; the routines that
    promise integral output (characteristic polynomials of integer matrices,
    cyclotomic products) check integrality rather than assuming it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        data = [rat(c) for c in coeffs]
        while data and data[-1] == 0:
            data.pop()
        super().__init__(tuple(data))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __mul__(self, other):
        if isinstance(other, IntPolynomial):
            if self.is_zero() or other.is_zero():
                return IntPolynomial([])
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return IntPolynomial(out)
        if isinstance(other, (int, Fraction)):
            f = rat(other)
            return IntPolynomial([f * c for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> IntPolynomial:
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPolynomial([1])
        for _ in range(exponent):
            result = result * self
        return result

    def __divmod__(self, divisor: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = divisor.coeffs
        lead = d[-1]
        quot = [_ZERO] * max(len(rem) - len(d) + 1, 0)
        for k in range(len(rem) - len(d), -1, -1):
            c = rem[k + len(d) - 1] / lead
            if c:
                quot[k] = c
                for j, b in enumerate(d):
                    rem[k + j] -= c * b
        return IntPolynomial(quot), IntPolynomial(rem)

    def __mod__(self, divisor: IntPolynomial) -> IntPolynomial:
        return divmod(self, divisor)[1]

    def reduce_mod(self, p: int) -> tuple[int, ...]:
        """Coefficients modulo a prime, as ints in ``[0, p)``.

        Denominators must be invertible modulo ``p``; a ``ValueError`` is
        raised otherwise.
        """
        if p < 2:
            raise ValueError("modulus must be at least 2")
        out = []
        for c in self.coeffs:
            if c.denominator % p == 0:
                raise ValueError(f"denominator {c.denominator} not invertible mod {p}")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial([{', '.join(str(c) for c in self.coeffs)}])"


def monomial(degree: int, coefficient: Scalar = 1) -> IntPolynomial:
    return IntPolynomial([0] * degree + [coefficient])


def unipotent_polynomial(n: int) -> IntPolynomial:
    """``(t - 1)^n``, the characteristic polynomial of unipotent elements."""
    return IntPolynomial([-1, 1]) ** n


# ---------------------------------------------------------------------------
# Signatures of symmetric forms
# ---------------------------------------------------------------------------


def ldl_signature(form: SymmetricForm) -> tuple[int, int, int]:
    """Inertia ``(positives, negatives, zeros)`` of a symmetric form.

    Symmetric Gaussian elimination with full symmetric pivoting, entirely in
    rational arithmetic. When every trailing diagonal entry vanishes but an
    off-diagonal entry survives, a symmetric row-and-column addition creates
    a nonzero pivot (valid in characteristic zero). Sylvester's law of
    inertia makes the sign count independent of the pivot choices.
    """
    n = form.dim
    a = [list(row) for row in form.matrix.entries]
    pos = neg = 0
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i] != 0), None)
        if pivot is None:
            off = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if a[i][j] != 0
                ),
                None,
            )
            if off is None:
                break  # trailing block is zero
            i, j = off
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            pivot = i  # a[i][i] is now 2*a[i][j] != 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            for r in range(n):
                a[r][k], a[r][pivot] = a[r][pivot], a[r][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k]
            if f:
                f = f / d
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
        for i in range(k + 1, n):
            a[i][k] = _ZERO
            a[k][i] = _ZERO
    return pos, neg, n - pos - neg


def is_positive_definite(form: SymmetricForm) -> bool:
    pos, neg, zero = ldl_signature(form)
    return pos == form.dim and neg == 0 and zero == 0


# ---------------------------------------------------------------------------
# Nilpotent exponentials and characteristic polynomials
# ---------------------------------------------------------------------------


def nilpotent_exp(m: Matrix) -> Matrix:
    """Exact exponential of a nilpotent matrix.

    Sums ``I + m + m^2/2! + ...`` until the powers vanish. The power search
    is capped at the dimension: if ``m**dim`` is nonzero the matrix is not
    nilpotent and ``NotNilpotent`` is raised rather than looping on.
    """
    if not m.is_square():
        raise DimensionMismatch("exponential of a non-square matrix")
    n = m.rows
    total = Matrix.identity(n)
    power = Matrix.identity(n)
    for i in range(1, n + 1):
        power = power * m
        if power.is_zero():
            return total
        total = total + Fraction(1, math.factorial(i)) * power
    raise NotNilpotent(f"matrix power {n} is nonzero")


def _char_poly_int(entries: Sequence[Sequence[int]]) -> list[int]:
    # Faddeev-LeVerrier over the integers; every division is exact.
    n = len(entries)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        step = [
            [
                sum(entries[i][l] * aux[l][j] for l in range(n))
                + (c if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        aux = step
        trace = sum(
            sum(entries[i][l] * aux[l][i] for l in range(n)) for i in range(n)
        )
        quotient, remainder = divmod(-trace, k)
        if remainder:
            raise InvariantViolation(f"Faddeev-LeVerrier division by {k} is not exact")
        coeffs[n - k] = quotient
    return coeffs


def char_poly(m: Matrix) -> IntPolynomial:
    """Characteristic polynomial ``det(tI - m)`` via Faddeev-LeVerrier.

    With ``d`` the lcm of the entry denominators, ``d m`` is integral, and
    coefficient ``k`` of ``det(tI - m)`` is coefficient ``k`` of
    ``det(tI - d m)`` divided by ``d^(n-k)``; so one integer pass serves
    every input. The result is monic of degree ``dim`` and integral for
    integral input; the integer pass checks the exactness of every
    division rather than assuming it.
    """
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = m.rows
    d = denominator_lcm(x for row in m.entries for x in row)
    ints = [[x.numerator * (d // x.denominator) for x in row] for row in m.entries]
    coeffs = _char_poly_int(ints)
    return IntPolynomial([Fraction(a, d ** (n - k)) for k, a in enumerate(coeffs)])


# ---------------------------------------------------------------------------
# Rational row reduction and null spaces
# ---------------------------------------------------------------------------


def _rref(entries: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    m = [list(row) for row in entries]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def null_space(m: Matrix) -> list[Vector]:
    """Basis of ``{v : m v = 0}`` over the rationals."""
    reduced, pivots = _rref(m.entries)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def left_null_space(m: Matrix) -> list[Vector]:
    """Basis of ``{w : w^T m = 0}`` over the rationals."""
    return null_space(m.transpose())


# ---------------------------------------------------------------------------
# Integer lattices: Hermite reduction and integral solvability
# ---------------------------------------------------------------------------


def integer_row_hermite(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Nonzero rows of a row-Hermite reduction of an integer matrix.

    Only unimodular row operations are used, so the returned rows span the
    same row lattice over the integers as the input.
    """
    m = [list(row) for row in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nonzero = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(m[i][c]))
            m[r], m[i0] = m[i0], m[r]
            done = True
            for i in range(r + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if r < nrows and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            r += 1
    return m[:r]


def lattice_basis(vectors: Iterable[Sequence[Fraction]], dim: int) -> list[Vector]:
    """Basis of the lattice spanned over the integers by rational vectors.

    Returns at most ``dim`` vectors; fewer means the span is rank deficient.
    """
    nonzero = [vec(v) for v in vectors if not vec_is_zero(v)]
    if not nonzero:
        return []
    if any(len(v) != dim for v in nonzero):
        raise DimensionMismatch("lattice vectors have inconsistent lengths")
    den = math.lcm(*[x.denominator for v in nonzero for x in v])
    rows = [[int(x * den) for x in v] for v in nonzero]
    reduced = integer_row_hermite(rows)
    return [tuple(Fraction(x, den) for x in row) for row in reduced]


def has_integer_solution(a_rows: Sequence[Sequence[int]], b: Sequence[int]) -> bool:
    """Whether ``A x = b`` admits an integer solution, for integral A and b.

    That is, whether ``b`` lies in the lattice spanned by the columns of A.
    A row-Hermite reduction of those columns is an echelon basis of the
    lattice with positive leading entries, so ``b`` is a member exactly
    when subtracting integer multiples of the basis rows, in order, clears
    it: at each row the entries of ``b`` left of the leading entry must
    already vanish and the leading entry must divide.
    """
    rest = [int(x) for x in b]
    if len(a_rows) != len(rest):
        raise DimensionMismatch("row count of A differs from length of b")
    for row in integer_row_hermite(list(zip(*a_rows))):
        lead = next(c for c, x in enumerate(row) if x)
        q, r = divmod(rest[lead], row[lead])
        if r or any(rest[:lead]):
            return False
        rest = [x - q * y for x, y in zip(rest, row)]
    return not any(rest)


def denominator_lcm(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of the given rationals."""
    result = 1
    for v in values:
        result = math.lcm(result, v.denominator)
    return result
