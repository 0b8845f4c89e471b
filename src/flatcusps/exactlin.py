"""Exact linear algebra over the rationals.

The kernel everything else builds on: immutable matrices, symmetric
bilinear forms, characteristic polynomials, nilpotent exponentials, and
the integer lattice routines (Hermite reduction, integral solvability)
needed for crystallographic computations. A :class:`Matrix` is integer
rows over one positive denominator in canonical form, so its arithmetic
is integer arithmetic plus one gcd reduction per result; determinants
use Bareiss's fraction-free forward elimination, inverses its Gauss-Jordan
form, and signatures the characteristic polynomial. Definiteness is the
same forward elimination with no row moves, whose pivots are the leading
principal minors (Sylvester's criterion). An isometry identity
``A^T G A = G`` is decided by :func:`preserves_form` on the integer rows
with no reduction at all. ``Fraction`` appears only at the boundary. All
arithmetic is exact; ``==`` always means mathematical equality and no
operation introduces rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add, attrgetter, mul, neg, sub
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, InvariantViolation, NotNilpotent

Scalar = Union[int, str, Fraction]

_ZERO = Fraction(0)


def rat(value: Scalar) -> Fraction:
    """Coerce an int, Fraction, or string like ``"3/4"`` to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


Vector = tuple[Fraction, ...]


class Frozen:
    """Base of the immutable value types.

    A subclass names its attributes in its own ``__slots__`` (a class
    without one is a ``TypeError`` when it is created) and passes their
    values, in that order, to ``Frozen.__init__``. That stores them through
    the slots' descriptor setters, collected once per class
    (``_matrix`` calls ``Matrix``'s directly). Afterwards assignment and
    deletion both raise ``AttributeError``.
    Equality is by value: two instances are equal when they have the same
    type and equal slot values, and the hash is the hash of those values.
    ``Matrix`` overrides the pair for speed and ``BieberbachGroup`` to
    ignore its name.
    ``@dataclass(frozen=True, slots=True)`` would give the same, but
    importing ``dataclasses`` (and the ``inspect`` module it pulls in)
    raised the package import from about 44 ms to 64 ms, a cost every
    command-line run and every density set-up would pay.
    """

    __slots__ = ()

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{type(self).__name__} takes {len(setters)} values, got {len(values)}"
            )
        for set_slot, value in zip(setters, values):
            set_slot(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __init_subclass__(cls):
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare its own __slots__")
        # what == and hash compare: the slot values (one bare value for one slot)
        cls._key = staticmethod(attrgetter(*cls.__slots__))
        # each slot's descriptor setter, which __setattr__ cannot reach
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

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

    Stored as integer rows ``num`` over one denominator ``den``: entry
    ``(i, j)`` is ``num[i][j] / den``. The form is canonical, with
    ``den > 0`` and ``gcd(den, every entry of num) = 1``, so equal
    matrices have equal ``(num, den)`` and ``==`` and ``hash`` compare
    that pair. Every operation works on the integers and reduces its
    result once. ``entries`` (rows of ``Fraction``), ``m[i, j]``,
    :meth:`column` and :meth:`matvec` are the ``Fraction`` views at the
    boundary. Instances are hashable and safe to share between threads.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        data = tuple(tuple(x if type(x) is int else rat(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows have unequal lengths")
        # Every entry is in lowest terms, so over the lcm of the denominators
        # some numerator keeps each prime of it: the rows are already canonical.
        den = math.lcm(*(x.denominator for row in data for x in row))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data)
        super().__init__(len(data), width, num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_integer_rows(cls, num: tuple, den: int) -> Matrix:
        """The matrix ``num / den``, for a nonempty tuple of equal-length
        nonempty tuples of ints and a positive int, in canonical form."""
        if den < 1 or not num or not num[0]:
            raise ValueError("need a row, a column and a positive denominator")
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        return _matrix(num, den)

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix.from_integer_rows(_identity_rows(n), 1)

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> Matrix:
        n = len(values)
        return Matrix(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def block_diag(*blocks: "Matrix") -> Matrix:
        if any(not b.is_square() for b in blocks):
            raise DimensionMismatch("block_diag expects square blocks")
        size = sum(b.rows for b in blocks)
        den = math.lcm(*(b.den for b in blocks))
        out = []
        offset = 0
        for b in blocks:
            f = den // b.den
            left, right = (0,) * offset, (0,) * (size - offset - b.cols)
            out.extend(left + tuple(f * x for x in row) + right for row in b.num)
            offset += b.rows
        return Matrix.from_integer_rows(tuple(out), den)

    # -- basic access ------------------------------------------------------

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows as tuples of ``Fraction``."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self.num[i][j], self.den)

    def column(self, j: int) -> Vector:
        den = self.den
        return tuple(Fraction(row[j], den) for row in self.num)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    # -- structure tests ---------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self.num == tuple(zip(*self.num))

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_identity(self) -> bool:
        return self.den == 1 and self.num == _identity_rows(self.rows)

    def is_integral(self) -> bool:
        return self.den == 1

    # -- arithmetic --------------------------------------------------------

    # Own pair for speed: (num, den) alone decide, and word balls hash many matrices.
    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"Matrix([{rows}])"

    def _aligned(self, other: Matrix) -> tuple[tuple, tuple, int]:
        # Both operands' integer rows over their common denominator.
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} differ"
            )
        if self.den == other.den:
            return self.num, other.num, self.den
        den = math.lcm(self.den, other.den)
        return _scaled(self.num, den // self.den), _scaled(other.num, den // other.den), den

    def __add__(self, other: Matrix) -> Matrix:
        a, b, den = self._aligned(other)
        return Matrix.from_integer_rows(tuple(tuple(map(add, r, s)) for r, s in zip(a, b)), den)

    def __sub__(self, other: Matrix) -> Matrix:
        a, b, den = self._aligned(other)
        return Matrix.from_integer_rows(tuple(tuple(map(sub, r, s)) for r, s in zip(a, b)), den)

    def __neg__(self) -> Matrix:
        # negated canonical rows are canonical: no gcd to take
        return _matrix(tuple(tuple(map(neg, row)) for row in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            return Matrix.from_integer_rows(_product(self.num, other.num), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return Matrix.from_integer_rows(
                _scaled(self.num, other.numerator), self.den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Matrix:
        if not self.is_square():
            raise DimensionMismatch("only square matrices have powers")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Matrix.identity(self.rows).num
        base = self.num
        k = exponent
        while k:
            if k & 1:
                result = _product(result, base)
            k >>= 1
            if k:
                base = _product(base, base)
        return Matrix.from_integer_rows(result, self.den**exponent)

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(
                f"matrix has {self.cols} columns but vector has length {len(v)}"
            )
        w = Matrix([v])
        den = self.den * w.den
        return tuple(Fraction(sum(map(mul, row, w.num[0])), den) for row in self.num)

    def det(self) -> Fraction:
        """Forward-only Bareiss elimination on the integer rows.

        Each step moves the first row with a nonzero leading entry to the
        top, clears the column below it and drops both, so only the trailing
        block is kept. Every entry stays a minor of ``num`` and each
        division by the previous pivot is exact (Math. Comp. 22 (1968)), so
        the last pivot is ``det num`` up to the sign of the row moves.
        """
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        rows = self.num
        prev = sign = 1
        while rows:
            k = next((i for i, row in enumerate(rows) if row[0]), None)
            if k is None:
                return _ZERO
            if k & 1:  # moving row k above rows 0..k-1 is k transpositions
                sign = -sign
            top = rows[k]
            d, tail = top[0], top[1:]
            rows = [
                [(d * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
                for i, row in enumerate(rows)
                if i != k
            ]
            prev = d
        return Fraction(sign * prev, self.den**self.rows)

    def inverse(self) -> Matrix:
        """Fraction-free Gauss-Jordan elimination of ``[num | I]``.

        Bareiss's update (Math. Comp. 22 (1968); Cohen, GTM 138, §2.2) on
        every row keeps each entry a minor of the input, so each division
        by the previous pivot is exact. Column ``c`` takes its pivot from
        rows ``c`` on, and a column with none means ``num`` is singular.
        """
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        augmented = [
            list(row) + [1 if j == i else 0 for j in range(n)]
            for i, row in enumerate(self.num)
        ]
        d = 1
        for c in range(n):
            pivot = next((i for i in range(c, n) if augmented[i][c]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            augmented[c], augmented[pivot] = augmented[pivot], augmented[c]
            top, prev = augmented[c], d
            d = top[c]
            for i in range(n):
                if i != c:
                    f = augmented[i][c]
                    augmented[i] = [(d * x - f * y) // prev for x, y in zip(augmented[i], top)]
        # The right half is now d num^-1, and the inverse is den num^-1.
        scale = self.den if d > 0 else -self.den
        inverse = tuple(tuple(scale * x for x in row[n:]) for row in augmented)
        return Matrix.from_integer_rows(inverse, abs(d))


_set_rows, _set_cols, _set_num, _set_den = Matrix._setters


def _matrix(num: tuple, den: int) -> Matrix:
    """Canonical integer rows ``num`` over ``den``, the slots set directly."""
    obj = object.__new__(Matrix)
    _set_rows(obj, len(num))
    _set_cols(obj, len(num[0]))
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _scaled(num: tuple, f: int) -> tuple:
    """Integer rows times an integer."""
    return num if f == 1 else tuple(tuple(f * x for x in row) for row in num)


def _product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    """Product of integer matrices given as rows, skipping zero entries.

    Row i of ``a b`` is the sum of ``a[i][l]`` times row l of ``b``, over
    the nonzero ``a[i][l]`` and the nonzero entries of that row alone
    (:func:`_sparse_product`). The arithmetic is exact, so only the order
    of the additions differs from the dense sum of products.
    """
    return _sparse_product(a, _nonzeros(b), len(b[0]))


def _nonzeros(b: Sequence[Sequence[int]]) -> tuple:
    """Each row of an integer matrix as its ``(column, entry)`` pairs of
    nonzero entries: the right factor :func:`_sparse_product` reads."""
    return tuple([(j, x) for j, x in enumerate(row) if x] for row in b)


def _sparse_product(a: Sequence[Sequence[int]], b_nonzeros: tuple, width: int) -> tuple:
    """Integer rows of ``a b``, for ``b_nonzeros = _nonzeros(b)`` and ``width``
    the number of columns of ``b``."""
    out = []
    for row in a:
        acc = [0] * width
        for x, nonzeros in zip(row, b_nonzeros):
            if x:
                for j, y in nonzeros:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def congruent_rows(a: Matrix, gram: Matrix) -> tuple:
    """Integer rows of ``a.num^T gram.num a.num``: ``a^T gram a`` times
    ``a.den^2 gram.den``, with no gcd and no intermediate :class:`Matrix`."""
    if not (a.is_square() and gram.is_square() and a.rows == gram.rows):
        raise DimensionMismatch(
            f"cannot transform a {gram.rows}x{gram.cols} Gram matrix by a {a.rows}x{a.cols} matrix"
        )
    return _product(tuple(zip(*a.num)), _product(gram.num, a.num))


def preserves_form(a: Matrix, gram: Matrix) -> bool:
    """Whether ``a^T gram a == gram``, decided on integer rows.

    With ``a = A / d`` and ``gram = G / e`` the identity is
    ``A^T G A == d^2 G``; the identity matrix needs no product.
    ``DimensionMismatch`` is raised unless both are square of one size.
    """
    if a.is_identity() and gram.is_square() and gram.rows == a.rows:
        return True
    return congruent_rows(a, gram) == _scaled(gram.num, a.den * a.den)


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

    def direct_sum(self, other: SymmetricForm) -> SymmetricForm:
        return SymmetricForm(Matrix.block_diag(self.matrix, other.matrix))

    def is_integral(self) -> bool:
        return self.matrix.is_integral()

    def __repr__(self) -> str:
        return f"SymmetricForm({self.matrix!r})"


class IntPolynomial(Frozen):
    """Univariate polynomial with exact rational coefficients, ascending order.

    Integral coefficients are stored as ``int`` (``Fraction(k, 1)`` becomes
    ``k``) and the others as ``Fraction``, so the characteristic polynomial
    of an integer matrix and every cyclotomic product is a tuple of ints.
    ``==``, the hash and ``str`` are those of the mathematical coefficients
    either way. The operations are only those the certificates use: the
    degree, the zero test, the product of two polynomials, reduction
    modulo a prime, ``==``/hash and ``str``/``repr``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        data = [_integral_or_fraction(c) for c in coeffs]
        while data and data[-1] == 0:
            data.pop()
        super().__init__(tuple(data))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

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


def _integral_or_fraction(value: Scalar) -> Union[int, Fraction]:
    if type(value) is int:
        return value
    value = rat(value)
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=None)
def unipotent_polynomial(n: int) -> IntPolynomial:
    """``(t - 1)^n``, the characteristic polynomial of unipotent elements,
    written as its binomial coefficients ``(-1)^(n-k) C(n, k)``."""
    return IntPolynomial([(-1) ** (n - k) * math.comb(n, k) for k in range(n + 1)])


# ---------------------------------------------------------------------------
# Signatures of symmetric forms
# ---------------------------------------------------------------------------


def ldl_signature(form: SymmetricForm) -> tuple[int, int, int]:
    """Inertia ``(positives, negatives, zeros)`` of a symmetric form.

    Read off the characteristic polynomial of ``num``, a positive multiple
    of the Gram matrix. A real symmetric matrix has only real eigenvalues,
    and for a polynomial with only real roots Descartes' rule of signs is
    exact: the positive eigenvalues are the sign changes along the nonzero
    coefficients, and the zero eigenvalues the vanishing low-order ones.
    """
    coeffs = _char_poly_int(form.matrix.num)
    zeros = next(k for k, c in enumerate(coeffs) if c)
    signs = [c > 0 for c in coeffs if c]
    positives = sum(a != b for a, b in zip(signs, signs[1:]))
    return positives, form.dim - positives - zeros, zeros


@lru_cache(maxsize=256)
def is_positive_definite(form: SymmetricForm) -> bool:
    """Whether the inertia of ``form`` is ``(dim, 0, 0)``, by Sylvester's
    criterion: every leading principal minor of ``num``, a positive
    multiple of the Gram matrix, is positive (:func:`_leading_minors_positive`).

    Memoized by value: a ``SymmetricForm`` is immutable and its Gram
    matrix canonical, so equal forms hash alike and a hit is exact. A
    density row tests the same forms again and again (the target's
    average, the rounded form, the shape, the model's base), and each is
    decided once; :func:`_leading_minors_positive` itself is not memoized,
    so its calls count real decisions.
    """
    return _leading_minors_positive(form.matrix.num)


def _leading_minors_positive(rows: Sequence[Sequence[int]]) -> bool:
    """Whether every leading principal minor of a square integer matrix is
    positive, by forward Bareiss elimination with no row moves.

    Step k clears column k below the pivot and drops its row and column,
    so the pivot of step k is the k-th leading principal minor and each
    division by the previous pivot is exact (Math. Comp. 22 (1968)). The
    first pivot that is not positive decides, and the rest is not computed.
    """
    prev = 1
    while rows:
        top = rows[0]
        d, tail = top[0], top[1:]
        if d <= 0:
            return False
        rows = [[(d * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in rows[1:]]
        prev = d
    return True


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


def _char_poly_int(a: Sequence[Sequence[int]]) -> list[int]:
    # Faddeev-LeVerrier over the integers: with M_1 = I and c_n = 1, step k
    # takes c_(n-k) = -tr(A M_k) / k and M_(k+1) = A M_k + c_(n-k) I. That is
    # one product per step: A M_1 = A needs none, and the last step reads
    # only the diagonal of A M_n. Every division is exact.
    n = len(a)
    coeffs = [0] * n + [1]
    product = a
    diagonal = [a[i][i] for i in range(n)]
    for k in range(1, n + 1):
        quotient, remainder = divmod(-sum(diagonal), k)
        if remainder:
            raise InvariantViolation(f"Faddeev-LeVerrier division by {k} is not exact")
        coeffs[n - k] = quotient
        if k == n:
            break
        columns = [list(col) for col in zip(*product)]  # of M_(k+1)
        for i in range(n):
            columns[i][i] += quotient
        if k + 1 < n:
            product = [[sum(map(mul, row, col)) for col in columns] for row in a]
            diagonal = [product[i][i] for i in range(n)]
        else:
            diagonal = [sum(map(mul, row, col)) for row, col in zip(a, columns)]
    return coeffs


def char_poly(m: Matrix) -> IntPolynomial:
    """Characteristic polynomial ``det(tI - m)`` via Faddeev-LeVerrier.

    ``den m`` is the integer matrix ``num``, and coefficient ``k`` of
    ``det(tI - m)`` is coefficient ``k`` of ``det(tI - num)`` divided by
    ``den^(n-k)``; so one integer pass serves every input. The result is
    monic of degree ``dim`` and integral for integral input; the integer
    pass checks the exactness of every division rather than assuming it.
    """
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n, den = m.rows, m.den
    coeffs = _char_poly_int(m.num)
    if den == 1:
        return IntPolynomial(coeffs)
    return IntPolynomial([Fraction(a, den ** (n - k)) for k, a in enumerate(coeffs)])


def is_unipotent(m: Matrix) -> bool:
    """Whether ``char_poly(m)`` is ``(t - 1)^n``, i.e. ``(m - I)^n = 0``: the
    integer rows ``den (m - I)`` are squared until zero or exponent n."""
    if not m.is_square():
        raise DimensionMismatch("unipotence of a non-square matrix")
    n, den = m.rows, m.den
    power = [[x - den * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m.num)]
    exponent = 1
    while any(map(any, power)):
        if exponent >= n:
            return False
        power = _product(power, power)
        exponent *= 2
    return True


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

