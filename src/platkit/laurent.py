"""Laurent polynomials in one variable A with integer coefficients.

Just enough exact ring arithmetic for bracket polynomials: addition,
multiplication, integer powers, and unit comparison.  Coefficients are
Python ints, exponents may be negative, and zero coefficients are never
stored.
"""

from __future__ import annotations

from .words import _frozen


@_frozen
class Laurent:
    coeffs: tuple[tuple[int, int], ...] = ()
    """Sorted (exponent, coefficient) pairs with nonzero coefficients."""

    def __post_init__(self) -> None:
        # one pass: the exponents are ints that strictly increase, each
        # coefficient a nonzero int; stored as a tuple of pairs, so a list hashes
        last = float("-inf")
        pairs = []
        for e, c in self.coeffs:
            if type(e) is not int or e <= last or type(c) is not int or not c:
                raise ValueError(
                    f"not sorted (exponent, nonzero int coefficient) pairs: {self.coeffs!r}"
                )
            last = e
            pairs.append((e, c))
        object.__setattr__(self, "coeffs", tuple(pairs))

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "Laurent":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def zero(cls) -> "Laurent":
        return cls(())

    @classmethod
    def one(cls) -> "Laurent":
        return cls(((0, 1),))

    @classmethod
    def unit(cls, exponent: int, sign: int = 1) -> "Laurent":
        """The monomial sign * A^exponent."""
        return cls(((exponent, sign),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Laurent") -> "Laurent":
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return Laurent.from_dict(d)

    def __neg__(self) -> "Laurent":
        return Laurent(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return Laurent.from_dict(d)

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = Laurent.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "Laurent":
        """Multiply by A^k."""
        return Laurent(tuple((e + k, c) for e, c in self.coeffs))

    def max_degree(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return self.coeffs[-1][0]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in reversed(self.coeffs):
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}A^{e}" if e != 1 else f"{mag}A"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


A = Laurent.unit(1)
A_INV = Laurent.unit(-1)

#: the value of a closed loop relative to the empty diagram: -A^2 - A^-2
LOOP = Laurent(((-2, -1), (2, -1)))


def loop_power(k: int) -> Laurent:
    """``LOOP ** k`` in closed form: (-1)^k sum_j C(k, j) A^(4j - 2k).

    Each binomial coefficient comes from the previous one, so this takes
    k + 1 steps where repeated squaring multiplies polynomials of up to
    k + 1 terms term by term.
    """
    if k < 0:
        raise ValueError("negative powers are not defined here")
    c = -1 if k & 1 else 1
    coeffs = []
    for j in range(k + 1):
        coeffs.append((4 * j - 2 * k, c))
        c = c * (k - j) // (j + 1)
    return Laurent(tuple(coeffs))


def equal_up_to_unit(p: Laurent, q: Laurent) -> bool:
    """True when p = ±A^k q for some integer k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    k = p.max_degree() - q.max_degree()
    shifted = q.shift(k)
    return p == shifted or p == -shifted
