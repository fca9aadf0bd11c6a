"""Output checks that do not trust the library's own arithmetic.

Every function here works on plain tuples and dicts, so a defect in
``platkit`` cannot make its own answer look right:

- reduced Burau matrices evaluated exactly in GF(p) decide that two words
  are unequal braids, and confirm certificate equations;
- a bracket is checked by evaluating it at A = 1 and A = i, where the
  normalised bracket of a c-component link has absolute value 2^(c-1);
- the triviality verdict, mirror symmetry and invariance up to a unit are
  recomputed with dictionary polynomials;
- the PD export is checked by a union-find component count.
"""

from __future__ import annotations

import hashlib
import re

# Burau matrices are evaluated at t = T in the field of P elements.  Any
# specialisation of a representation is a homomorphism, so different
# matrices prove different braids.
P = (1 << 61) - 1
T = 3
T_INV = pow(T, P - 2, P)


def burau(strands: int, letters) -> tuple[tuple[int, ...], ...]:
    """Reduced Burau matrix of a word, entries in GF(P), t = T."""
    d = strands - 1
    m = [[int(r == c) for c in range(d)] for r in range(d)]
    if d == 0:
        return ()
    for g in letters:
        i = abs(g)
        if d == 1:
            f = (P - T) if g > 0 else (P - T_INV)
            m[0][0] = m[0][0] * f % P
            continue
        # right-multiply by the generator's block; only columns i-2..i change
        for row in m:
            if i == 1:
                a, b = row[0], row[1]
                if g > 0:
                    row[0] = -T * a % P
                    row[1] = (a + b) % P
                else:
                    row[0] = -T_INV * a % P
                    row[1] = (T_INV * a + b) % P
            elif i == strands - 1:
                a, b = row[d - 2], row[d - 1]
                if g > 0:
                    row[d - 2] = (a + T * b) % P
                    row[d - 1] = -T * b % P
                else:
                    row[d - 2] = (a + b) % P
                    row[d - 1] = -T_INV * b % P
            else:
                a, b, c = row[i - 2], row[i - 1], row[i]
                if g > 0:
                    row[i - 2] = (a + T * b) % P
                    row[i - 1] = -T * b % P
                    row[i] = (b + c) % P
                else:
                    row[i - 2] = (a + b) % P
                    row[i - 1] = -T_INV * b % P
                    row[i] = (T_INV * b + c) % P
    return tuple(tuple(row) for row in m)


def permutation(strands: int, letters) -> tuple[int, ...]:
    """Where each bottom position ends at the top (1-based images)."""
    pos = list(range(strands + 1))  # pos[strand] = current position
    where = list(range(strands + 1))  # where[position] = strand
    for g in letters:
        i = abs(g)
        a, b = where[i], where[i + 1]
        where[i], where[i + 1] = b, a
        pos[a], pos[b] = i + 1, i
    return tuple(pos[1:])


def exponent_sum(letters) -> int:
    return sum(1 if g > 0 else -1 for g in letters)


def plat_components(strands: int, letters) -> int:
    """Components of the standard plat closure, from the permutation alone."""
    pi = permutation(strands, letters)
    inv = [0] * (strands + 1)
    for i, x in enumerate(pi, start=1):
        inv[x] = i
    partner = lambda x: x + 1 if x % 2 else x - 1  # noqa: E731
    seen = [False] * (strands + 1)
    count = 0
    for s in range(1, strands + 1):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        while stack:
            x = stack.pop()
            if seen[x]:
                continue
            seen[x] = True
            stack.append(partner(x))
            stack.append(inv[partner(pi[x - 1])])
    return count


# --- Laurent polynomials as {exponent: coefficient} --------------------------

LOOP = {-2: -1, 2: -1}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def loop_power(k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = poly_mul(out, LOOP)
    return out


def unit_multiple(p: dict, q: dict) -> bool:
    """p = +-A^k q for some k."""
    if not p or not q:
        return not p and not q
    k = max(p) - max(q)
    for sign in (1, -1):
        if p == {e + k: sign * c for e, c in q.items()}:
            return True
    return False


def mirror(p: dict) -> dict:
    return {-e: c for e, c in p.items()}


def bracket_problem(p: dict, components: int) -> str | None:
    """Evaluations at A = 1 and A = i must have absolute value 2^(c-1)."""
    want = 2 ** (components - 1)
    at_one = sum(p.values())
    if abs(at_one) != want:
        return f"bracket at A=1 is {at_one}, want +-{want}"
    parts = [0, 0, 0, 0]  # coefficient sums by exponent mod 4: i^0..i^3
    for e, c in p.items():
        parts[e % 4] += c
    re_part, im_part = parts[0] - parts[2], parts[1] - parts[3]
    if re_part * re_part + im_part * im_part != want * want:
        return f"bracket at A=i is {re_part}+{im_part}i, want modulus {want}"
    return None


_TERM = re.compile(r"^(?:(\d+)\*)?A(?:\^(-?\d+))?$")


def parse_poly(text: str) -> dict:
    """Inverse of ``str(Laurent)``: ``A^7 - A^3 - 2*A^-5``, ``1``, ``0``."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, int] = {}
    for tok in text.replace("- ", "-").replace("+ ", "+").split():
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("+-")
        if tok.isdigit():
            e, c = 0, int(tok)
        else:
            m = _TERM.match(tok)
            if m is None:
                raise ValueError(f"bad term {tok!r} in {text!r}")
            c = int(m.group(1) or 1)
            e = int(m.group(2)) if m.group(2) is not None else 1
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def pd_problem(lines: list[str], strands: int, crossings: int, components: int) -> str | None:
    """Shape of the PD export and its own component count."""
    half = strands // 2
    if len(lines) != 2 * half + crossings:
        return f"{len(lines)} PD lines, want {2 * half + crossings}"
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    uses: dict[int, int] = {}
    for k, line in enumerate(lines):
        head, *labels = line.split()
        want = "CUP" if k < half else "X" if k < half + crossings else "CAP"
        if head != want or len(labels) != (4 if want == "X" else 2):
            return f"PD line {k} is {line!r}, want a {want} line"
        arcs = [int(x) for x in labels]
        for a in arcs:
            uses[a] = uses.get(a, 0) + 1
        if want == "X":
            # the strand at the left position leaves at the right and vice versa
            union(arcs[0], arcs[3])
            union(arcs[1], arcs[2])
        else:
            union(arcs[0], arcs[1])
    if any(v != 2 for v in uses.values()):
        return "some PD arc does not have exactly two ends"
    found = len({find(a) for a in uses})
    if found != components:
        return f"PD export has {found} components, component_count says {components}"
    return None


# --- free-group fingerprints ---------------------------------------------------


def _reduce(letters) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def fingerprint_problem(strands: int, letters, images) -> str | None:
    """The Artin action sends x_i to a conjugate of x_c(i) and fixes x_1...x_n."""
    if len(images) != strands:
        return f"{len(images)} images for {strands} strands"
    for i, img in enumerate(images, start=1):
        c = i
        for g in reversed(letters):
            a = abs(g)
            if c == a:
                c = a + 1
            elif c == a + 1:
                c = a
        h = len(img) // 2
        if len(img) % 2 != 1 or img[h] != c:
            return f"image of x_{i} is not a conjugate of x_{c}"
        if any(img[k] != -img[-1 - k] for k in range(h)):
            return f"image of x_{i} is not a conjugate"
    product = _reduce(x for img in images for x in img)
    if product != list(range(1, strands + 1)):
        return "the action does not fix x_1 ... x_n"
    return None


# --- Hilden generators, rebuilt here so certificates are checked independently --


def hilden_letters(pairs: int, factors) -> list[int]:
    gens = [(1,)]
    if pairs >= 2:
        gens.append((2, 1, 3, 2))
        for i in range(1, pairs):
            k = 2 * i
            gens.append((k, k - 1, -(k + 1), -k))
    out: list[int] = []
    for idx, exp in factors:
        g = gens[idx]
        out.extend(g if exp == 1 else tuple(-x for x in reversed(g)))
    return out


def digest(value) -> str:
    """A short stable hash of an answer's canonical text."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]
