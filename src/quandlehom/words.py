"""Words in the structure group of a linear Alexander quandle.

The structure group is generated by one letter per quandle element, subject
to e_a e_b = e_b e_{a <| b}.  For the quandle t*a + (1-t)*b on Z/n with m
orbits, every group element is pinned down exactly by the pair

    (v, a)  =  (signed letter count per orbit, weight),

where the weight w is the twisted sum w(e_x) = x, w(gh) = t^deg(h) w(g) + w(h).
PackedElement stores that pair; the pair multiplies inside Z^m x| Z/n, and
``canonical_word`` / ``rewrite_trace`` convert back to a unique word per
element, which is what makes the representation usable as a normal form.
``PackedElement.__mul__`` is the one place the product law is written: the
(degree, weight) pair of ``degree_weight`` is its collapse to Z x| Z/n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    LengthMismatchError,
    NotInImageError,
    WordSyntaxError,
)
from .intlinalg import multiplicative_order
from .quandle import LinearAlexanderParams


def geometric_sum(t, k, n):
    """q(k) = 1 + t + ... + t^(k-1) mod n, extended to all integers k.

    The extension is fixed by the recurrence q(k+1) = q(k) + t^k, which for
    negative k gives q(-j) = -t^(-j) * q(j).  It is exactly the coefficient
    in w(e_x^k) = q(k) * x.  The closed form q(k) = (t^k - 1)/(t - 1) holds
    for every integer k and stays exact on t^k reduced modulo n*(t - 1):
    t is a unit there (it is one modulo n and modulo t - 1), and t^k = 1
    modulo t - 1.  t = 1 gives q(k) = k.
    """
    if n == 1:
        return 0
    t %= n
    if t == 1:
        return k % n
    return (pow(t, k, n * (t - 1)) - 1) // (t - 1) % n


@dataclass(frozen=True)
class Word:
    """Product of signed generators, stored run-length as (color, exponent).

    Colors lie in 0..n-1 and exponents are nonzero; adjacent letters of the
    same color are legal but not merged automatically.  The empty tuple is
    the group identity.
    """

    params: LinearAlexanderParams
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = self.params.n
        letters = tuple((int(c), int(e)) for c, e in self.letters)
        for c, e in letters:
            if not 0 <= c < n:
                raise WordSyntaxError(f"color {c} outside 0..{n - 1}")
            if e == 0:
                raise WordSyntaxError("letter exponents must be nonzero")
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other):
        if self.params != other.params:
            raise ValueError("words from different quandles")
        return Word(self.params, self.letters + other.letters)

    def inverse(self):
        return Word(
            self.params, tuple((c, -e) for c, e in reversed(self.letters))
        )

    def __str__(self):
        return format_word(self)


_TOKEN = re.compile(r"e(\d+)(?:\^(-?\d+))?\Z")


def parse_word(text, params):
    """Parse whitespace-separated tokens e<color> or e<color>^<exp>."""
    letters = []
    for token in text.split():
        match = _TOKEN.match(token)
        if match is None:
            raise WordSyntaxError(f"bad token {token!r}")
        color = int(match.group(1))
        exp = int(match.group(2)) if match.group(2) is not None else 1
        if color >= params.n:
            raise WordSyntaxError(f"color {color} outside 0..{params.n - 1}")
        if exp == 0:
            raise WordSyntaxError(f"zero exponent in {token!r}")
        letters.append((color, exp))
    return Word(params, tuple(letters))


def format_word(word):
    return " ".join(
        f"e{c}" if e == 1 else f"e{c}^{e}" for c, e in word.letters
    )


@dataclass(frozen=True)
class PackedElement:
    """Pair (v, a): per-orbit signed letter counts plus the weight.

    The product rule is (v, a)(w, b) = (v + w, t^|w| a + b) with |w| the sum
    of the entries of w; this matches concatenation of words, and the pair
    determines the group element completely.
    """

    params: LinearAlexanderParams
    v: tuple[int, ...]
    a: int

    def __post_init__(self):
        m = self.params.num_orbits
        v = tuple(int(x) for x in self.v)
        if len(v) != m:
            raise LengthMismatchError(f"vector has {len(v)} entries, expected {m}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "a", self.a % self.params.n)

    @property
    def degree(self):
        return sum(self.v)

    @classmethod
    def identity(cls, params):
        return cls(params, (0,) * params.num_orbits, 0)

    def __mul__(self, other):
        if self.params != other.params:
            raise ValueError("elements from different quandles")
        n, t = self.params.n, self.params.t
        return PackedElement(
            self.params,
            tuple(x + y for x, y in zip(self.v, other.v)),
            (pow(t, other.degree, n) * self.a + other.a) % n,
        )

    def inverse(self):
        n, t = self.params.n, self.params.t
        return PackedElement(
            self.params,
            tuple(-x for x in self.v),
            -pow(t, -self.degree, n) * self.a % n,
        )


def word_eval(word):
    """Fold a word into its PackedElement.

    Per letter e_x^e: the orbit coordinate x mod m gains e, and the weight
    folds as a |-> t^e a + q(e) x.  Concatenation of words corresponds to
    multiplication of the results.
    """
    params = word.params
    n, t, m = params.n, params.t, params.num_orbits
    v = [0] * m
    a = 0
    # unit letters fold without pow; other exponents are looked up once
    # per word: exp -> (t^exp, q(exp))
    t_inv = consts = None
    for color, exp in word.letters:
        v[color % m] += exp
        if exp == 1:
            a = (t * a + color) % n
        elif exp == -1:
            if t_inv is None:
                t_inv = pow(t, -1, n)
            a = t_inv * (a - color) % n
        else:
            if consts is None:
                consts = {}
            c = consts.get(exp)
            if c is None:
                c = consts[exp] = (pow(t, exp, n), geometric_sum(t, exp, n))
            a = (c[0] * a + c[1] * color) % n
    return PackedElement(params, tuple(v), a)


def degree_weight(word):
    """The pair (degree, weight) of a word: its PackedElement collapsed to Z x| Z/n."""
    packed = word_eval(word)
    return packed.degree, packed.a


def base_weight(params, v):
    """Weight of e_{m-1}^{v_{m-1}} ... e_1^{v_1} e_0^{v_0 - 1} e_0.

    This is the polynomial sum_{r>=1} q(v_r) * t^(v_0 + ... + v_{r-1}) * r;
    the weight of the full canonical word is this value plus the trailing
    color.
    """
    m = params.num_orbits
    if len(v) != m:
        raise LengthMismatchError(f"vector has {len(v)} entries, expected {m}")
    n, t = params.n, params.t
    total = 0
    acc = v[0]
    for r in range(1, m):
        total = (total + geometric_sum(t, v[r], n) * pow(t, acc, n) * r) % n
        acc += v[r]
    return total


def canonical_word(packed):
    """Unique word e_{m-1}^{v_{m-1}} ... e_1^{v_1} e_0^{v_0-1} e_d for a packed pair.

    The trailing color d = a - base_weight(v) must be a multiple of m (the
    image of 1-t); otherwise the pair is not realized by any group element
    and NotInImageError is raised.  When d == 0 the trailing letter merges
    into the e_0 block, so the identity becomes the empty word.
    """
    params = packed.params
    n, m = params.n, params.num_orbits
    v = packed.v
    d = (packed.a - base_weight(params, v)) % n
    if d % m:
        raise NotInImageError(
            f"weight {packed.a} is not reachable from abelianization {v}"
        )
    letters = []
    for r in range(m - 1, 0, -1):
        if v[r]:
            letters.append((r, v[r]))
    head = v[0] - 1
    if d == 0:
        head += 1
        if head:
            letters.append((0, head))
    else:
        if head:
            letters.append((0, head))
        letters.append((d, 1))
    return Word(params, tuple(letters))


def act(x, word):
    """Right action of a word on a quandle element: t^deg x + (1-t) * weight."""
    params = word.params
    n, t = params.n, params.t
    packed = word_eval(word)
    return (pow(t, packed.degree, n) * x + (1 - t) * packed.a) % n


def central_power_degree(params):
    """Smallest d >= 1 with e_x^d central for every color x.

    A power e_x^d commutes with everything iff it acts trivially on the
    quandle, which for the twist t happens exactly when t^d == 1 mod n, so
    d is the multiplicative order of t.
    """
    return multiplicative_order(params.t, params.n)


def section(params, k, a):
    """The word e_0^(k-1) e_a, a set-theoretic section of degree_weight."""
    a = a % params.n
    letters = []
    if k != 1:
        letters.append((0, k - 1))
    letters.append((a, 1))
    return Word(params, tuple(letters))


def generator(params, x, exp=1):
    """Single-letter word e_x^exp."""
    return Word(params, ((x % params.n, exp),))


@dataclass(frozen=True)
class RewriteStep:
    """One rewriting move: the rule applied and the word after the move."""

    rule: str
    word: Word
    note: str = ""


def merge_letters(letters):
    """Merge adjacent letters of one color, dropping those that cancel.

    This is free reduction: e_x^a e_x^b = e_x^(a+b), and e_x^0 is empty.
    """
    merged = []
    for c, e in letters:
        if merged and merged[-1][0] == c:
            total = merged[-1][1] + e
            if total:
                merged[-1] = (c, total)
            else:
                merged.pop()
        elif e:
            merged.append((c, e))
    return tuple(merged)


def _token(color, exp=1):
    return f"e{color}" if exp == 1 else f"e{color}^{exp}"


def rewrite_trace(word):
    """Rewrite a word into its canonical form, logging every move.

    The strategy mirrors the normal-form construction:

    1. Sort the letters into descending-orbit blocks, orbit m-1 leftmost,
       inserting them from the right into the sorted suffix.  A letter
       crosses the whole block B of higher-orbit letters in one ``braid``
       step, the conjugation law e_x^e B = B e_{x.B}^e with
       x.B = t^deg(B) x + (1-t) w(B).
    2. Clear negative exponents with ``central-power`` steps: since e_c^d
       is central and equals e_r^d for r = c mod m (d the order of t),
       e_c^e becomes e_c^(e + xi*d) while e_r^(-xi*d) is inserted on the
       left.  If no orbit-0 letter is left, the central pair
       e_0^-d ... e_0^d is inserted around the word.
    3. Shift every run to its orbit representative with one ``relation``
       step per run: e_{x+s} e_x^(k-1) e_y = e_r^k e_{y'}, where r = x mod m,
       s is the shift carried in from the left, and
       y' = y + t^k s + t q(k) (x - r).  For k = 1 and s = 0 this is the
       two-letter shift e_x e_y = e_r e_{y + t (x - r)}.  The trailing
       unit of the last run is the final letter and is not shifted.
    4. Cancel the central insertions into the blocks (``central-power``).

    Every intermediate word evaluates to the same PackedElement as the
    input, and the number of steps grows with the number of letters and
    runs, not with their exponents.

    Returns (canonical word, tuple of RewriteStep).
    """
    params = word.params
    target = canonical_word(word_eval(word))
    if word.letters == target.letters:
        return target, ()
    n, t = params.n, params.t
    m = params.num_orbits
    d = central_power_degree(params)

    steps = []
    prefix = {}  # orbit representative -> accumulated central exponent (< 0)

    def snapshot(rule, body, note):
        # the central prefix letters lead, in orbit order; a move that only
        # merges letters of one color leaves no step
        central = [(r, prefix[r]) for r in sorted(prefix) if prefix[r]]
        letters = merge_letters(central + body)
        if letters != (steps[-1].word.letters if steps else merge_letters(word.letters)):
            steps.append(RewriteStep(rule, Word(params, letters), note))

    # 1. block braids; blocks[r] holds the orbit-r letters of the sorted
    #    suffix right to left, with its degree and weight
    letters = word.letters
    blocks = [[] for _ in range(m)]
    block_deg = [0] * m
    block_weight = [0] * m

    def sorted_suffix():
        return [letter for r in range(m - 1, -1, -1) for letter in reversed(blocks[r])]

    for i in range(len(letters) - 1, -1, -1):
        x, e = letters[i]
        orbit = x % m
        deg = weight = crossed = 0
        for r in range(m - 1, orbit, -1):
            if blocks[r]:
                weight = (pow(t, block_deg[r], n) * weight + block_weight[r]) % n
                deg += block_deg[r]
                crossed += len(blocks[r])
        y = (pow(t, deg, n) * x + (1 - t) * weight) % n
        block_weight[orbit] = (
            pow(t, block_deg[orbit], n) * geometric_sum(t, e, n) * y
            + block_weight[orbit]
        ) % n
        block_deg[orbit] += e
        blocks[orbit].append((y, e))
        if crossed:
            snapshot(
                "braid",
                list(letters[:i]) + sorted_suffix(),
                f"{_token(x, e)} moves right past {crossed} "
                f"letter{'s' if crossed > 1 else ''} of higher orbits "
                f"and becomes {_token(y, e)}",
            )

    # 2. clear negative exponents with central powers e_r^d
    body = [list(letter) for letter in merge_letters(sorted_suffix())]
    for pair in body:
        c, e = pair
        if e < 0:
            xi = (-e + d - 1) // d
            r = c % m
            prefix[r] = prefix.get(r, 0) - xi * d
            pair[1] = e + xi * d
            snapshot(
                "central-power",
                body,
                f"insert {_token(r, -xi * d)} on the left, "
                f"raise {_token(c, e)} to {_token(c, pair[1])}",
            )
    runs = list(merge_letters(body))

    # the final sweep needs an orbit-0 letter at the right end
    if not any(c % m == 0 for c, _ in runs):
        prefix[0] = prefix.get(0, 0) - d
        runs.append((0, d))
        snapshot(
            "central-power",
            runs,
            f"insert the central pair {_token(0, -d)} ... {_token(0, d)}",
        )

    # 3. shift every run to its orbit representative; the trailing unit of
    #    the last run is the final letter and only absorbs the carried shift
    x, k = runs[-1]
    runs[-1:] = [(x, k - 1), (x, 1)] if k > 1 else [(x, 1)]
    done = []
    carry = 0
    for i in range(len(runs) - 1):
        x, k = runs[i]
        r = x % m
        z = (x + carry) % n
        carry = (pow(t, k, n) * carry + t * geometric_sum(t, k, n) * (x - r)) % n
        done.append((r, k))
        if z != r or (k > 1 and x != r):
            y, f = runs[i + 1]
            shifted = (y + carry) % n
            rest = [(y, f - 1)] if f > 1 else []
            run = [_token(z)] + ([_token(x, k - 1)] if k > 1 else [])
            snapshot(
                "relation",
                done + [(shifted, 1)] + rest + runs[i + 2 :],
                f"shift {' '.join(run)} {_token(y)} to {_token(r, k)} {_token(shifted)}",
            )
    body = [list(letter) for letter in merge_letters(done + [((runs[-1][0] + carry) % n, 1)])]

    # 4. cancel the central prefix into the blocks
    for r in sorted(prefix, reverse=True):
        cr = prefix.pop(r)
        if cr == 0:
            continue
        slot = None
        for idx, (c, _) in enumerate(body):
            if c == r:
                slot = idx
                break
        if slot is None:
            # the block emptied out; re-insert at its sorted position
            slot = 0
            while slot < len(body) and body[slot][0] % m > r:
                slot += 1
            body.insert(slot, [r, cr])
        else:
            body[slot][1] += cr
            if body[slot][1] == 0:
                del body[slot]
        snapshot("central-power", body, f"cancel {_token(r, cr)} into its block")

    final = Word(params, merge_letters(body))
    if final.letters != target.letters:
        raise AssertionError(
            f"rewriting produced {final} but the canonical word is {target}"
        )
    return final, tuple(steps)
