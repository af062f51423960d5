"""Words in the structure group of a linear Alexander quandle.

The structure group is generated by one letter per quandle element, subject
to e_a e_b = e_b e_{a <| b}.  For the quandle t*a + (1-t)*b on Z/n with m
orbits, every group element is pinned down exactly by the pair

    (v, a)  =  (signed letter count per orbit, weight),

where the weight w is the twisted sum w(e_x) = x, w(gh) = t^deg(h) w(g) + w(h).
PackedElement stores that pair; the pair multiplies inside Z^m x| Z/n, and
``canonical_word`` / ``rewrite_trace`` convert back to a unique word per
element, which is what makes the representation usable as a normal form.
``PackedElement.__mul__`` is the one place the product law is written and
``word_eval`` the one fold of a word into it: the (degree, weight) pair of
a word is ``word_eval(word)`` collapsed to Z x| Z/n, and ``canonical_word``
weighs its letter blocks with ``word_eval`` too.
"""

import re
import sys

from ._record import _Record
from .errors import (
    LengthMismatchError,
    NotInImageError,
    WordSyntaxError,
)
from .intlinalg import multiplicative_order
from .quandle import ASCII_FIELD


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


def _require_ints(what, values):
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"{what} entries must be int, got {x!r}")


class Word(_Record):
    """Product of signed generators, stored run-length as (color, exponent).

    Colors lie in 0..n-1 and exponents are nonzero; adjacent letters of the
    same color are legal but not merged automatically.  The empty tuple is
    the group identity.  ``Word(...)`` checks letters from outside; words
    the package builds (parsed, canonical, traced) are adopted unchecked.
    """

    __slots__ = _fields = ("params", "letters")

    def __init__(self, params, letters=()):
        n = params.n
        letters = tuple((c, e) for c, e in letters)
        for c, e in letters:
            _require_ints("letter", (c, e))
            if not 0 <= c < n:
                raise WordSyntaxError(f"color {c} outside 0..{n - 1}")
            if e == 0:
                raise WordSyntaxError("letter exponents must be nonzero")
        self._fill(params, letters)

    @staticmethod
    def _adopt(params, letters):
        """Unchecked: ``letters`` is a package-built tuple of valid int pairs."""
        word = _new(Word)
        _set_word_params(word, params)
        _set_letters(word, letters)
        return word

    # written out, as in LinearAlexanderParams
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters and self.params == other.params

    def __hash__(self):
        return hash((self.params, self.letters))

    def __mul__(self, other):
        if self.params != other.params:
            raise ValueError("words from different quandles")
        return Word._adopt(self.params, self.letters + other.letters)

    def inverse(self):
        return Word._adopt(self.params, inverse_letters(self.letters))

    def __str__(self):
        return format_word(self)


# _adopt's constructor and slot setters, looked up once: a lookup per call
# slows word_eval
_new = object.__new__
_set_word_params, _set_letters = Word._setters


_TOKEN = re.compile(r"e(\d+)(?:\^(-?\d+))?\Z", re.ASCII)


def parse_word(text, params):
    """Parse tokens e<color> or e<color>^<exp> separated by ASCII whitespace.

    Colors and exponents are ASCII decimal integers.  A word is refused
    when sum |e| + n (L + 1), for L letters, reaches 10^limit with limit =
    ``sys.get_int_max_str_digits()`` (4,300 by default, 0 for none): that
    sum bounds every int a report of the word prints (the packed vector,
    the degree, the canonical exponents and the central powers, which add
    at most d <= n per letter), and ints past the limit cannot be printed.
    """
    letters = []
    bound = 0
    for token in ASCII_FIELD.findall(text):
        match = _TOKEN.match(token)
        if match is None:
            raise WordSyntaxError(f"bad token {token!r}")
        try:
            color = int(match.group(1))
            exp = int(match.group(2)) if match.group(2) is not None else 1
        except ValueError:
            raise WordSyntaxError(
                f"a numeral in a {len(token)}-character token is past the integer string limit"
            ) from None
        if color >= params.n:
            raise WordSyntaxError(f"color {color} outside 0..{params.n - 1}")
        if exp == 0:
            raise WordSyntaxError(f"zero exponent in {token!r}")
        letters.append((color, exp))
        bound += abs(exp)
    bound += params.n * (len(letters) + 1)
    # Python 3.10 before 3.10.7 has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 8^limit <= 10^limit: the bit length settles almost every word cheaply
    if limit and bound.bit_length() > 3 * limit and bound >= 10**limit:
        raise WordSyntaxError(
            f"exponents too large: the report would print integers past "
            f"the {limit}-digit integer string limit"
        )
    return Word._adopt(params, tuple(letters))


def _token(color, exp=1):
    return f"e{color}" if exp == 1 else f"e{color}^{exp}"


def format_word(word):
    return " ".join([_token(c, e) for c, e in word.letters])


class PackedElement(_Record):
    """Pair (v, a): per-orbit signed letter counts plus the weight.

    The product rule is (v, a)(w, b) = (v + w, t^|w| a + b) with |w| the sum
    of the entries of w; this matches concatenation of words, and the pair
    determines the group element completely.  ``PackedElement(...)`` checks
    values from outside; elements the package builds (evaluated words,
    products, inverses, cocycle values) are adopted unchecked.
    """

    __slots__ = _fields = ("params", "v", "a")

    def __init__(self, params, v, a):
        m = params.num_orbits
        v = tuple(v)
        _require_ints("vector", v)
        _require_ints("weight", (a,))
        if len(v) != m:
            raise LengthMismatchError(f"vector has {len(v)} entries, expected {m}")
        self._fill(params, v, a % params.n)

    @staticmethod
    def _adopt(params, v, a):
        """Unchecked: ``v`` is a package-built tuple of m ints, 0 <= a < n."""
        packed = _new(PackedElement)
        _set_params(packed, params)
        _set_v(packed, v)
        _set_a(packed, a)
        return packed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.v == other.v and self.params == other.params

    def __hash__(self):
        return hash((self.params, self.v, self.a))

    @property
    def degree(self):
        return sum(self.v)

    @classmethod
    def identity(cls, params):
        return cls._adopt(params, (0,) * params.num_orbits, 0)

    def __mul__(self, other):
        if self.params != other.params:
            raise ValueError("elements from different quandles")
        n, t = self.params.n, self.params.t
        return PackedElement._adopt(
            self.params,
            tuple(x + y for x, y in zip(self.v, other.v)),
            (pow(t, other.degree, n) * self.a + other.a) % n,
        )

    def inverse(self):
        n, t = self.params.n, self.params.t
        return PackedElement._adopt(
            self.params,
            tuple(-x for x in self.v),
            -pow(t, -self.degree, n) * self.a % n,
        )


_set_params, _set_v, _set_a = PackedElement._setters


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
    # unit letters, most of those met, fold without pow
    t_inv = None
    for color, exp in word.letters:
        v[color % m] += exp
        if exp == 1:
            a = (t * a + color) % n
        elif exp == -1:
            if t_inv is None:
                t_inv = pow(t, -1, n)
            a = t_inv * (a - color) % n
        else:
            a = (pow(t, exp, n) * a + geometric_sum(t, exp, n) * color) % n
    return PackedElement._adopt(params, tuple(v), a)


def canonical_word(packed):
    """Unique word e_{m-1}^{v_{m-1}} ... e_1^{v_1} e_0^{v_0-1} e_d for a packed pair.

    The blocks e_{m-1}^{v_{m-1}} ... e_1^{v_1} e_0^{v_0} weigh the same as
    the same blocks ending e_0^{v_0-1} e_0, so the trailing color is
    d = a - (weight of the blocks).  It must be a multiple of m (the image
    of 1-t); otherwise the pair is not realized by any group element and
    NotInImageError is raised.  When d == 0 the trailing letter merges into
    the e_0 block, so the identity becomes the empty word.
    """
    params = packed.params
    n, m = params.n, params.num_orbits
    v = packed.v
    blocks = [(r, v[r]) for r in range(m - 1, -1, -1) if v[r]]
    d = (packed.a - word_eval(Word._adopt(params, tuple(blocks))).a) % n
    if d % m:
        raise NotInImageError(
            f"weight {packed.a} is not reachable from abelianization {v}"
        )
    if d:
        # split the trailing e_d off the e_0 block
        if v[0]:
            blocks.pop()
        if v[0] != 1:
            blocks.append((0, v[0] - 1))
        blocks.append((d, 1))
    return Word._adopt(params, tuple(blocks))


def act(x, packed):
    """Right action of a group element on a quandle element: t^deg x + (1-t) * weight.

    The element is given by its PackedElement; for a word pass ``word_eval(word)``,
    so a caller acting on many points evaluates the word once.
    """
    params = packed.params
    n, t = params.n, params.t
    return (pow(t, packed.degree, n) * x + (1 - t) * packed.a) % n


def section(params, k, a):
    """The word e_0^(k-1) e_a, a set-theoretic section of the (degree, weight) map.

    The int degree k and weight a are checked; the word is adopted.
    """
    _require_ints("section", (k, a))
    a %= params.n
    if k == 1:
        return Word._adopt(params, ((a, 1),))
    return Word._adopt(params, ((0, k - 1), (a, 1)))


def generator(params, x, exp=1):
    """Single-letter word e_x^exp.

    The int color x and nonzero int exponent are checked; the word is adopted.
    """
    _require_ints("generator", (x, exp))
    if exp == 0:
        raise WordSyntaxError("letter exponents must be nonzero")
    return Word._adopt(params, ((x % params.n, exp),))


class RewriteStep(_Record):
    """One rewriting move: the rule applied and the word after the move."""

    __slots__ = _fields = ("rule", "word", "note")

    def __init__(self, rule, word, note=""):
        self._fill(rule, word, note)


def inverse_letters(letters):
    """The letters of the inverse word: reversed, with negated exponents."""
    return tuple([(c, -e) for c, e in reversed(letters)])


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


def _push(stack, c, e):
    """Append e_c^e to a free-reduced list of letters, keeping it reduced."""
    if stack and stack[-1][0] == c:
        total = stack[-1][1] + e
        if total:
            stack[-1] = (c, total)
        else:
            stack.pop()
    elif e:
        stack.append((c, e))


def _join(*parts):
    """merge_letters of the concatenated parts, each one free-reduced already.

    Only the letters that meet at a seam are looked at.  A seam keeps
    merging while its pairs cancel, so it may run on into both parts and
    past a part that cancels away; free reduction is unique, so the result
    is merge_letters of the whole concatenation.
    """
    joined = list(parts[0])
    for part in parts[1:]:
        j = 0
        while joined and j < len(part) and joined[-1][0] == part[j][0]:
            c, e = part[j]
            j += 1
            total = joined[-1][1] + e
            if total:
                joined[-1] = (c, total)
                break
            joined.pop()
        joined += part[j:] if j else part
    return tuple(joined)


def rewrite_trace(word, packed=None):
    """Rewrite a word into its canonical form, logging every move.

    ``packed`` is ``word_eval(word)`` when the caller holds it already.

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

    Each step's word is free-reduced, and a move that only merges letters
    leaves no step.  The parts of a step's word (input prefix, orbit
    blocks, raised body, shifted runs) are kept free-reduced as they are
    built and joined with ``_join``, so a step costs its seams plus its
    output; ``merge_letters`` runs only for the at most m steps of phase 4
    and the final word.

    Returns (canonical word, tuple of RewriteStep).
    """
    params = word.params
    target = canonical_word(word_eval(word) if packed is None else packed)
    if word.letters == target.letters:
        return target, ()
    n, t = params.n, params.t
    m = params.num_orbits
    d = multiplicative_order(t, n)

    steps = []
    prefix = {}  # orbit representative -> accumulated central exponent (< 0)

    def central():
        # the central prefix letters lead the word, in orbit order
        return tuple((r, prefix[r]) for r in sorted(prefix))

    def snapshot(rule, letters, note):
        # a move that only merges letters of one color leaves no step
        nonlocal last
        if letters != last:
            steps.append(RewriteStep(rule, Word._adopt(params, letters), note))
            last = letters

    # head is the free-reduced input prefix; undo[i] turns the head of
    # letters[:i+1] back into that of letters[:i]
    letters = word.letters
    head = []
    undo = []
    for c, e in letters:
        top = head[-1:]
        undo.append((len(head) - len(top), top))
        _push(head, c, e)
    last = tuple(head)

    # 1. block braids; blocks[r] holds the orbit-r letters of the sorted
    #    suffix right to left and free-reduced, with their count, degree
    #    and weight.  The product law is written out inline here: going
    #    through PackedElement and act made rewrite_trace 20-35% slower
    blocks = [[] for _ in range(m)]
    block_len = [0] * m
    block_deg = [0] * m
    block_weight = [0] * m
    for i in range(len(letters) - 1, -1, -1):
        cut, top = undo[i]
        head[cut:] = top
        x, e = letters[i]
        orbit = x % m
        deg = weight = crossed = 0
        for r in range(m - 1, orbit, -1):
            if block_len[r]:
                weight = (pow(t, block_deg[r], n) * weight + block_weight[r]) % n
                deg += block_deg[r]
                crossed += block_len[r]
        y = (pow(t, deg, n) * x + (1 - t) * weight) % n
        block_weight[orbit] = (
            pow(t, block_deg[orbit], n) * geometric_sum(t, e, n) * y
            + block_weight[orbit]
        ) % n
        block_deg[orbit] += e
        block_len[orbit] += 1
        _push(blocks[orbit], y, e)
        if crossed:
            snapshot(
                "braid",
                _join(head, *(block[::-1] for block in reversed(blocks))),
                f"{_token(x, e)} moves right past {crossed} "
                f"letter{'s' if crossed > 1 else ''} of higher orbits "
                f"and becomes {_token(y, e)}",
            )

    # 2. clear negative exponents with central powers e_r^d; runs is the
    #    free-reduced body up to the letter at hand, raised letters included
    body = tuple(letter for block in reversed(blocks) for letter in reversed(block))
    runs = []
    for j, (c, e) in enumerate(body):
        if e < 0:
            xi = (-e + d - 1) // d
            r = c % m
            prefix[r] = prefix.get(r, 0) - xi * d
            _push(runs, c, e + xi * d)
            snapshot(
                "central-power",
                _join(central(), runs, body[j + 1 :]),
                f"insert {_token(r, -xi * d)} on the left, "
                f"raise {_token(c, e)} to {_token(c, e + xi * d)}",
            )
        else:
            _push(runs, c, e)

    # the final sweep needs an orbit-0 letter at the right end
    if not any(c % m == 0 for c, _ in runs):
        prefix[0] = prefix.get(0, 0) - d
        runs.append((0, d))
        snapshot(
            "central-power",
            _join(central(), runs),
            f"insert the central pair {_token(0, -d)} ... {_token(0, d)}",
        )

    # 3. shift every run to its orbit representative; the trailing unit of
    #    the last run is the final letter and only absorbs the carried shift.
    #    done holds the shifted runs free-reduced; runs is free-reduced
    #    except at the split of its last run
    x, k = runs[-1]
    runs[-1:] = [(x, k - 1), (x, 1)] if k > 1 else [(x, 1)]
    lead = central()
    done = []
    carry = 0
    for i in range(len(runs) - 1):
        x, k = runs[i]
        r = x % m
        z = (x + carry) % n
        carry = (pow(t, k, n) * carry + t * geometric_sum(t, k, n) * (x - r)) % n
        _push(done, r, k)
        if z != r or (k > 1 and x != r):
            y, f = runs[i + 1]
            shifted = (y + carry) % n
            rest = [(y, f - 1)] if f > 1 else []
            tail = runs[i + 2 :]
            run = [_token(z)] + ([_token(x, k - 1)] if k > 1 else [])
            snapshot(
                "relation",
                _join(lead, done, [(shifted, 1)], rest, tail[:-1], tail[-1:]),
                f"shift {' '.join(run)} {_token(y)} to {_token(r, k)} {_token(shifted)}",
            )
    _push(done, (runs[-1][0] + carry) % n, 1)
    body = [list(letter) for letter in done]

    # 4. cancel the central prefix into the blocks
    for r in sorted(prefix, reverse=True):
        cr = prefix.pop(r)
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
        snapshot(
            "central-power",
            merge_letters([*central(), *body]),
            f"cancel {_token(r, cr)} into its block",
        )

    final = Word._adopt(params, merge_letters(body))
    if final.letters != target.letters:
        raise AssertionError(
            f"rewriting produced {final} but the canonical word is {target}"
        )
    return final, tuple(steps)
