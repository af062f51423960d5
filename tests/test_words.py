import itertools
import random

import pytest

from quandlehom.checks import (
    check_rewriting,
    check_word_laws,
    rule_violation,
    trace_violation,
    unit_pairs,
)
from quandlehom.cocycle import extension_cocycle, kernel_lattice_basis
from quandlehom.errors import (
    LengthMismatchError,
    NotInImageError,
    WordSyntaxError,
)
from quandlehom.intlinalg import multiplicative_order
from quandlehom.quandle import LinearAlexanderParams, build_alexander
from quandlehom.words import (
    PackedElement,
    RewriteStep,
    Word,
    act,
    canonical_word,
    format_word,
    geometric_sum,
    generator,
    merge_letters,
    parse_word,
    rewrite_trace,
    section,
    word_eval,
)

P43 = LinearAlexanderParams(4, 3)
P94 = LinearAlexanderParams(9, 4)


def weight_oracle(word):
    # independent route: expand to unit letters and use the suffix-sum form
    # w(e_{x1}^s1 ... e_derivates) = sum_i t^(deg of suffix after i) * w(e_xi^si)
    n, t = word.params.n, word.params.t
    units = []
    for c, e in word.letters:
        units.extend([(c, 1 if e > 0 else -1)] * abs(e))
    tinv = pow(t, -1, n)
    total = 0
    for i, (c, s) in enumerate(units):
        suffix_degree = sum(sig for _, sig in units[i + 1 :])
        base = c if s == 1 else -tinv * c
        total += pow(t, suffix_degree, n) * base
    return total % n


def act_oracle(x, word):
    # independent route: walk the operation table one unit letter at a time
    quandle = build_alexander(word.params)
    n = word.params.n
    for c, e in word.letters:
        if e > 0:
            for _ in range(e):
                x = quandle.table[x][c]
        else:
            column = {quandle.table[y][c]: y for y in range(n)}
            for _ in range(-e):
                x = column[x]
    return x


def random_word(params, rng, max_len=10):
    return Word(
        params,
        tuple(
            (rng.randrange(params.n), rng.choice((1, -1)))
            for _ in range(rng.randint(0, max_len))
        ),
    )


def test_word_validation():
    for letters in (((4, 1),), ((-1, 1),), ((1, 0),), ((0, 0),)):
        with pytest.raises(WordSyntaxError):
            Word(P43, letters)
    with pytest.raises(WordSyntaxError):
        generator(P43, 0, 0)
    # entries must be ints as they are: no truncated floats, parsed strings or bools
    for letters in (((1.7, 1),), ((1, 1.0),), (("1", 1),), ((True, 1),), ((1, True),)):
        with pytest.raises(TypeError):
            Word(P43, letters)
    assert Word(P43).letters == ()
    assert Word(P43, [[3, -2], (0, 1)]).letters == ((3, -2), (0, 1))


def test_packed_element_validation():
    with pytest.raises(LengthMismatchError):
        PackedElement(P43, (1,), 0)
    for v, a in (
        ((1.5, 2), 0),
        (("1", 2), 0),
        ((True, 0), 0),
        ((1, 2), 2.5),
        ((1, 2), "2"),
        ((1, 2), False),
        ((1.5, "2"), 2.5),
    ):
        with pytest.raises(TypeError):
            PackedElement(P43, v, a)
    packed = PackedElement(P43, [1, -2], -1)
    assert packed.v == (1, -2) and packed.a == 3


def test_adopted_words_pass_the_checks():
    # words the package builds skip the checks, so each must be one that
    # the checked constructor accepts as it is
    rng = random.Random(13)
    for params in (P43, P94, LinearAlexanderParams(12, 5), LinearAlexanderParams(8, 5)):
        for _ in range(40):
            letters = [
                (rng.randrange(params.n), rng.choice((1, -1, 2, -3, 5)))
                for _ in range(rng.randint(0, 12))
            ]
            word = parse_word(format_word(Word(params, letters)), params)
            final, steps = rewrite_trace(word)
            adopted = [word, final, word.inverse(), word * final]
            adopted += [canonical_word(word_eval(word))] + [step.word for step in steps]
            for w in adopted:
                assert Word(params, w.letters) == w
                assert all(type(c) is int and type(e) is int for c, e in w.letters)


def test_generator_and_section_refuse_bad_ints():
    # both check their own ints before adopting the word they build
    for bad in (1.5, 2.0, "1", True, False):
        for call in (
            lambda: generator(P43, bad),
            lambda: generator(P43, 1, bad),
            lambda: section(P43, bad, 1),
            lambda: section(P43, 1, bad),
        ):
            with pytest.raises(TypeError):
                call()
    with pytest.raises(WordSyntaxError):
        generator(P43, 1, 0)


def test_generator_and_section_words_pass_the_checks():
    for params in (P43, P94, LinearAlexanderParams(1, 0)):
        words = [
            generator(params, x, exp)
            for x in range(-params.n, 2 * params.n)
            for exp in (-3, -1, 1, 2, 7)
        ]
        words += [
            section(params, k, a)
            for k in range(-3, 4)
            for a in range(-params.n, 2 * params.n)
        ]
        for w in words:
            assert Word(params, w.letters) == w
            assert all(type(c) is int and type(e) is int for c, e in w.letters)


def test_adopted_packed_elements_pass_the_checks():
    # elements the package builds skip the checks, so each must be one that
    # the checked constructor accepts as it is; the pairs are those of the
    # rewrite-trace benchmark corpus, with m = 4, 3, 4, 2, 1, 1, 2, 3
    rng = random.Random(29)
    for n, t in ((8, 5), (9, 4), (12, 5), (10, 3), (7, 3), (9, 2), (6, 5), (15, 4)):
        params = LinearAlexanderParams(n, t)
        adopted = [PackedElement.identity(params)] + kernel_lattice_basis(params)
        for _ in range(30):
            w1, w2 = (
                Word(
                    params,
                    [
                        (rng.randrange(n), rng.choice((1, -1, 2, -3, 5)))
                        for _ in range(rng.randint(0, 12))
                    ],
                )
                for _ in range(2)
            )
            p, q = word_eval(w1), word_eval(w2)
            alpha = (rng.randint(-3, 3), rng.randrange(n))
            beta = (rng.randint(-3, 3), rng.randrange(n))
            adopted += [p, q, p * q, p.inverse(), q.inverse() * p]
            adopted.append(extension_cocycle(params, alpha, beta))
        for packed in adopted:
            assert PackedElement(params, packed.v, packed.a) == packed
            assert type(packed.v) is tuple and len(packed.v) == params.num_orbits
            assert all(type(x) is int for x in packed.v) and type(packed.a) is int
            assert 0 <= packed.a < n


def test_word_eval_examples():
    assert word_eval(generator(P43, 0)) == PackedElement(P43, (1, 0), 0)
    assert word_eval(parse_word("e1 e2", P43)) == PackedElement(P43, (1, 1), 1)
    assert word_eval(parse_word("e1^-1", P43)) == PackedElement(P43, (0, -1), 1)


def test_word_eval_weight_matches_suffix_formula():
    rng = random.Random(99)
    for params in (P43, P94, LinearAlexanderParams(12, 5), LinearAlexanderParams(7, 3)):
        for _ in range(200):
            w = random_word(params, rng)
            assert word_eval(w).a == weight_oracle(w)


def test_word_eval_multiplicative():
    rng = random.Random(5)
    for params in (P43, P94, LinearAlexanderParams(11, 3)):
        for _ in range(300):
            w1 = random_word(params, rng)
            w2 = random_word(params, rng)
            assert word_eval(w1 * w2) == word_eval(w1) * word_eval(w2)
            assert word_eval(w1.inverse()) == word_eval(w1).inverse()


def test_generators_pairwise_distinct():
    for params in (P43, P94, LinearAlexanderParams(12, 7)):
        packed = [word_eval(generator(params, x)) for x in range(params.n)]
        assert len(set(packed)) == params.n


def test_word_laws_check():
    # among them: e_x are pairwise distinct, and section(k, a) evaluates to
    # degree k and weight a for -5 <= k <= 5 and every weight a
    rng = random.Random(11)
    for params in (P43, P94, LinearAlexanderParams(12, 7)):
        result = check_word_laws(params, rng)
        assert result.passed, result.failures


def collapse(packed):
    return packed.degree, packed.a


def test_degree_weight_examples():
    for a in range(4):
        f = collapse(word_eval(generator(P43, a)))
        assert f == (1, a)
    f = collapse(word_eval(Word(P43)))
    assert f == (0, 0)
    f = collapse(word_eval(parse_word("e0 e3", P43)))
    assert f == (2, 3)
    assert collapse(word_eval(section(P43, 2, 3))) == f


def test_degree_weight_section_surjective():
    for params in (P43, P94):
        for k in range(-5, 6):
            for a in range(params.n):
                assert collapse(word_eval(section(params, k, a))) == (k, a)


def test_semidirect_arithmetic():
    # Z x| Z/n is the degree collapse of PackedElement's product law
    x = word_eval(section(P43, 1, 0))
    y = word_eval(section(P43, 1, 1))
    assert collapse(x * y) == (2, 1)
    assert collapse(y.inverse()) == (-1, 1)
    assert y * y.inverse() == PackedElement.identity(P43)
    # the law is that of one quandle: factors from another are refused
    other = LinearAlexanderParams(8, 3)
    with pytest.raises(ValueError, match="^elements from different quandles$"):
        x * PackedElement.identity(other)
    with pytest.raises(ValueError, match="^words from different quandles$"):
        section(P43, 1, 0) * section(other, 1, 0)
    for a in range(4):
        for p in range(-2, 3):
            for c in range(4):
                g = word_eval(section(P43, p, c))
                conj = g.inverse() * word_eval(section(P43, 0, a)) * g
                assert collapse(conj) == (0, pow(3, p, 4) * a % 4)


def test_canonical_word_examples():
    assert canonical_word(PackedElement(P43, (1, 1), 1)).letters == ((1, 1), (2, 1))
    assert canonical_word(PackedElement(P43, (0, 0), 0)).letters == ()
    with pytest.raises(NotInImageError):
        canonical_word(PackedElement(P43, (1, 1), 0))


def block_weight(params, v):
    # closed form of the weight of e_{m-1}^{v_{m-1}} ... e_1^{v_1} e_0^{v_0}:
    # sum_{r>=1} q(v_r) * t^(v_0 + ... + v_{r-1}) * r, q the geometric sum
    n, t = params.n, params.t
    total = 0
    acc = v[0]
    for r in range(1, params.num_orbits):
        total = (total + geometric_sum(t, v[r], n) * pow(t, acc, n) * r) % n
        acc += v[r]
    return total


def test_base_weight_examples():
    # the weight of the letter blocks e_{m-1}^{v_{m-1}} ... e_0^{v_0}, from the
    # closed form and from word_eval of the block word (what canonical_word uses)
    for params, v, weight in (
        (P94, (5, 0, 0), 0),
        (P43, (1, 1), 3),
        (P43, (-1, 1), 3),
    ):
        assert block_weight(params, v) == weight
        blocks = [(r, v[r]) for r in range(len(v) - 1, -1, -1) if v[r]]
        assert word_eval(Word(params, blocks)).a == weight
    with pytest.raises(LengthMismatchError):
        canonical_word(PackedElement(P43, (1, 1, 1), 0))


def test_canonical_word_weight_decomposition():
    # the weight of e_{m-1}^{v2} e_1^{v1} e_0^{v0-1} e_d is block_weight(v) + d,
    # which canonical_word inverts to find d
    params = P94
    n, m = params.n, params.num_orbits
    for v in itertools.product(range(-2, 3), repeat=m):
        for d in range(0, n, m):
            letters = []
            for r in range(m - 1, 0, -1):
                if v[r]:
                    letters.append((r, v[r]))
            if v[0] - 1:
                letters.append((0, v[0] - 1))
            letters.append((d, 1))
            packed = word_eval(Word(params, tuple(letters)))
            assert packed.a == (block_weight(params, v) + d) % n
            assert packed.v == v
            assert canonical_word(packed).letters == merge_letters(letters)


def test_canonical_word_roundtrip_random():
    rng = random.Random(17)
    for params in (P43, P94, LinearAlexanderParams(12, 5), LinearAlexanderParams(5, 2)):
        for _ in range(300):
            packed = word_eval(random_word(params, rng))
            cw = canonical_word(packed)
            assert word_eval(cw) == packed
            assert canonical_word(word_eval(cw)).letters == cw.letters


def test_act_examples():
    assert act(1, word_eval(Word(P43))) == 1
    assert act(1, word_eval(generator(P43, 2))) == 3
    assert act(0, word_eval(parse_word("e1 e2", P43))) == 2


def test_act_matches_table_walk():
    rng = random.Random(23)
    for params in (P43, P94, LinearAlexanderParams(6, 5)):
        for _ in range(100):
            w = random_word(params, rng, 6)
            packed = word_eval(w)
            for x in range(params.n):
                assert act(x, packed) == act_oracle(x, w)


def test_conjugation_rule():
    # e_x g = g e_{x . g} under evaluation
    rng = random.Random(31)
    for params in (P43, P94):
        for _ in range(200):
            g = random_word(params, rng)
            packed = word_eval(g)
            for x in range(params.n):
                left = word_eval(generator(params, x) * g)
                right = word_eval(g * generator(params, act(x, packed)))
                assert left == right


def test_central_power_degree_examples():
    # the order of t: e_x^d is central exactly when t^d == 1 mod n
    assert multiplicative_order(1, 6) == 1
    assert multiplicative_order(P43.t, P43.n) == 2
    assert multiplicative_order(P94.t, P94.n) == 3


def test_section_examples():
    assert section(P43, 1, 2).letters == ((2, 1),)
    assert section(P43, 2, 3).letters == ((0, 1), (3, 1))
    assert section(P43, 0, 0).letters == ((0, -1), (0, 1))
    assert word_eval(section(P43, 0, 0)) == PackedElement.identity(P43)


def test_section_conjugation_degree_one():
    # closed form (k, a)^(p, c) = (k, t^p a + (1 - t^k) c) at k = 1
    for params in (P43, LinearAlexanderParams(8, 3)):
        n, t = params.n, params.t
        for a in range(n):
            for p in range(-2, 3):
                for c in range(n):
                    s_gamma = section(params, p, c)
                    left = word_eval(
                        s_gamma.inverse() * section(params, 1, a) * s_gamma
                    )
                    conj = pow(t, p, n) * a + (1 - t) * c
                    assert left == word_eval(section(params, 1, conj))


def test_kernel_words_are_central():
    # degree and weight zero forces commutation with every generator
    rng = random.Random(41)
    for params in (P43, P94):
        for _ in range(100):
            w = random_word(params, rng, 6)
            packed = word_eval(w * w.inverse())
            assert packed == PackedElement.identity(params)
        for v in itertools.product(range(-2, 3), repeat=params.num_orbits):
            if sum(v) != 0:
                continue
            try:
                g = canonical_word(PackedElement(params, v, 0))
            except NotInImageError:
                continue
            for x in range(params.n):
                assert word_eval(generator(params, x) * g) == word_eval(
                    g * generator(params, x)
                )


def test_rewrite_trace_examples():
    final, steps = rewrite_trace(parse_word("e2 e3", P43))
    assert format_word(final) == "e1 e2"
    assert steps
    # already-canonical input comes back untouched
    final, steps = rewrite_trace(parse_word("e1 e2", P43))
    assert format_word(final) == "e1 e2"
    assert steps == ()
    # braided variants land on the same canonical word: 1 <| 2 = 3
    one, _ = rewrite_trace(parse_word("e1 e2", P43))
    two, _ = rewrite_trace(parse_word("e2 e3", P43))
    assert one.letters == two.letters


def test_rewrite_trace_preserves_value():
    rng = random.Random(53)
    for params in (P43, P94, LinearAlexanderParams(12, 5), LinearAlexanderParams(6, 1)):
        result = check_rewriting(params, rng, samples=150)
        assert result.passed, result.failures


def test_forged_traces_break_legality():
    word = parse_word("e5^-1 e0 e7 e3^-2", P94)
    final, steps = rewrite_trace(word)
    assert trace_violation(word, final, steps) is None
    assert [step.rule for step in steps[:3]] == ["braid", "central-power", "central-power"]
    # skipping a step: two central insertions in one move
    assert trace_violation(word, final, steps[:1] + steps[2:]) is not None
    # the braid of e0 past e7 (another orbit) under a wrong rule name
    for rule in ("relation", "central-power"):
        forged = (RewriteStep(rule, steps[0].word, steps[0].note),) + steps[1:]
        assert trace_violation(word, final, forged) is not None
    # a braid that lands on a wrong color of the right orbit
    assert steps[0].word.letters == ((5, -1), (7, 1), (6, 1), (3, -2))
    wrong = Word(P94, ((5, -1), (7, 1), (3, 1), (3, -2)))
    assert rule_violation(word, wrong, "braid") is not None
    # cubes are central for Z/9 with twist 4, so this wrong color even keeps
    # the value: only the rule form tells it from e0^3 e1 = e1 e6^3
    before = parse_word("e0^3 e1", P94)
    right, wrong = parse_word("e1 e6^3", P94), parse_word("e1 e3^3", P94)
    assert word_eval(wrong) == word_eval(before) == word_eval(right)
    assert rule_violation(before, right, "braid") is None
    assert rule_violation(before, wrong, "braid") is not None
    assert rule_violation(before, before, "braid") is not None
    assert rule_violation(before, right, "shuffle") is not None


def test_trace_short_of_the_final_word_is_rejected(monkeypatch):
    word = parse_word("e5^-1 e0 e7 e3^-2", P94)
    final, steps = rewrite_trace(word)
    short = steps[:-1]
    # every step of the short trace is legal; it only stops before the end
    assert trace_violation(word, short[-1].word, short) is None
    assert trace_violation(word, final, short) is not None

    def stop_short(w):
        final, steps = rewrite_trace(w)
        return final, steps[:-1]

    monkeypatch.setattr("quandlehom.checks.rewrite_trace", stop_short)
    result = check_rewriting(P94, random.Random(5), samples=40)
    assert result.failures
    assert all("disagrees with the canonical word" in f for f in result.failures)


def test_empty_trace_must_merge_to_the_final_word(monkeypatch):
    word = parse_word("e2 e3", P43)
    final, steps = rewrite_trace(word)
    assert steps and format_word(final) == "e1 e2"
    # dropping every step, with the true final word or a forged one
    assert trace_violation(word, final, ()) is not None
    assert trace_violation(word, parse_word("e0 e1", P43), ()) is not None
    # words that only merge into their canonical form need no step
    for text, merged in (("e1 e1^-1", ""), ("e0 e0 e2", "e0^2 e2")):
        word = parse_word(text, P43)
        final, steps = rewrite_trace(word)
        assert steps == () and format_word(final) == merged
        assert trace_violation(word, final, steps) is None

    monkeypatch.setattr(
        "quandlehom.checks.rewrite_trace", lambda w: (rewrite_trace(w)[0], ())
    )
    result = check_rewriting(P94, random.Random(5), samples=40)
    assert result.failures
    assert all("disagrees with the canonical word" in f for f in result.failures)


def test_rewrite_trace_steps_grow_with_runs():
    params = LinearAlexanderParams(8, 5)
    lengths = []
    for exp in (3000, 6000):
        word = parse_word(f"e1^{exp} e2", params)
        final, steps = rewrite_trace(word)
        assert final.letters == canonical_word(word_eval(word)).letters
        assert trace_violation(word, final, steps) is None
        lengths.append(len(steps))
    assert lengths[0] == lengths[1]
    rng = random.Random(400)
    for params in (P94, LinearAlexanderParams(12, 5)):
        word = Word(
            params,
            tuple((rng.randrange(params.n), rng.choice((1, -1))) for _ in range(400)),
        )
        final, steps = rewrite_trace(word)
        assert final.letters == canonical_word(word_eval(word)).letters
        assert 0 < len(steps) <= 4 * 400


def test_geometric_sum_recurrence():
    for params in unit_pairs(12):
        n, t = params.n, params.t
        assert geometric_sum(t, 0, n) == 0
        for k in range(-40, 41):
            assert geometric_sum(t, k + 1, n) == (geometric_sum(t, k, n) + pow(t, k, n)) % n


def test_word_syntax_roundtrip():
    for text in ("", "e1", "e1 e0^-2 e3", "e0^5 e0^-5", "e2^-1"):
        word = parse_word(text, P43)
        assert format_word(word) == text
        assert parse_word(format_word(word), P43).letters == word.letters


@pytest.mark.parametrize(
    "text",
    # U+3000 IDEOGRAPHIC SPACE and U+001C FILE SEPARATOR are not ASCII whitespace
    ["e", "1", "e-1", "e1^", "e1^0", "e9", "e1 ^2", "f1", "e1\u3000e2", "e1\x1ce2"],
)
def test_word_syntax_rejects(text):
    with pytest.raises(WordSyntaxError):
        parse_word(text, P43)
