import itertools
import random

import pytest

from quandlehom.checks import rule_violation, trace_violation, unit_pairs
from quandlehom.errors import (
    LengthMismatchError,
    NotInImageError,
    WordSyntaxError,
)
from quandlehom.quandle import LinearAlexanderParams, build_alexander
from quandlehom.words import (
    PackedElement,
    RewriteStep,
    Word,
    act,
    base_weight,
    canonical_word,
    central_power_degree,
    degree_weight,
    format_word,
    geometric_sum,
    generator,
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
                x = quandle.op(x, c)
        else:
            column = {quandle.op(y, c): y for y in range(n)}
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
    with pytest.raises(WordSyntaxError):
        Word(P43, ((4, 1),))
    with pytest.raises(WordSyntaxError):
        Word(P43, ((1, 0),))
    assert Word(P43).letters == ()


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


def test_degree_weight_examples():
    for a in range(4):
        f = degree_weight(generator(P43, a))
        assert f == (1, a)
    f = degree_weight(Word(P43))
    assert f == (0, 0)
    f = degree_weight(parse_word("e0 e3", P43))
    assert f == (2, 3)
    assert degree_weight(section(P43, 2, 3)) == f


def test_degree_weight_section_surjective():
    for params in (P43, P94):
        for k in range(-5, 6):
            for a in range(params.n):
                f = degree_weight(section(params, k, a))
                assert f == (k, a)


def collapse(packed):
    return packed.degree, packed.a


def test_semidirect_arithmetic():
    # Z x| Z/n is the degree collapse of PackedElement's product law
    x = word_eval(section(P43, 1, 0))
    y = word_eval(section(P43, 1, 1))
    assert collapse(x * y) == (2, 1)
    assert collapse(y.inverse()) == (-1, 1)
    assert y * y.inverse() == PackedElement.identity(P43)
    for a in range(4):
        for p in range(-2, 3):
            for c in range(4):
                g = word_eval(section(P43, p, c))
                conj = g.inverse() * word_eval(section(P43, 0, a)) * g
                assert collapse(conj) == (0, pow(3, p, 4) * a % 4)


def test_base_weight_examples():
    assert base_weight(P94, (5, 0, 0)) == 0
    assert base_weight(P43, (1, 1)) == 3
    assert base_weight(P43, (-1, 1)) == 3
    with pytest.raises(LengthMismatchError):
        base_weight(P43, (1, 1, 1))


def test_canonical_word_examples():
    assert canonical_word(PackedElement(P43, (1, 1), 1)).letters == ((1, 1), (2, 1))
    assert canonical_word(PackedElement(P43, (0, 0), 0)).letters == ()
    with pytest.raises(NotInImageError):
        canonical_word(PackedElement(P43, (1, 1), 0))


def test_canonical_word_weight_decomposition():
    # the weight of e_{m-1}^{v2} e_1^{v1} e_0^{v0-1} e_d is base_weight(v) + d
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
            assert packed.a == (base_weight(params, v) + d) % n
            assert packed.v == v


def test_canonical_word_roundtrip_random():
    rng = random.Random(17)
    for params in (P43, P94, LinearAlexanderParams(12, 5), LinearAlexanderParams(5, 2)):
        for _ in range(300):
            packed = word_eval(random_word(params, rng))
            cw = canonical_word(packed)
            assert word_eval(cw) == packed
            assert canonical_word(word_eval(cw)).letters == cw.letters


def test_act_examples():
    assert act(1, Word(P43)) == 1
    assert act(1, generator(P43, 2)) == 3
    assert act(0, parse_word("e1 e2", P43)) == 2


def test_act_matches_table_walk():
    rng = random.Random(23)
    for params in (P43, P94, LinearAlexanderParams(6, 5)):
        for _ in range(100):
            w = random_word(params, rng, 6)
            for x in range(params.n):
                assert act(x, w) == act_oracle(x, w)


def test_conjugation_rule():
    # e_x g = g e_{x . g} under evaluation
    rng = random.Random(31)
    for params in (P43, P94):
        for _ in range(200):
            g = random_word(params, rng)
            for x in range(params.n):
                left = word_eval(generator(params, x) * g)
                right = word_eval(g * generator(params, act(x, g)))
                assert left == right


def test_central_power_degree_examples():
    assert central_power_degree(LinearAlexanderParams(6, 1)) == 1
    assert central_power_degree(P43) == 2
    assert central_power_degree(P94) == 3


def test_central_powers_commute():
    for params in (P43, P94, LinearAlexanderParams(12, 5)):
        d = central_power_degree(params)
        for x in range(params.n):
            power = generator(params, x, d)
            for y in range(params.n):
                assert act(y, power) == y
                assert word_eval(power * generator(params, y)) == word_eval(
                    generator(params, y) * power
                )
        # powers below d move at least one element
        for smaller in range(1, d):
            assert any(
                act(y, generator(params, x, smaller)) != y
                for x in range(params.n)
                for y in range(params.n)
            )


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
        for _ in range(150):
            w = random_word(params, rng, 10)
            packed = word_eval(w)
            final, steps = rewrite_trace(w)
            assert final.letters == canonical_word(packed).letters
            before = w
            for step in steps:
                assert word_eval(step.word) == packed
                assert step.rule in ("braid", "central-power", "relation")
                assert rule_violation(before, step.word, step.rule) is None
                before = step.word
            assert trace_violation(w, final, steps) is None


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


@pytest.mark.parametrize("text", ["e", "1", "e-1", "e1^", "e1^0", "e9", "e1 ^2", "f1"])
def test_word_syntax_rejects(text):
    with pytest.raises(WordSyntaxError):
        parse_word(text, P43)
