"""Evaluate structure-group words and watch the rewriting reach normal form.

Run:  python demos/normal_forms.py
"""

from quandlehom import (
    LinearAlexanderParams,
    act,
    canonical_word,
    multiplicative_order,
    parse_word,
    rewrite_trace,
    word_eval,
)

params = LinearAlexanderParams(9, 4)
print(f"quandle: twist {params.t} on Z/{params.n}, {params.num_orbits} orbits")
print(f"central power degree (order of t): {multiplicative_order(params.t, params.n)}")
print()

# Every word collapses to a pair (v, a): per-orbit signed letter counts
# plus the twisted weight.  Words with the same pair are equal in the group.
for text in ("e1 e2", "e2 e6", "e5^-1 e0 e7 e3^-2", ""):
    word = parse_word(text, params)
    packed = word_eval(word)
    print(f"word {text!r:24} -> v = {packed.v}, weight = {packed.a}")
print()

# The normal form is e_{m-1}^.. e_1^.. e_0^.. followed by one letter whose
# color is a multiple of m; the rewrite trace shows how to get there using
# only the defining relations and central powers.
word = parse_word("e5^-1 e0 e7 e3^-2", params)
final, steps = rewrite_trace(word)
print(f"rewriting {word} (value {word_eval(word).v}, {word_eval(word).a}):")
for step in steps:
    print(f"  [{step.rule:13}] {step.word}    ({step.note})")
print(f"normal form: {final}")
assert final.letters == canonical_word(word_eval(word)).letters
print()

# Braided variants of a word are equal in the group and reach the same
# normal form: e_a e_b = e_b e_{a <| b}.
a, b = 1, 2
ab = (params.t * a + (1 - params.t) * b) % params.n
left = parse_word(f"e{a} e{b}", params)
right = parse_word(f"e{b} e{ab}", params)
print(f"{left} and {right} evaluate equally: {word_eval(left) == word_eval(right)}")
print("common normal form:", rewrite_trace(left)[0])
print()

# The group acts back on the quandle through degree and weight alone.
word = parse_word("e1 e2", params)
packed = word_eval(word)
print(f"action of {word}: ", [act(x, packed) for x in range(params.n)])
