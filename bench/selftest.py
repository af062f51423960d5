"""Self-test of the benchmark's checks: each must reject a corrupted report.

    python3 bench/selftest.py

For one request of every kind the benchmark issues, the program's real
report must pass its check, and every listed corruption of that report must
fail it.  Exits 1 if any check accepts a corrupted report or rejects a
correct one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import corpus
import reference as ref
from run import OUT, SRC


def _set(path, value):
    """Corruption that replaces report[path...] with value."""

    def mutate(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
        return report

    return mutate


def _drop(path):
    def mutate(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return report

    return mutate


def _run(cli, request):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(request.argv)
    return code, buffer.getvalue()


def main():
    sys.path.insert(0, SRC)
    import quandlehom.cli as cli

    workdir = os.path.join(OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    table = ref.alexander_table(9, 4)
    broken = copy.deepcopy(table)
    broken[2][5] = (broken[2][5] + 1) % 9
    swapped = copy.deepcopy(table)  # a column swap keeps bijectivity: a distributivity witness
    swapped[0][3], swapped[1][3] = swapped[1][3], swapped[0][3]
    paths = {}
    for name, tbl in (("valid", table), ("broken", broken), ("swapped", swapped)):
        paths[name] = os.path.join(workdir, f"{name}.tbl")
        corpus.write_table(paths[name], tbl)

    word = "e5^-1 e0 e7 e3^-2 e8^3 e1"
    cases = [
        (
            corpus.h2_request(9, 4, "chain"),
            [_set(["result", "torsion"], [3, 3]), _set(["result", "rank"], 5), _set(["context", "t"], 7)],
        ),
        (
            corpus.normal_form_request(9, 4, word, False),
            [
                _set(["result", "packed", "a"], lambda a: (a + 3) % 9),
                _set(["result", "packed", "v"], lambda v: [v[0] + 1, v[1] - 1, v[2]]),
                _set(["result", "degree"], lambda d: d + 1),
                _set(["result", "canonical"], word),  # same value, not canonical
                _set(["result", "canonical"], "e2^-1 e1 e0^-2 e6"),  # canonical shape, other value
            ],
        ),
        (
            corpus.normal_form_request(9, 4, word, True),
            [
                _set(["result", "trace", 0, "word"], "e1 e0"),
                _set(["result", "trace", 0, "rule"], "shortcut"),
                _set(["result", "trace"], lambda steps: steps[:-1]),
                _drop(["result", "trace"]),
            ],
        ),
        (
            corpus.orbits_request(12, 5),
            [
                _set(["result", "orbits", 0, 1], 5),
                _set(["result", "m"], 3),
            ],
        ),
        (
            corpus.phi_table_request(8, 5),
            [_set(["result", "table", 3, 6], lambda v: [v[0] + 1, v[1] - 1] + v[2:])],
        ),
        (
            corpus.axioms_request(paths["valid"], table, True),
            [_set(["result", "valid"], False), _set(["result", "n"], 8)],
        ),
        (
            corpus.axioms_request(paths["broken"], broken, False),
            [
                _set(["error", "witness"], [4]),
                _set(["error", "axiom"], "idempotence"),
                _set(["error", "code"], "TableFormat"),
            ],
        ),
        (
            corpus.axioms_request(paths["swapped"], swapped, False),
            [_set(["error", "witness"], [0, 0, 0]), _set(["error", "witness"], [1, 2])],
        ),
        (
            corpus.verify_request(2, 7),
            [
                _set(["result", "cases", 2, "checks"], lambda c: c + 1),
                _set(["result", "cases", 0, "passed"], False),
                _set(["result", "cases"], lambda cases: cases[1:]),
                _set(["result", "summary", "checks"], lambda c: c - 1),
            ],
        ),
    ]

    rejected = 0
    faults = []
    for request, corruptions in cases:
        code, text = _run(cli, request)
        label = " ".join(request.argv[:3])
        problem = request.problem(code, text)
        if problem:
            faults.append(f"{label}: the real report is rejected: {problem}")
            continue
        report = json.loads(text)
        altered = [(json.dumps(c(copy.deepcopy(report)), indent=2) + "\n", code) for c in corruptions]
        # the envelope: exit code, key order, serialization
        altered.append((text, 1 - code if code in (0, 1) else 0))
        altered.append((json.dumps(report) + "\n", code))
        altered.append((json.dumps(dict(reversed(list(report.items()))), indent=2) + "\n", code))
        for i, (bad_text, bad_code) in enumerate(altered):
            if request.problem(bad_code, bad_text):
                rejected += 1
            else:
                faults.append(f"{label}: corruption {i} was accepted")
    for name in paths.values():
        os.remove(name)
    os.rmdir(workdir)
    for fault in faults:
        print(f"FAIL {fault}")
    print(f"{rejected} corrupted reports rejected, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
