"""Golden CLI output: stdout pinned byte for byte.

``tests/golden/cli.txt`` holds one block per call: a line ``$ <argv as
JSON>`` followed by the exact stdout of ``cli.main(argv)``.  The calls are
the README examples, every job printed by ``corpus --seed 1 --count 10``,
one call of each subcommand that shares code with another, calls of the
per-vertex (character-indexed) code, ``check-delta`` on a larger list and
with a given ``--w``, ``quasipoly`` on chambers of d = 1 and d = 2 lists,
the chamber lookup on a ray shared by two chambers, and ``wall-jump`` and
``check-continuity`` on the walls of a cone holding the negative x-axis
and of a d = 1 list with its piece on the negative side (``WALLS``), and
count queries far from the origin with the chamber quasi-polynomial they
evaluate (``QUERIES``), and arithmetic Tutte polynomials whose subsets
span lattices of full rank and below it (``ARITH_TUTTE``), and an f~_z
whose characters have order 12 and whose coefficients are declared at
orders 3, 4 and 6 (``ORDERS``); each runs in text and in ``--json`` form.

Print the transcript of the current code (to compare by hand, never to
overwrite the file after a refactor):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from zonotopal.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

ZP = "[[1,0,1,-1],[0,1,1,1]]"
CORPUS = ["corpus", "--seed", "1", "--count", "10"]

README = [
    ["arith-tutte", "--x", ZP],
    ["count", "--x", "[[1,2,4]]", "--u", "[5]"],
    ["bv-count", "--x", "[[1,2,4]]", "--z", "[1]", "--u", "[6]"],
    ["f-tilde", "--x", "[[1,2]]", "--z", "[1]"],
    ["pper-basis", "--x", "[[2]]", "--group", "Z/4"],
    ["vertices", "--x", "[[1,2,4]]"],
    ["check-unity", "--x", ZP],
    ["wall-jump", "--x", "[[1,0,1],[0,1,1]]"],
]

SHARED_CODE = [
    ["dm-basis", "--x", "[[1,0,1],[0,1,2]]"],
    ["pper-internal", "--x", "[[1,0,1],[0,1,1],[0,1,1]]",
     "--group", "Z^2 + Z/2"],
    ["check-continuity", "--x", ZP],
    ["zonotope", "--x", "[[1,2,-1],[1,1,2]]"],
    ["cells", "--x", "[[1,2,-1],[1,1,2]]"],
    ["wall-jump", "--x", "[[1,2,-1],[1,1,2]]"],
    ["check-delta", "--x", "[[1,0,1],[0,1,1]]"],
    ["todd", "--x", "[[1,2]]", "--z", "[1]"],
]

# one Todd series per vertex, f~_z looked up by vertex, the pairing with
# DM(X) keyed on characters; the torsion todd at cap 0 keeps zero components
PER_VERTEX = [
    ["check-deconv", "--x", "[[1,0,1],[0,1,1]]"],
    ["l-map", "--x", "[[1,2]]", "--z", "[1]"],
    ["l-map", "--x", "[[1,2]]", "--p",
     '[{"character": {"theta": ["1/2"], "tors": []}, "poly": '
     '[{"coeff": {"coeffs": ["1"], "order": 1}, "exp": [1]}]}]'],
    ["todd", "--x", "[[1,2],[1,1]]", "--group", "Z+Z/2", "--z", "[1,1]",
     "--cap", "0"],
]

# check-delta on an n = 4 unimodular list, and with a short --w other than
# the default
DELTA = [
    ["check-delta", "--x", "[[1,0,1,0],[0,1,1,1]]"],
    ["check-delta", "--x", "[[1,0,1],[0,1,1]]", "--w", '["1/2","-1/3"]'],
]

# chamber quasi-polynomials: characters of order 2, 3 and 4, and the chamber
# of [1,3] (a sample fit of DM(X) to counts found no unique solution there)
QUASIPOLY = [
    ["quasipoly", "--x", "[[1,2,4]]"],
    ["quasipoly", "--x", ZP, "--u", "[1,2]"],
    ["quasipoly", "--x", "[[1,0,1,1,2],[0,1,1,2,1]]", "--u", "[3,2]"],
    ["quasipoly", "--x", "[[1,0,1,1,2],[0,1,1,2,1]]", "--u", "[1,3]"],
]

# the chamber lookup: cones that contain the negative x-axis, u on a ray
# shared by two chambers, and a boundary z whose count depends on --w
CHAMBER_LOOKUP = [
    ["cells", "--x", "[[-1,-1,-1],[1,-1,0]]"],
    ["quasipoly", "--x", "[[-1,-1,-1],[1,-1,0]]", "--u", "[-2,0]"],
    ["quasipoly", "--x", "[[-1,-1,-1,-2],[1,-1,0,1]]", "--u", "[-2,0]"],
    ["bv-count", "--x", "[[1,0,1],[0,1,1]]", "--z", "[1,0]", "--u", "[3,3]",
     "--w", '["1/3","-1/5"]'],
    ["bv-count", "--x", "[[1,0,1],[0,1,1]]", "--z", "[1,0]", "--u", "[3,3]",
     "--w", '["-1/3","1/5"]'],
    ["bv-count", "--x", "[[-1,-1,-1],[1,-1,0]]", "--z", "[-1,1]", "--u",
     "[-4,0]", "--w", '["-1/5","-1/3"]'],
]

# the walls of a cone that holds the negative x-axis, and of a d = 1 list
# whose piece lies on the negative side of the origin
WALLS = [
    ["wall-jump", "--x", "[[-1,-1,-1],[1,-1,0]]"],
    ["check-continuity", "--x", "[[-1,-1,-1],[1,-1,0]]"],
    ["wall-jump", "--x", "[[-1,-2]]"],
    ["check-continuity", "--x", "[[-1,-2]]"],
]

# count queries at |u| near 10^12, one on a unimodular list and one whose
# quasi-polynomial has characters of order 2 and 3 and a coefficient in
# Q(zeta_3), and that quasi-polynomial
QUERIES = [
    ["bv-count", "--x", "[[1,0,1],[0,1,1]]", "--z", "[1,1]", "--u",
     "[1000000000000,3]"],
    ["bv-count", "--x", "[[1,1,1],[0,2,3]]", "--z", "[1,1]", "--u",
     "[1000000000001,2000000000000]"],
    ["quasipoly", "--x", "[[1,1,1],[0,2,3]]", "--u", "[2,3]"],
]

# multiplicities of full-rank lattices (index 2 and 4 in Z^2 + Z/2) and of
# lattices below full rank, and a list whose free part has rank 1 in Z^2
ARITH_TUTTE = [
    ["arith-tutte", "--x", "[[1,0,1,2],[0,1,1,0],[1,0,1,1]]",
     "--group", "Z^2 + Z/2"],
    ["arith-tutte", "--x", "[[1,2],[2,4]]"],
]


# a coefficient's declared order: the vertices of [12, 2, 3] have characters
# of order 12, and f~_7 prints its coefficients in Q(zeta_4), Q(zeta_3) and
# Q(zeta_6), not in Q(zeta_12)
ORDERS = [
    ["f-tilde", "--x", "[[12,2,3]]", "--z", "[7]"],
]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def corpus_jobs():
    code, out = run(CORPUS)
    assert code == 0
    jobs = []
    for line in out.splitlines():
        job = json.loads(line)
        jobs.append([job["command"], "--x", json.dumps(job["x"]),
                     "--group", job["group"]])
    return jobs


def calls():
    out = []
    for argv in README + [CORPUS] + corpus_jobs() + SHARED_CODE + PER_VERTEX \
            + DELTA + QUASIPOLY + CHAMBER_LOOKUP + WALLS + QUERIES \
            + ARITH_TUTTE + ORDERS:
        out.append(argv)
        if argv != CORPUS:
            out.append(argv + ["--json"])
    return out


def transcript(argvs):
    return "".join(f"$ {json.dumps(a)}\n{run(a)[1]}" for a in argvs)


def expected():
    """[(argv, stdout)] in file order."""
    blocks = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ "):
            blocks.append((json.loads(line[2:]), []))
        else:
            blocks[-1][1].append(line)
    return [(argv, "".join(lines)) for argv, lines in blocks]


def test_golden_covers_every_call():
    assert [argv for argv, _ in expected()] == calls()


@pytest.mark.parametrize("argv,want", expected(),
                         ids=[" ".join(a) for a, _ in expected()])
def test_golden_output(argv, want):
    code, out = run(argv)
    assert code == 0
    assert out == want


if __name__ == "__main__":
    print(transcript(calls()), end="")
