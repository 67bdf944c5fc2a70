"""Byte-level goldens for `rank` and `strassen`, one per family engine.

Each case pins the text answer and the exit code, and the sha256 of the
--json answer. The values were recorded before `rank` and `strassen` were
moved onto the shared engine table in `families.analyze`, so they hold the
two verbs to their earlier output; the renamed XaSumB form was recorded
when `rank --json` began to report such forms in their own variables.
"""

import hashlib
import json

import pytest

from apolarity.cli import run
from apolarity.families import MONOMIAL_CITATION

RANK = [
    ("x0^2*x1", 0, "rank = 3 (monomial, certified)\n",
     "d6df7c5a8418132c9b180864df6a15bbed0c57aa7a836f70c5ea684492c04812"),
    ("(a-b)*(a-c)*(b-c)", 0, "rank = 2 (vandermonde, certified)\n",
     "20de07a72eeb3df18e127901a76d8d7bd76aa0a030d4cb27d9dcb4e2031b4582"),
    ("x0^3*(x1^2+x2^2)", 0, "rank = 8 (power-times-sum, certified)\n",
     "982a21785cc110c411e4a77d9dfdedf7dba7af60a2d64e6c37ccf6093ff9e914"),
    ("x0^2*(x1^4+x2^4) + x0^6", 2,
     "7 <= rank <= 8 (power-times-sum, bounds only)\n",
     "d3071273d5be1953a99808079188715a358b745cd390fb75bed17390431b58da"),
    ("x*(y^3+2*z^3)", 0, "rank = 6 (power-times-form, certified)\n",
     "a73b8b9b3607fe9da1b59e0d4071e898bf28415328331f1f45314fbe908cbf51"),
    ("x^3 + x*y^2 + y^3", 0, "rank = 2 (binary, certified)\n",
     "d452301b9cb60545554f02c9092610069e1a31930da2752a3f757b75b313e12c"),
    ("x^2*y+y^2*z+z^2*x", 2, "rank >= 3 (generic, bounds only)\n",
     "d0739ceb2a75b4d2979d5b5b8057bb3f72f7b9c526e4e306285fca93b47263c1"),
    ("x0*x1^2*x2^2", 0, "rank = 9 (monomial, certified)\n",
     "7b18d0207d7987721aa4ad65dbcf3a4357395d2d17a24c22833ef517837ccf16"),
    # an XaSumB form not named x0..xn: --json reports the input form and
    # its own variables in the witness
    ("y*(x^3+z^3)", 0, "rank = 6 (power-times-sum, certified)\n",
     "301b238620d0f46e72a81b9112d82f5d2c5f15264fd4f773ffd57c686347fd8f"),
    # closed-form XaSumB witnesses with b = a, recorded while they were
    # still solved through linalg.solve
    ("x0^4*(x1^4+x2^4)", 0, "rank = 10 (power-times-sum, certified)\n",
     "d530c4015404abe905b8feaa1fa019a1e356b15ddd9985378b09764d6c9e3a35"),
    ("x0^3*(x1^3+x2^3+x3^3)", 0, "rank = 12 (power-times-sum, certified)\n",
     "7f2725d6bea17fefa59cb43cc32419e3ce3394f889d8b37d1014eba90a138378"),
]

STRASSEN = [
    ("x0^2*x1 + y0*y1*y2", 0,
     "block (x0, x1): monomial, rank 3, e options (1)\n"
     "block (y0, y1, y2): monomial, rank 4, e options (1)\n"
     "shared e = 1\nverdict: certified\ntotal rank = 7\n",
     "23dabbef421e648760636c6a47350192894fa7b9d7df85a692aab941a4ccd3d2"),
    ("(x+y)^3 + (x-y)^3 + z^3", 0,
     "block (x, y): binary, rank 2, e options (1)\n"
     "block (z): monomial, rank 1, e options (1, 2)\n"
     "shared e = 1\nverdict: certified\ntotal rank = 3\n",
     "fdde44489bdf6e6dc010d311ccc23c62bf4754609c3d04ad8bfcac0615425b9a"),
    ("x*(y^3+2*z^3) + u^4", 0,
     "block (x, y, z): power-times-form, rank 6, e options (1)\n"
     "block (u): monomial, rank 1, e options (1, 2)\n"
     "shared e = 1\nverdict: certified\ntotal rank = 7\n",
     "38da1149bc2c9c2aba1b9da0b296650e135a210e740b373713d986737fc1a132"),
    ("(a-b)*(a-c)*(b-c) + w^3", 0,
     "block (a, b, c): vandermonde, rank 2, e options (1)\n"
     "block (w): monomial, rank 1, e options (1, 2)\n"
     "shared e = 1\nverdict: certified\ntotal rank = 3\n",
     "9ecb7dc0f4455eaed241cb12b3d4df3624d61076d7de2d09af328d3891424998"),
    ("x0^2*(x1^4+x2^4) + u^6", 0,
     "block (x0, x1, x2): power-times-sum, rank 8, e options (1)\n"
     "block (u): monomial, rank 1, e options (1, 2, 3)\n"
     "shared e = 1\nverdict: certified\ntotal rank = 9\n",
     "0bfa03b96d11544b3c14a164c55d25eb13eb4dce406164c4e79c78df6c1eb0ac"),
    ("x^2*y+y^2*z+z^2*x + u^3", 2,
     "block (x, y, z): generic, rank unknown, e options ()\n"
     "block (u): monomial, rank 1, e options (1, 2)\n"
     "verdict: failed\ninterval = [4, ?]\n"
     "note: a summand has no certified rank, so the interval ends are sums "
     "of the individual bounds; the lower end assumes additivity\n"
     "note: setting the variables of the other summands to zero restricts "
     "any decomposition, so max_i rk(F_i) = 3 is an unconditional lower "
     "bound\n",
     "c78c457f5b34b258b0796837c651d7219738761e2b29f4f231bbd038e0f104e4"),
    ("x0*x1^2*x2^2 + y^5", 0,
     "block (x0, x1, x2): monomial, rank 9, e options (1)\n"
     "block (y): monomial, rank 1, e options (1, 2, 3)\n"
     "shared e = 1\nverdict: certified\ntotal rank = 10\n",
     "5b3b41e1fe08e0c5fd540d2bf3d57b966076ff429c5b27998d84f00ca06f65e8"),
]


# monomials parsed over an extension: over Q(zeta_m) itself, written in
# the generator z, the closed-form points are certified as they were
# solved before; for m <= 2 (and pure powers) the points are +-1, which
# lift into any field; every other extension answers with the cited
# upper bound
EXT = [
    (["rank", "x*y^2", "--ext", "z: z^2+z+1"], 0,
     "rank = 3 (monomial, certified)\n",
     "e35175a1e02df69098b5fbf65842e0cd6c0b8e8affe29baffe5a8b286ee114a3"),
    (["rank", "x*y^2", "--ext", "a: a^2-2"], 0,
     "rank = 3 (monomial, certified)\n",
     "0bc6e3a475c33215eb9b59b4dbcc4d24cf5625a605751535beebce082a4f6deb"),
    (["rank", "x*y^2", "--ext", "w: w^2+w+1"], 0,
     "rank = 3 (monomial, certified)\n",
     "0bc6e3a475c33215eb9b59b4dbcc4d24cf5625a605751535beebce082a4f6deb"),
    (["rank", "x*y", "--ext", "a: a^2-2"], 0,
     "rank = 2 (monomial, certified)\n",
     "3090e8a8b83e2e6619058b3b90f73b28bc61b86668b1651557f276751844b635"),
    (["strassen", "x*y^2 + z^3", "--ext", "a: a^2-2"], 0,
     "block (x, y): monomial, rank 3, e options (1)\n"
     "block (z): monomial, rank 1, e options (1, 2)\n"
     "shared e = 1\nverdict: certified\ntotal rank = 4\n",
     "fda1bf32e49e1b11c5d97229c17a8b049eb91077556cd8638bed75580967717f"),
]


# XaSumB forms whose pivot is not their first variable (the parser orders
# variables by first appearance, so --vars places them), recorded while
# the engine still solved x0^a*(x1^b+...) and moved the answer onto the
# form; now answered on the form itself: solved points, reported with
# coordinate 1 at the pivot,
# plus-power forms (cited and bounds-only), a generic t from three
# generators, an unused variable first, and a form parsed over an
# extension the points do not live in
PIVOT = [
    (["rank", "x1^3*(x0^2 + x2^2)", "--vars", "x0,x1,x2"], 0,
     "rank = 8 (power-times-sum, certified)\n",
     "a1a45ca7897fc41d094afcd65059163db1ec627c6e8ff602848335e5773ef170"),
    (["rank", "x0^2*x1^3 + x1^3*x2^2"], 0,
     "rank = 8 (power-times-sum, certified)\n",
     "a1a45ca7897fc41d094afcd65059163db1ec627c6e8ff602848335e5773ef170"),
    (["rank", "x1^2*(x0^3 + x2^3) + x1^5", "--vars", "x0,x1,x2"], 0,
     "rank = 6 (power-times-sum, certified)\n",
     "d6f7b98526662a5fdea8cbd0aac2597aba0fd5153d43ce77850ca48e87c30df5"),
    (["rank", "x1^2*(x0^4 + x2^4) + x1^6", "--vars", "x0,x1,x2"], 2,
     "7 <= rank <= 8 (power-times-sum, bounds only)\n",
     "7f07aff6c0106a4e14fa664e3b76a2ea62c816939177aa3a45c4e270c4d00dd0"),
    (["rank", "x2^2*(x0^2 + x1^2 + x3^2)", "--vars", "x0,x1,x2,x3",
      "--seed", "5"], 0,
     "rank = 9 (power-times-sum, certified)\n",
     "9f87739381a8daf18977eaa3e8085934deff33d78a8fca5909678c0706bd3dfe"),
    (["rank", "x2^3*(x0^2 + x1^2)", "--vars", "x3,x0,x2,x1"], 0,
     "rank = 8 (power-times-sum, certified)\n",
     "ce8e91539236f00b086559c6db4def93a1fbd90084ba549d96e595861e33622e"),
    (["rank", "x2^3*(x0^2 + x1^2)", "--vars", "x0,x1,x2",
      "--ext", "w: w^2+1"], 0,
     "rank = 8 (power-times-sum, certified)\n",
     "0920f4406e5a3e9bdd49d11a42574368ca706ec2164fcc878fd78c48df27e5e8"),
]


# Vandermonde witnesses in closed form, recorded while the permutation
# points were still solved through linalg.solve
VANDERMONDE = [
    (["vandermonde", "3", "--solve"], 0,
     "V_3: rank = 2 (certified-equal)\nhf:\n0: 1\n1: 1\n2: 0\n3: 0\n4: 0\n",
     "20de07a72eeb3df18e127901a76d8d7bd76aa0a030d4cb27d9dcb4e2031b4582"),
    (["vandermonde", "4", "--solve"], 0,
     "V_4: rank = 6 (certified-equal)\nhf:\n0: 1\n1: 2\n2: 2\n3: 1\n4: 0\n"
     "5: 0\n6: 0\n7: 0\n",
     "6f9e59896e36a0bcffc8042a73fd25eb2988e2e0e6f04c15f08f891c1271470a"),
    (["vandermonde", "5", "--solve"], 0,
     "V_5: rank = 24 (certified-equal)\nhf:\n0: 1\n1: 3\n2: 5\n3: 6\n"
     "4: 5\n5: 3\n6: 1\n7: 0\n8: 0\n9: 0\n10: 0\n11: 0\n",
     "e0ab017852fb95702ecb8b6f8c49e63f3bda8b696364b35a3c0629a2490ed08f"),
]


def go(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("verb,expr,code,text,digest",
                         [("rank",) + case for case in RANK]
                         + [("strassen",) + case for case in STRASSEN])
def test_family_golden(verb, expr, code, text, digest, capsys):
    got_code, out, err = go([verb, expr], capsys)
    assert (got_code, out, err) == (code, text, "")
    got_code, out, err = go([verb, expr, "--json"], capsys)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code,text,digest", PIVOT)
def test_pivot_not_first_golden(argv, code, text, digest, capsys):
    assert go(argv, capsys) == (code, text, "")
    got_code, out, err = go(argv + ["--json"], capsys)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rank_nine_monomial_certified_by_rank_and_strassen(capsys):
    # `rank` and strassen both certify a monomial's closed-form points,
    # whatever its rank
    _, out, _ = go(["rank", "x0*x1^2*x2^2", "--json"], capsys)
    data = json.loads(out)
    assert data["status"] == "certified-equal"
    assert len(data["points"]) == 9
    _, out, _ = go(["strassen", "x0*x1^2*x2^2 + y^5", "--json"], capsys)
    block = json.loads(out)["summands"][0]["certificate"]
    assert block["status"] == "certified-equal"
    assert len(block["points"]) == 9
    assert block["points"] == data["points"]
    assert "cited_rank" not in block


@pytest.mark.parametrize("argv,code,text,digest", VANDERMONDE)
def test_vandermonde_golden(argv, code, text, digest, capsys):
    assert go(argv, capsys) == (code, text, "")
    got_code, out, err = go(argv + ["--json"], capsys)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code,text,digest", EXT)
def test_extension_golden(argv, code, text, digest, capsys):
    assert go(argv, capsys) == (code, text, "")
    got_code, out, err = go(argv + ["--json"], capsys)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,status,points", [
    (["rank", "x*y^2", "--ext", "z: z^2+z+1"], "certified-equal", 3),
    (["rank", "x*y", "--ext", "a: a^2-2"], "certified-equal", 2),
    (["rank", "x*y^2", "--ext", "a: a^2-2"], "cited-upper", 0),
    (["rank", "x*y^2", "--ext", "w: w^2+w+1"], "cited-upper", 0),
])
def test_extension_monomial_status(argv, status, points, capsys):
    _, out, _ = go(argv + ["--json"], capsys)
    data = json.loads(out)
    assert data["status"] == status
    assert len(data["points"]) == points
    if status == "cited-upper":
        assert data["citation"] == MONOMIAL_CITATION
