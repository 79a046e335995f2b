"""Exit code and stdout sha256 of cheap commands the benchmark pins miss.

tests/test_pinned_reports.py gates the benchmark's ops; these pins cover
the rest of the CLI surface cheaply: jet-space presentations, chart
lifts (one of them refused at its bound), a prolongation, and di, lift
and compat runs at precision 2, over the ramified ring Z_3[x]/(x^2 - 3),
with q = 9, and with independently built lifts.  Every command is one
in-process ``wf.cli.main`` call with WF_THREADS=1, so a byte change to
any of these reports fails here.
"""

import contextlib
import hashlib
import io

import pytest

import wf.cli

PINS = (
    (("jet", "p1", "--p", "3"), 0,
     "0bada37719f2f8e63964b4cd97b2b1ff67f9c81df421417498abd5740a2bc2db"),
    (("jet", "genus2", "--p", "3"), 0,
     "3938abbcd86fd4877b02e9ce727b8b2235eebd5551d8bdc56cbd15585f8541c5"),
    (("jet", "weierstrass", "--p", "5"), 0,
     "0444e936f9817ff840796c389b91c774278a1d05bb2548088d9c2626cb7c27d9"),
    (("lift", "weierstrass", "--p", "3"), 0,
     "99fc0026c9947f31706d63b01c5538f5e0cc3220ced35b04d2322425beebc5ec"),
    (("lift", "p2", "--p", "5"), 0,
     "382a31a9b4772d4499bc6d29ce2bb7bc145eba14db165189fbe8be4fccd3f1bf"),
    (("lift", "a1", "--p", "3", "--deg-bound", "0"), 0,
     "d80409a3080d52c2b82b4cea75ac837abf75c4ce483a20333251e8b59b0b88e0"),
    (("lift", "genus2", "--p", "3"), 0,
     "54003055fca915fa30399d032698f93f9a48fca775e7159c983d045d3f442cc7"),
    (("lift", "gm", "--p", "7"), 0,
     "c5eef624c56a86b33ea40033a62f35c987256fa39a589ca7f43d505446c26a26"),
    (("lift", "weierstrass", "--p", "3", "--deg-bound", "1", "--max-deg", "2"), 3,
     "f92a72526c22429771f8b43845d0560ff2c8f34a80d491a95199624ee8d4d576"),
    (("prolong", "--p", "5", "--m", "2", "--vars", "x,y", "x^3*y^2+7*x-1"), 0,
     "c8af3c657398f0ebcd8b188e61e6ce63dc5cf0fe1ee60f5c679936a80f51602d"),
    (("di", "weierstrass", "--p", "3", "--precision", "2"), 0,
     "5d2c3e58485c3a2bffbc2e3f5b05b1ebbe8d312af71d30556a0b8d0941186a59"),
    (("lift", "weierstrass", "--p", "5", "--precision", "2"), 0,
     "81807d327136d704c4d155034961a00ebbe5a09cbbbb7ac8417f87457aa9f5a4"),
    (("di", "p1", "--p", "3", "--eisenstein=-3,0,1"), 0,
     "2180179ca128bc82fd47f345b82c3ffcd9a7df1bf1f86d0a2cebd157af9026c0"),
    (("compat", "parabola_in_a2", "--p", "3", "--eisenstein=-3,0,1"), 0,
     "495391520b4042773ba50cded58d4cdc6461b37f57c695a048bbe420b4c3ffb2"),
    (("di", "p1", "--p", "3", "--m", "2"), 0,
     "6dd4a65bb326d503020f619ebe721971fbd2ba9b74a567a70aac6adadacff39b"),
    (("di", "weierstrass", "--p", "3", "--m", "2"), 0,
     "292f8d2993f0a723d40fa0a85d62c6cb476c67d4152fcb805870fa04d57e6b18"),
    (("compat", "weierstrass_in_p2", "--p", "3", "--independent"), 0,
     "f4ff3c4dba39d10ac40b9f8d3db1b68c492b9d3021458e573166682c1b5648e4"),
    (("compat", "gm_square", "--p", "5", "--independent"), 0,
     "230f3cff1894016db60fe92851c26790eb5a85fbb9873e712ffb2cf78ce178ce"),
    (("compat", "weierstrass_in_p2", "--p", "3", "--m", "2"), 0,
     "4c6a2ccd14fb400814d2a184ae0fa54ff6f1ed5ba2c1b540c8edb8580c361236"),
    (("compat", "weierstrass_in_p2", "--p", "5", "--m", "2"), 0,
     "1cad2c92e9b99096426d889f8d6a7ae4df22f23ac9afc487ed2d7d1596b91429"),
    (("compat", "gm_square", "--p", "3", "--m", "2"), 0,
     "db3872ea076894476c5a5dd43551491d3d55155798e40609a7f938d2c682b101"),
    (("compat", "parabola_in_a2", "--p", "5", "--m", "2"), 0,
     "7bcba0e5a4d9a94ca2957ee78c860654c2d46cf555d17eda3cffe96e4fd4166f"),
    (("di", "genus2", "--p", "11"), 0,
     "c22d482002d841c0916197ed927bb6deccc38b86a35479bb2ac4c114222f691b"),
    (("di", "weierstrass", "--p", "7", "--m", "2"), 0,
     "5f0b33931ae6ba461b6b9f2edf3f377365cb2600ebde02fb6ee9065c16d01fb6"),
)


@pytest.mark.parametrize("argv,code,digest", PINS,
                         ids=[" ".join(argv) for argv, _, _ in PINS])
def test_report_digest(argv, code, digest, monkeypatch):
    monkeypatch.setenv("WF_THREADS", "1")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = wf.cli.main(list(argv))
    assert rc == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
