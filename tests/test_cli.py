import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautring.cli import main
from tautring.graphs import decode_graph
from tautring import pixton
from tautring.integrate import evaluate
from tautring.pixton import RamificationData, pixton_class, pixton_mixed, \
    q_form
from tautring.product import multiply_mixed
from tautring.strata import MixedClass, TautClass, generators


def run_cli(args, **kw):
    env = dict(os.environ)
    env.update(kw.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "tautring.cli"] + args,
                          capture_output=True, text=True, env=env, **kw)


def capture(capsys, args):
    code = main(args)
    return code, capsys.readouterr().out


def test_graphs_listing(capsys):
    code, out = capture(capsys, ["graphs", "--g", "1", "--n", "1",
                                 "--codim", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    for enc in payload["graphs"]:
        G = decode_graph(enc)
        assert G.genus() == 1 and G.num_legs == 1


def test_graphs_bound_above_dimension(capsys):
    # no graph of type (g, n) has more than 3g - 3 + n edges, so a larger
    # bound lists the graphs of bound 3g - 3 + n, with no recursion per bound
    def listing(codim):
        code, out = capture(capsys, ["graphs", "--g", "0", "--n", "3",
                                     "--codim", codim, "--json"])
        assert code == 0, codim
        return json.loads(out)["graphs"]

    assert listing("5000") == listing("900") == listing("0")
    assert len(listing("0")) == 1


def test_generators_round_trip(capsys):
    code, out = capture(capsys, ["generators", "--g", "1", "--n", "2",
                                 "--d", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    for item in payload["classes"]:
        x = TautClass.from_payload(item)
        assert len(x.terms) == 1


def test_pixton_json_round_trip(capsys):
    code, out = capture(capsys, ["pixton", "--g", "1", "--n", "2", "--k", "0",
                                 "--A", "1,-1", "--deg", "1", "--json"])
    assert code == 0
    got = TautClass.from_payload(json.loads(out))
    assert got == pixton_class(RamificationData(1, 2, 0, (1, -1)), 1)
    # the full graded class round-trips as a mixed payload
    code, out = capture(capsys, ["pixton", "--g", "1", "--n", "2", "--k", "0",
                                 "--A", "1,-1", "--json"])
    assert code == 0
    mix = MixedClass.from_payload(json.loads(out))
    assert mix.part(1) == got


def test_hain_doubled_matches_q_form(capsys):
    code, out = capture(capsys, ["hain", "--g", "1", "--n", "2", "--k", "0",
                                 "--a", "1,-1", "--doubled", "--json"])
    assert code == 0
    got = TautClass.from_payload(json.loads(out))
    assert got == q_form(RamificationData(1, 2, 0, (1, -1)))


def test_multiply_evaluate_pair_consistency(capsys, tmp_path):
    _, x_json = capture(capsys, ["pixton", "--g", "1", "--n", "2", "--k", "0",
                                 "--A", "2,-2", "--deg", "1", "--json"])
    code, prod = capture(capsys, ["multiply", x_json.strip(), x_json.strip(),
                                  "--json"])
    assert code == 0
    code, val = capture(capsys, ["evaluate", prod.strip(), "--json"])
    assert code == 0
    code, paired = capture(capsys, ["pair", x_json.strip(), x_json.strip(),
                                    "--json"])
    assert code == 0
    assert json.loads(val)["value"] == json.loads(paired)["value"]
    # @file input path
    f = tmp_path / "cls.json"
    f.write_text(x_json)
    code, paired2 = capture(capsys, ["pair", "@" + str(f), "@" + str(f),
                                     "--json"])
    assert code == 0
    assert paired2 == paired


def test_check_exit_codes(capsys):
    code, out = capture(capsys, ["check", "gplus1", "--g", "1", "--n", "2",
                                 "--k", "0", "--A", "1,-1", "--json"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    # the fixed counterexample data makes the raw equality fail
    code, out = capture(capsys, ["check", "multiplicativity", "--g", "1",
                                 "--n", "3", "--ka", "0", "--A", "2,4,-6",
                                 "--kb", "0", "--B", "-3,-1,4",
                                 "--locus", "all", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"][0]["witness"]["pairing"] == "27/2"


_CHECK_DIGESTS = [
    (["paper-section7"], 0,
     "b141a05dd3edf96bfa57718fa968be7ddf310d78ab73befb496f94e24a6b1a6a"),
    (["multiplicativity", "--g", "1", "--n", "3", "--A", "2,4,-6",
      "--B", "-3,-1,4", "--locus", "all"], 1,
     "f555692d3a5639a0704d426ffb535dcad5d3f03320281535417c2a3c5f288517"),
    (["multiplicativity", "--g", "1", "--n", "3", "--A", "2,4,-6",
      "--B", "-3,-1,4", "--locus", "tl"], 0,
     "ac57a1c84b053de7ec5e6f24338766837fd36047aa6eae69390e989603a2c8ad"),
    (["exp-identities", "--g", "1", "--n", "2", "--k", "0", "--A", "1,-1"], 0,
     "0fd6e831754ab27e2550c19b4ae32157c2d08058075a35c490cbc121ec2b25ed"),
    (["gplus1", "--g", "1", "--n", "2", "--k", "0", "--A", "1,-1"], 0,
     "d08f489e56753a3d19855bc48e40a866539876c5c4d8f0c4b09f6552b041589f"),
    (["exp-identities", "--g", "2", "--n", "1", "--k", "1", "--A", "3"], 0,
     "dcb4e9875275471431be97f9f46aa6115dfc966912b151c2397169f372b7ab10"),
]


@pytest.mark.parametrize("args,code,digest", _CHECK_DIGESTS,
                         ids=[a[0] + "-" + str(i)
                              for i, (a, _, _) in enumerate(_CHECK_DIGESTS)])
def test_check_json_bytes_pinned(capsys, args, code, digest):
    # every verdict, witness and parameter of the check bundles, byte for byte
    got, out = capture(capsys, ["check"] + args + ["--json"])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_runtime_flag_controls_payload(capsys):
    args = ["check", "gplus1", "--g", "1", "--n", "2", "--k", "0",
            "--A", "1,-1", "--json"]
    _, out1 = capture(capsys, args)
    assert "runtime_ms" not in json.loads(out1)["checks"][0]
    _, out2 = capture(capsys, args + ["--timing"])
    assert "runtime_ms" in json.loads(out2)["checks"][0]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pixton", "--g", "1", "--n", "2", "--k", "0",
              "--A", "1,-1", "--a", "1,-1"])
    assert exc.value.code == 2
    assert main(["pixton", "--g", "1", "--n", "2", "--k", "0",
                 "--A", "1,1"]) == 2  # bad sum
    assert main(["evaluate", "not json"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "exp-identities", "--k", "0", "--A", "0"])
    assert exc.value.code == 2
    # 2g - 2 + n > 0 holds for (g, n) = (-1, 5); the type is still invalid
    assert main(["check", "gplus1", "--g", "-1", "--n", "5",
                 "--A", "0,0,0,0,0"]) == 2
    assert main(["pixton", "--g", "-1", "--n", "5", "--k", "0",
                 "--A", "0,0,0,0,0"]) == 2
    assert main(["generators", "--g", "-1", "--n", "5", "--d", "0"]) == 2


def test_malformed_payload_shapes_exit_two(capsys, tmp_path):
    # structurally wrong payloads must fail cleanly, never traceback
    bad = [
        '{"g":1,"n":1,"degree":1,"terms":{"x":"1"}}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":5,"coeff":"1"}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"coeff":"1"}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1/0"}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"x"}]}',
        '{"g":1,"n":1,"parts":3}',
        '{"g":1,"n":1,"parts":[{"g":2,"n":1,"degree":0,"terms":[]}]}',
        '5',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m1":"a"}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":[1]}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v0":5}}]}',
        # unknown marking, half-edge and vertex, negative psi exponent and
        # nonpositive kappa index: the stratum constructor refuses each
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m9":1}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"h0":1}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m1":-1}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v3":[1]}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v0":[0]}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v0":[-2]}}]}',
        # keys with leading zeros name an index to_payload writes otherwise
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m1":1,"m01":1}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(0|1)#((0,0),(0,1))",'
        '"coeff":"1","psi":{"h00":0}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v00":[1]}}]}',
        '{"g":-1,"n":1,"degree":0,"terms":[]}',
        # json parses 1e400 and Infinity to float inf
        '{"g":1e400,"n":1,"degree":1,"terms":[]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":1e400}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m1":1e400}}]}',
        '{"g":1,"n":Infinity,"parts":[]}',
        # floats and booleans are refused, not truncated or read as 0/1
        '{"g":1.9,"n":1,"degree":1,"terms":[]}',
        '{"g":1,"n":1.0,"degree":1,"terms":[]}',
        '{"g":1,"n":1,"degree":1.5,"terms":[]}',
        '{"g":true,"n":1,"degree":1,"terms":[]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m1":1.7}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m1":true}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v0":[1.0]}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v0":[true]}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":0.1}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":true}]}',
        '{"g":1.5,"n":1,"parts":[]}',
        '{"g":1,"n":true,"parts":[]}',
        # hostile sizes: deep nesting, an integer past the digit limit, an
        # exponent coefficient (Fraction would build a million digits), and
        # overlong integers in psi and kappa keys
        '{"g":1,"n":1,"degree":1,"terms":' + '[' * 3000 + ']' * 3000 + '}',
        '{"g":1' + '0' * 4999 + ',"n":1,"degree":1,"terms":[]}',
        '{"g":1,"n":1,"degree":0,"terms":[{"graph":"(1|1)#",'
        '"coeff":"1e1000000"}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"psi":{"m' + '1' * 5000 + '":1}}]}',
        '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#","coeff":"1",'
        '"kappa":{"v' + '1' * 5000 + '":[1]}}]}',
        # overlong genus, leg and edge integers inside a graph encoding
        '{"g":1,"n":1,"degree":0,"terms":[{"graph":"(' + '1' * 5000
        + '|1)#","coeff":"1"}]}',
        '{"g":1,"n":1,"degree":0,"terms":[{"graph":"(1|' + '1' * 5000
        + ')#","coeff":"1"}]}',
        '{"g":1,"n":1,"degree":0,"terms":[{"graph":"(1|1)#((' + '1' * 5000
        + ',0),(0,0))","coeff":"1"}]}',
        # only the forms to_payload writes are coefficients
        '{"g":1,"n":1,"degree":0,"terms":[{"graph":"(1|1)#","coeff":"1.5"}]}',
        '{"g":1,"n":1,"degree":0,"terms":[{"graph":"(1|1)#","coeff":" 1"}]}',
    ]
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'\xff\xfe{"g":1}')
    for text in bad + ["@" + str(undecodable)]:
        t0 = time.monotonic()
        assert main(["evaluate", text]) == 2, text[:80]
        assert time.monotonic() - t0 < 1, text[:80]
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, text[:80]
    # exact coefficients stay accepted as JSON strings and integers
    for coeff in ('"1/2"', '3'):
        text = ('{"g":1,"n":1,"degree":0,"terms":[{"graph":"(1|1)#",'
                '"coeff":%s}]}' % coeff)
        assert main(["evaluate", text]) == 0, text


def test_internal_error_exits_three(capsys, monkeypatch):
    # exit 1 is reserved for a failed check; a defect must not look like one
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("tautring.cli._cmd_graphs", broken)
    assert main(["graphs", "--g", "1", "--n", "1", "--codim", "1"]) == 3
    err = capsys.readouterr().err
    assert "error: internal: RuntimeError: boom" in err
    assert "Traceback" not in err


def test_inconsistent_residues_exit_three(capsys, monkeypatch):
    # vertex targets that do not sum to 0 leave a residual at the root: the
    # consistency check is a defect (exit 3), not a usage error (exit 2)
    exact = pixton._vertex_targets

    def shifted(G, data):
        targets = exact(G, data)
        return [targets[0] + 1] + targets[1:]

    def clear():
        for cached in (pixton._edge_forms, pixton.pixton_class):
            cached.cache_clear()

    monkeypatch.setattr("tautring.pixton._vertex_targets", shifted)
    clear()
    try:
        assert main(["pixton", "--g", "1", "--n", "2", "--k", "0",
                     "--A", "1,-1", "--deg", "1"]) == 3
    finally:
        clear()
    err = capsys.readouterr().err
    assert "error: internal: ArithmeticError: inconsistent residue" in err


def test_surplus_mismatch_exits_three(capsys, monkeypatch):
    # samples above the proven threshold always fit, so a surplus sample off
    # the interpolant is a defect (exit 3), never bad input (exit 2)
    exact = pixton._value_table

    def corrupt(G, data, r):
        table = exact(G, data, r)
        C, _, forms = pixton._edge_forms(G, data)
        # in degree 1 every edge power is 0: the fit ends at C + 2 E' + 1,
        # E' the edges on a cycle
        if r > C + 2 * sum(1 for _, eps in forms if eps) + 1:
            table[(1,) * len(next(iter(table)))] += 1
        return table

    monkeypatch.setattr("tautring.pixton._value_table", corrupt)
    pixton.pixton_class.cache_clear()
    assert main(["pixton", "--g", "1", "--n", "2", "--k", "0",
                 "--A", "1,-1", "--deg", "1"]) == 3
    err = capsys.readouterr().err
    assert "error: internal: ArithmeticError: surplus sample" in err


def test_section7_json_identical_across_processes():
    # two hash seeds, so no output may follow set or dict iteration order
    args = ["check", "paper-section7", "--json"]
    first = run_cli(args, env={"PYTHONHASHSEED": "1"})
    assert first.returncode == 0
    second = run_cli(args, env={"PYTHONHASHSEED": "2"})
    assert second.returncode == 0
    assert first.stdout == second.stdout


def test_cli_writes_no_cache_files(tmp_path):
    # correlators live in memory only: neither the home directory nor the
    # retired TAUTRING_CACHE_DIR setting sees a file
    env = {"HOME": str(tmp_path), "TAUTRING_CACHE_DIR": str(tmp_path)}
    r = run_cli(["check", "gplus1", "--g", "1", "--n", "2", "--k", "0",
                 "--A", "1,-1"], env=env)
    assert r.returncode == 0
    assert os.listdir(str(tmp_path)) == []
    # the cache subcommand is gone
    assert run_cli(["cache", "status"], env=env).returncode == 2


def test_repeated_json_keys_exit_two(capsys):
    # the last of two equal keys used to win: this printed 1/24, exit 0
    for text in [
            '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#",'
            '"psi":{"m1":0,"m1":1},"coeff":"1"}]}',
            '{"g":1,"n":1,"parts":[],"parts":[{"g":1,"n":1,"degree":1,'
            '"terms":[{"graph":"(1|1)#","psi":{"m1":1},"coeff":"1"}]}]}']:
        assert main(["evaluate", text]) == 2, text
        out, err = capsys.readouterr()
        assert out == "" and "repeated key" in err and "Traceback" not in err


def test_mixed_payloads_through_the_cli(capsys):
    data = RamificationData(1, 2, 0, (1, -1))
    mix = pixton_mixed(data)
    x = pixton_class(data, 1)
    mix_json = json.dumps(mix.to_payload())
    x_json = json.dumps(x.to_payload())
    # a mixed factor makes a mixed product; a pure one is lifted first
    code, prod_json = capture(capsys, ["multiply", mix_json, x_json, "--json"])
    assert code == 0
    prod = MixedClass.from_payload(json.loads(prod_json))
    assert prod == multiply_mixed(mix, MixedClass(1, 2, {1: x}))
    # evaluate reads the top-degree part of a mixed class
    code, out = capture(capsys, ["evaluate", prod_json, "--json"])
    assert code == 0
    assert json.loads(out)["value"] == str(evaluate(prod.part(2))) != "0"
    code, top = capture(capsys, ["evaluate",
                                 json.dumps(prod.part(2).to_payload()),
                                 "--json"])
    assert top == out
    # the pairing takes pure-degree classes only
    assert main(["pair", mix_json, x_json]) == 2
    assert "pure-degree" in capsys.readouterr().err


def test_missing_and_malformed_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "multiplicativity", "--g", "1", "--n", "3",
              "--A", "2,4,-6"])
    assert exc.value.code == 2
    assert "--B" in capsys.readouterr().err
    assert main(["pixton", "--g", "1", "--n", "2", "--deg", "1"]) == 2
    assert "--A or --a" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["pixton", "--g", "1", "--n", "2", "--A", "1,x"])
    assert exc.value.code == 2
    # strata.locus_name owns the locus spellings
    assert main(["check", "multiplicativity", "--g", "1", "--n", "3",
                 "--A", "2,4,-6", "--B", "-3,-1,4", "--locus", "nowhere"]) == 2
    assert "unknown locus 'nowhere'" in capsys.readouterr().err


# Random JSON for the class-reading commands: arbitrary trees, and valid
# class payloads on small spaces, pure or mixed, three in four of them with
# one value replaced or one key added
_SPACES = [(0, 4), (1, 1), (1, 2), (2, 0)]
_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
                  st.text("mhv01 #()|,/\u0661", max_size=3),
                  st.sampled_from(["1/2", "1/0", "x", "(1|1)#", "-0"]))
_tree = st.recursive(_leaf, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.sampled_from(
                         ["g", "n", "degree", "terms", "parts", "x"]),
                         kids, max_size=3), max_leaves=6)
_KEYS = ["m1", "m01", "m9", "h0", "h00", "h7", "v0", "v00", "v5", "m1\n",
         "g", "n", "degree", "terms", "parts", "graph", "psi", "kappa",
         "coeff"]


@st.composite
def _class_payload(draw, gn):
    g, n = gn
    d = draw(st.integers(0, 3 * g - 3 + n))
    x = TautClass(g, n, d)
    for s in draw(st.lists(st.sampled_from(generators(g, n, d)),
                           min_size=1, max_size=3)):
        x.iadd_term(s, Fraction(draw(st.integers(-3, 3)),
                                draw(st.integers(1, 4))))
    payload = x.to_payload()
    if draw(st.booleans()):
        payload = {"g": g, "n": n, "parts": [payload]}
    places = []  # (container, key) of every value in the payload

    def walk(node):
        for k in sorted(node) if isinstance(node, dict) else range(len(node)):
            places.append((node, k))
            if isinstance(node[k], (dict, list)):
                walk(node[k])

    walk(payload)
    if draw(st.integers(0, 3)):
        node, k = draw(st.sampled_from(places[::-1]))  # deepest first
        if isinstance(node, dict) and not draw(st.integers(0, 2)):
            node[draw(st.sampled_from(_KEYS))] = draw(_leaf)
        else:
            node[k] = draw(_leaf | _tree)
    return payload


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.sampled_from(["evaluate", "multiply", "pair"]),
       st.sampled_from(_SPACES).flatmap(lambda gn: st.tuples(
           _class_payload(gn) | _tree, _class_payload(gn))))
def test_class_commands_exit_zero_or_two_on_random_json(command, payloads):
    # evaluate reads the first payload, multiply and pair both; argparse
    # exits 2 on a payload that looks like an option, such as "-1e+16"
    args = [command] + [json.dumps(p) for p in payloads]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args[:2] if command == "evaluate" else args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Each bundle's own flags, with values that make a valid call; every other
# flag of `check` is foreign to it and must be refused, not ignored
_BUNDLE_ARGS = {
    "paper-section7": [],
    "multiplicativity": ["--g", "1", "--n", "3", "--A", "2,4,-6",
                         "--B", "-3,-1,4"],
    "exp-identities": ["--g", "1", "--n", "2", "--A", "1,-1"],
    "gplus1": ["--g", "1", "--n", "2", "--A", "1,-1"],
}
_FOREIGN_FLAGS = [
    ("paper-section7", ["--g", "1"]), ("paper-section7", ["--n", "2"]),
    ("paper-section7", ["--k", "0"]), ("paper-section7", ["--A", "1,-1"]),
    ("paper-section7", ["--a", "1,-1"]), ("paper-section7", ["--ka", "0"]),
    ("paper-section7", ["--kb", "0"]), ("paper-section7", ["--B", "1,-1"]),
    ("paper-section7", ["--locus", "xx"]),
    ("multiplicativity", ["--k", "5"]), ("multiplicativity", ["--a", "1,2,3"]),
    ("exp-identities", ["--ka", "3"]), ("exp-identities", ["--kb", "3"]),
    ("exp-identities", ["--B", "1,2"]), ("exp-identities", ["--locus", "all"]),
    ("gplus1", ["--ka", "3"]), ("gplus1", ["--kb", "3"]),
    ("gplus1", ["--B", "1,2"]), ("gplus1", ["--locus", "all"]),
]


@pytest.mark.parametrize("bundle,flag", _FOREIGN_FLAGS,
                         ids=["%s%s" % (b, f[0]) for b, f in _FOREIGN_FLAGS])
def test_check_refuses_flags_its_bundle_does_not_read(capsys, bundle, flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", bundle] + _BUNDLE_ARGS[bundle] + flag)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag[0] in err
    assert "usage: tautring check %s" % bundle in err


def test_subcommand_shows_its_own_usage_for_a_stray_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graphs", "--g", "1", "--n", "2", "--codim", "1", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: tautring graphs" in err and "--bogus" in err


# Random argv: every subcommand and bundle with a draw of its own flags and
# now and then a foreign one, values from a small vocabulary; (g, n) comes
# only from small spaces, so no call runs long
_TYPE_FLAGS = ["--g", "--n", "--k", "--A", "--a", "--json"]
_OWN_FLAGS = {
    "graphs": ["--g", "--n", "--codim", "--json"],
    "generators": ["--g", "--n", "--d", "--json"],
    "pixton": _TYPE_FLAGS + ["--deg"],
    "hain": _TYPE_FLAGS + ["--doubled"],
    "multiply": ["--json"],
    "evaluate": ["--json"],
    "pair": ["--json"],
    "check paper-section7": ["--timing", "--json"],
    "check multiplicativity": ["--g", "--n", "--A", "--B", "--ka", "--kb",
                               "--locus", "--timing", "--json"],
    "check exp-identities": _TYPE_FLAGS + ["--timing"],
    "check gplus1": _TYPE_FLAGS + ["--timing"],
}
_ALL_FLAGS = sorted({f for flags in _OWN_FLAGS.values() for f in flags})


@st.composite
def _argv(draw):
    g, n = draw(st.sampled_from(_SPACES))
    # half the vectors sum to zero, which k = 0 needs
    vec = (st.lists(st.integers(-4, 4), min_size=n // 2, max_size=n // 2)
           .map(lambda h: h + [-x for x in h] + [0] * (n % 2))
           | st.lists(st.integers(-4, 4), min_size=n, max_size=n)
           ).map(lambda v: ",".join(map(str, v)))
    value = (st.integers(-2, 4).map(str) | vec
             | st.sampled_from(["x", "", "@/nonexistent"]))
    command = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    argv = command.split()
    if command in ("multiply", "evaluate", "pair"):
        argv += [draw(value) for _ in range(draw(st.integers(1, 2)))]
    flags = [f for f in _OWN_FLAGS[command] if draw(st.integers(0, 3))]
    if not draw(st.integers(0, 3)):
        flags.append(draw(st.sampled_from(_ALL_FLAGS)))
    for flag in flags:
        argv.append(flag)
        if flag in ("--g", "--n"):
            argv.append(str(g if flag == "--g" else n))
        elif flag in ("--A", "--a", "--B"):
            argv.append(draw(vec | value))
        elif flag == "--locus":
            argv.append(draw(st.sampled_from(["all", "tl", "ct", "sm"])
                             | value))
        elif flag in ("--deg", "--d", "--codim"):
            argv.append(str(draw(st.integers(-2, 3))))
        elif flag not in ("--doubled", "--timing", "--json"):
            argv.append(draw(value))
    return argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_argv())
def test_random_argv_exits_zero_one_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert code != 1 or argv[0] == "check", argv
