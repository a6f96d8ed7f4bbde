import json
import os
import subprocess
import sys

import pytest

from tautring.cli import main
from tautring.graphs import decode_graph
from tautring.pixton import RamificationData, pixton_class, q_form
from tautring.strata import MixedClass, TautClass


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
    assert main(["check", "exp-identities", "--k", "0", "--A", "0"]) == 2
    # 2g - 2 + n > 0 holds for (g, n) = (-1, 5); the type is still invalid
    assert main(["check", "gplus1", "--g", "-1", "--n", "5",
                 "--A", "0,0,0,0,0"]) == 2
    assert main(["pixton", "--g", "-1", "--n", "5", "--k", "0",
                 "--A", "0,0,0,0,0"]) == 2
    assert main(["generators", "--g", "-1", "--n", "5", "--d", "0"]) == 2


def test_malformed_payload_shapes_exit_two(capsys):
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
    ]
    for text in bad:
        assert main(["evaluate", text]) == 2, text
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, text
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


def test_section7_json_identical_across_processes():
    args = ["check", "paper-section7", "--json"]
    first = run_cli(args)
    assert first.returncode == 0
    second = run_cli(args)
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
