"""Command-line interface: pipelines, exit codes, output formats."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pubcoord
from pubcoord import io_json
from pubcoord.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def toy_path(tmp_path, capsys):
    p = tmp_path / "toy.json"
    code, _, _ = run(capsys, "gen", "toy", "--chance", "2", "--actions", "2",
                     "--depth", "2", "--payoff-seed", "5", "--out", str(p))
    assert code == 0
    return str(p)


@pytest.fixture
def conv_path(tmp_path, toy_path, capsys):
    p = tmp_path / "conv.json"
    code, _, _ = run(capsys, "convert", toy_path, "--mode", "folded",
                     "--out", str(p))
    assert code == 0
    return str(p)


def test_gen_json_summary(tmp_path, capsys):
    p = tmp_path / "g.json"
    code, out, _ = run(capsys, "gen", "toy", "--chance", "2", "--actions",
                       "2", "--depth", "1", "--out", str(p), "--json")
    assert code == 0
    d = json.loads(out)
    assert d["players"] == 2
    assert io_json.load_game(str(p)).name == d["name"]


def test_gen_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        run(capsys, "gen", "kuhn", "--ranks", "3", "--out", str(p))
    assert p1.read_text() == p2.read_text()


def test_gen_invalid_spec_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "kuhn", "--ranks", "2",
                       "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "error" in err


def test_convert_summary_and_file(toy_path, tmp_path, capsys):
    p = tmp_path / "c.json"
    code, out, _ = run(capsys, "convert", toy_path, "--mode", "pruned",
                       "--safe-ir", "--out", str(p), "--json")
    assert code == 0
    d = json.loads(out)
    assert d["mode"] == "pruned" and d["safe_ir"] is True
    cg = io_json.load_converted(str(p))
    assert cg.mode == "pruned" and cg.safe_ir_applied


def test_convert_basic_safe_ir_exits_2(toy_path, tmp_path, capsys):
    code, _, err = run(capsys, "convert", toy_path, "--mode", "basic",
                       "--safe-ir", "--out", str(tmp_path / "c.json"))
    assert code == 2
    assert "safe-ir" in err


def test_convert_rejects_converted_input(conv_path, tmp_path, capsys):
    code, _, err = run(capsys, "convert", conv_path, "--mode", "folded",
                       "--out", str(tmp_path / "c.json"))
    assert code == 4
    assert "original game is required" in err


def test_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "convert", str(tmp_path / "nope.json"),
                       "--mode", "folded", "--out", str(tmp_path / "c.json"))
    assert code == 3


def test_solve_outputs(conv_path, tmp_path, capsys):
    csv = tmp_path / "log.csv"
    strat = tmp_path / "strategy.json"
    code, out, _ = run(capsys, "solve", conv_path, "--algo", "lcfr+",
                       "--iterations", "200", "--log-every", "50",
                       "--csv", str(csv), "--strategy", str(strat), "--json")
    assert code == 0
    d = json.loads(out)
    assert abs(float(d["exploitability"])) < 0.1
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "iteration,team_value,exploitability"
    assert len(lines) == 1 + 4
    sj = json.loads(strat.read_text())
    # both toy players are team members, so only the coordinator acts
    assert set(sj) == {"coord"}
    for table in sj.values():
        for dist in table.values():
            assert sum(dist.values()) == pytest.approx(1.0)


def test_solve_rejects_original_game(toy_path, tmp_path, capsys):
    code, _, err = run(capsys, "solve", toy_path)
    assert code == 4
    assert "converted game is required" in err


def test_solve_negative_iterations_exits_2(conv_path, capsys):
    code, _, _ = run(capsys, "solve", conv_path, "--iterations", "-5")
    assert code == 2


def test_oracle_value(toy_path, capsys):
    code, out, _ = run(capsys, "oracle", toy_path, "--json")
    assert code == 0
    d = json.loads(out)
    assert "tmecor_value" in d


def test_oracle_bad_tol_exits_2(toy_path, capsys):
    code, _, _ = run(capsys, "oracle", toy_path, "--tol", "0")
    assert code == 2


def test_oracle_too_large_exits_5(toy_path, capsys):
    code, _, err = run(capsys, "oracle", toy_path, "--max-entries", "1")
    assert code == 5


def test_verify_pipeline_ok(toy_path, conv_path, capsys):
    code, out, _ = run(capsys, "verify", toy_path, conv_path,
                       "--samples", "100", "--json")
    assert code == 0
    assert json.loads(out)["max_abs_diff"] <= 1e-9


def test_verify_origin_mismatch_exits_6(tmp_path, conv_path, capsys):
    other = tmp_path / "other.json"
    run(capsys, "gen", "toy", "--chance", "2", "--actions", "2", "--depth",
        "2", "--payoff-seed", "6", "--out", str(other))
    code, _, err = run(capsys, "verify", str(other), conv_path)
    assert code == 6
    assert "digest" in err


def test_verify_zero_samples_warns(toy_path, conv_path, capsys):
    code, _, err = run(capsys, "verify", toy_path, conv_path,
                       "--samples", "0")
    assert code == 0
    assert "warning" in err


def test_full_pipeline_kuhn(tmp_path, capsys):
    g = tmp_path / "kuhn.json"
    c = tmp_path / "conv.json"
    assert run(capsys, "gen", "kuhn", "--ranks", "3", "--adv-pos", "1",
               "--out", str(g))[0] == 0
    assert run(capsys, "convert", str(g), "--mode", "folded", "--safe-ir",
               "--out", str(c))[0] == 0
    code, out, _ = run(capsys, "solve", str(c), "--iterations", "100",
                       "--log-every", "0", "--json")
    assert code == 0
    assert run(capsys, "verify", str(g), str(c), "--samples", "50")[0] == 0


# ---------------------------------------------------------------------------
# malformed inputs and the exit-code contract
# ---------------------------------------------------------------------------

def run_subprocess(*argv, optimize=False):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ)
    src = str(Path(pubcoord.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    cmd = [sys.executable] + (["-O"] if optimize else [])
    proc = subprocess.run(cmd + ["-m", "pubcoord.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def _first_edge(d):
    return next(n for n in d["nodes"] if n.get("edges"))["edges"][0]


def _first_chance_edge(d):
    return next(n for n in d["nodes"] if n["kind"] == "chance")["edges"][0]


def _coordinator_node(d):
    return next(i for i, n in enumerate(d["nodes"])
                if n.get("player") == "coord")


GAME_CORRUPTIONS = {
    "dangling-child": lambda d: _first_edge(d).update(child=10**9),
    "prob-1/0": lambda d: _first_chance_edge(d).update(prob="1/0"),
    "prob-abc": lambda d: _first_chance_edge(d).update(prob="abc"),
    "missing-kind": lambda d: d["nodes"][0].pop("kind"),
}

CONVERTED_CORRUPTIONS = {
    "truncated-active": lambda d: d["origin"]["active"].pop(),
    "truncated-supports": lambda d: d["origin"]["supports"].pop(),
    "truncated-node-kind": lambda d: d["origin"]["node_kind"].pop(),
    "active-fanout-mismatch":
        lambda d: d["origin"]["active"][_coordinator_node(d)].pop(),
    "coordinator-without-active":
        lambda d: d["origin"]["active"].__setitem__(_coordinator_node(d),
                                                    None),
}


@pytest.mark.parametrize("command,corruption", [
    *[("convert", c) for c in sorted(GAME_CORRUPTIONS)],
    *[("solve", c) for c in sorted(CONVERTED_CORRUPTIONS)],
    ("verify", "truncated-active"),
    ("verify", "active-fanout-mismatch"),
])
def test_malformed_input_exits_4(tmp_path, toy_path, conv_path, command,
                                 corruption):
    converted = corruption in CONVERTED_CORRUPTIONS
    d = json.loads(Path(conv_path if converted else toy_path).read_text())
    (CONVERTED_CORRUPTIONS if converted else GAME_CORRUPTIONS)[corruption](d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    argv = {"convert": ["convert", bad, "--mode", "folded",
                        "--out", tmp_path / "c.json"],
            "solve": ["solve", bad, "--iterations", "2"],
            "verify": ["verify", toy_path, bad, "--samples", "2"]}[command]
    code, _, err = run_subprocess(*argv)
    assert code == 4, err
    assert "Traceback" not in err
    assert "error:" in err


@pytest.mark.parametrize("optimize", [False, True])
def test_convert_actor_hidden_from_coordinator_exits_4(tmp_path, optimize):
    from conftest import hidden_actor_game
    g = tmp_path / "hidden.json"
    io_json.save_game(hidden_actor_game(), str(g))
    for mode in ("basic", "pruned", "folded"):
        code, _, err = run_subprocess("convert", g, "--mode", mode, "--out",
                                      tmp_path / "c.json", optimize=optimize)
        assert code == 4, err
        assert "Traceback" not in err
        assert "hides who acts" in err
    assert not (tmp_path / "c.json").exists()


def test_solve_and_oracle_survive_python_O(tmp_path):
    g, c = tmp_path / "kuhn.json", tmp_path / "conv.json"
    assert run_subprocess("gen", "kuhn", "--ranks", "3", "--out", g)[0] == 0
    assert run_subprocess("convert", g, "--mode", "folded", "--safe-ir",
                          "--out", c)[0] == 0
    for argv in (("solve", c, "--iterations", "20", "--log-every", "0",
                  "--json"),
                 ("oracle", g, "--json")):
        plain = run_subprocess(*argv)
        optimized = run_subprocess(*argv, optimize=True)
        assert plain[0] == optimized[0] == 0, (plain[2], optimized[2])
        assert plain[1] == optimized[1]
