"""Command-line interface: pipelines, exit codes, output formats."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pubcoord
from pubcoord import io_json
from pubcoord.cli import main
from pubcoord.errors import SchemaError

try:
    import resource
except ImportError:  # not on every platform
    resource = None


# mini_team_game(1) of tests/conftest.py and its folded + safe-IR
# conversion, as committed files
DATA = Path(__file__).parent / "data"
MINI_GAME = DATA / "mini_s1_game.json"
MINI_CONVERTED = DATA / "mini_s1_folded_safe_ir.json"


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


def test_out_of_memory_exits_5(toy_path, tmp_path, capsys, monkeypatch):
    from pubcoord import cli

    def exhausted(game):
        raise MemoryError

    monkeypatch.setitem(cli._CONVERTERS, "folded", exhausted)
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "convert", toy_path, "--mode", "folded",
                       "--out", str(out))
    assert code == 5
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


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


def test_convert_and_verify_check_turn_taking_once(tmp_path, capsys,
                                                  monkeypatch):
    # the CLI decides on the transform from the converters' own check, so a
    # public turn-taking game is walked once per command, and one the
    # transform repairs twice: before the transform and after it
    from conftest import hidden_actor_game
    from pubcoord import convert, model
    calls, check = [], model.is_public_turn_taking

    def counted(game):
        calls.append(game.name)
        return check(game)

    monkeypatch.setattr(convert, "is_public_turn_taking", counted)
    monkeypatch.setattr(model, "is_public_turn_taking", counted)
    g, c = tmp_path / "kuhn3.json", tmp_path / "kuhn3-pruned.json"
    assert run(capsys, "gen", "kuhn", "--ranks", "3", "--out", str(g))[0] == 0
    hidden = tmp_path / "hidden.json"
    io_json.save_game(hidden_actor_game(), str(hidden))
    for game, walks in ((g, 1), (hidden, 2)):
        for argv in (("convert", str(game), "--mode", "pruned", "--out",
                      str(c)),
                     ("verify", str(game), str(c), "--samples", "5")):
            calls.clear()
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            assert ("warning" in err) == (walks == 2)
            assert len(calls) == walks, argv[0]


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


def test_folded_pipeline_on_inexact_float_chance_row(tmp_path, capsys):
    # root probabilities 0.1 / 0.2 / 0.7 pass PROB_TOL but sum to
    # 1 - 2**-55; the converted file must still load with exact rows
    from conftest import mini_team_game, with_root_probs
    g, c = tmp_path / "g.json", tmp_path / "c.json"
    io_json.save_game(with_root_probs(mini_team_game(3, chance_outcomes=3),
                                      (0.1, 0.2, 0.7)), str(g))
    for argv in (("convert", g, "--mode", "folded", "--out", c),
                 ("solve", c, "--iterations", "50", "--log-every", "0"),
                 ("verify", g, c, "--samples", "20")):
        code, _, err = run(capsys, *map(str, argv))
        assert code == 0, (argv[0], err)


# ---------------------------------------------------------------------------
# malformed inputs and the exit-code contract
# ---------------------------------------------------------------------------

def _python(*args, env=(), **run_kw):
    """Run a fresh interpreter that imports this checkout's package, with
    ``env`` added to the environment and ``run_kw`` passed to
    ``subprocess.run``."""
    env = dict(os.environ, **dict(env))
    src = str(Path(pubcoord.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300,
                          **run_kw)


def run_subprocess(*argv, optimize=False):
    """Run the CLI in a fresh interpreter, as a user would."""
    proc = _python(*(["-O"] if optimize else []), "-m", "pubcoord.cli", *argv)
    return proc.returncode, proc.stdout, proc.stderr


def _first_edge(d):
    return next(n for n in d["nodes"] if n.get("edges"))["edges"][0]


def _first_chance_edge(d):
    return next(n for n in d["nodes"] if n["kind"] == "chance")["edges"][0]


def _first_terminal(d):
    return next(n for n in d["nodes"] if n["kind"] == "terminal")


def _row_outside_0_1(d):
    """Probabilities 3/2, -1/2, 0, ... at the first chance node with two
    edges or more: the row still sums to 1."""
    edges = next(n for n in d["nodes"]
                 if n["kind"] == "chance" and len(n["edges"]) > 1)["edges"]
    for e, p in zip(edges, ["3/2", "-1/2"] + ["0"] * len(edges)):
        e["prob"] = p


# a number that Python holds exactly but no float can
HUGE_RATIONAL = "1" + "0" * 400 + "/1"

GAME_CORRUPTIONS = {
    "dangling-child": lambda d: _first_edge(d).update(child=10**9),
    "prob-1/0": lambda d: _first_chance_edge(d).update(prob="1/0"),
    "prob-abc": lambda d: _first_chance_edge(d).update(prob="abc"),
    "missing-kind": lambda d: d["nodes"][0].pop("kind"),
    "huge-utility": lambda d: _first_terminal(d).update(team_utility=10**400),
    "huge-rational-utility":
        lambda d: _first_terminal(d).update(team_utility=HUGE_RATIONAL),
    "prob-outside-0-1": _row_outside_0_1,
    "label-not-a-string": lambda d: _first_edge(d).update(label=5),
}

def _edges_of(d, v):
    return range(d["end"][v - 1] if v else 0, d["end"][v])


def _node_of(d, role):
    """The first node of a format-2 document played by ``role``."""
    return d["player"].index(d["roles"].index(role))


def _relabel(d, e, label):
    """Give edge ``e`` of a format-2 document the label ``label``."""
    if label not in d["labels"]:
        d["labels"].append(label)
    d["label"][e] = d["labels"].index(label)


def _second_parent(d):
    # the root's first edge also leads to the child of its second edge
    first, second = _edges_of(d, d["root"])[:2]
    d["child"][first] = d["child"][second]


def _unreachable_cycle(d):
    """Two new nodes that lead to each other, and to nothing else."""
    n, m = len(d["player"]), len(d["child"])
    decision = d["roles"].index("coord")
    d["player"] += [decision, decision]
    d["utility"] += [0, 0]
    d["end"] += [m + 1, m + 2]
    d["label"] += [0, 0]
    d["child"] += [n + 1, n]
    d["prob"] += [d["probs"].index(None)] * 2
    d["seen"] += [1, 1]


def _unnormalised_chance(d):
    e = _edges_of(d, _node_of(d, "c"))[0]
    d["probs"].append("7/8")
    d["prob"][e] = len(d["probs"]) - 1


def _chance_row_outside_0_1(d):
    """The columnar form of :func:`_row_outside_0_1`."""
    v = next(v for v, r in enumerate(d["player"])
             if d["roles"][r] == "c" and len(_edges_of(d, v)) > 1)
    d["probs"] += ["3/2", "-1/2", "0"]
    k = len(d["probs"]) - 3
    for i, e in enumerate(_edges_of(d, v)):
        d["prob"][e] = k + min(i, 2)


def _duplicate_label(d):
    first, second = _edges_of(d, _node_of(d, "coord"))[:2]
    d["label"][second] = d["label"][first]


def _coordinator_edge_to_opponent(d):
    """The node resolving the first prescription, an opponent node."""
    v = d["child"][_edges_of(d, _node_of(d, "coord"))[0]]
    d["player"][v] = d["roles"].index("o")
    for e in _edges_of(d, v):
        d["prob"][e] = d["probs"].index(None)


def _prob_on_decision_edge(d):
    e = _edges_of(d, _node_of(d, "o"))[0]
    d["prob"][e] = next(i for i, p in enumerate(d["probs"]) if p)


# every one must exit 4: each breaks a check of the format-2 loader
COLUMNAR_CORRUPTIONS = {
    "child-out-of-range": lambda d: d["child"].__setitem__(0, 10**6),
    # node 1 ends after the last edge, node 2 before it
    "end-decreasing": lambda d: d["end"].__setitem__(1, len(d["child"])),
    "end-short": lambda d: d["end"].__setitem__(-1, d["end"][-1] - 1),
    "second-parent": _second_parent,
    "unreachable-cycle": _unreachable_cycle,
    "chance-row-sum": _unnormalised_chance,
    "chance-row-outside-0-1": _chance_row_outside_0_1,
    "duplicate-label": _duplicate_label,
    "prob-on-decision-edge": _prob_on_decision_edge,
    "bool-in-column": lambda d: d["seen"].__setitem__(0, True),
    "float-in-column": lambda d: d["child"].__setitem__(0, 1.0),
    "huge-in-column": lambda d: d["label"].__setitem__(0, 10**400),
    "negative-in-column": lambda d: d["prob"].__setitem__(0, -1),
    "nested-in-column": lambda d: d["utility"].__setitem__(0, [0]),
    "seen-out-of-range": lambda d: d["seen"].__setitem__(0, 4),
    "active-fanout-mismatch":
        lambda d: d["origin"]["active"][0].pop(),
    "truncated-active": lambda d: d["origin"]["active"].pop(),
    "truncated-supports": lambda d: d["origin"]["supports"].pop(),
    "huge-rational-utility":
        lambda d: d["utilities"].__setitem__(-1, HUGE_RATIONAL),
    "active-entry-not-a-list":
        lambda d: d["origin"]["active"].__setitem__(0, None),
    "iset-ref-not-team":
        lambda d: d["origin"]["iset_refs"][0].__setitem__("player", "o"),
    "coordinator-edge-to-opponent": _coordinator_edge_to_opponent,
    "unknown-format": lambda d: d.update(format=3),
    "missing-format": lambda d: d.pop("format"),
    "unknown-mode": lambda d: d["origin"].update(mode="fast"),
    "digest-not-a-string": lambda d: d["origin"].update(source_digest=5),
    "iset-refs-without-actions": lambda d: d["origin"]["iset_actions"].pop(),
    "labels-table-repeats": lambda d: d["labels"].append(d["labels"][0]),
    "active-fanout-too-large":
        lambda d: d["origin"]["active"][0].append(3),
    "two-opponents": lambda d: d.update(players=["o", "o"]),
    "team-and-coordinator": lambda d: d.update(players=["coord", "t0", "o"]),
    "team-index-gap": lambda d: d.update(players=["t1", "o"]),
}


@pytest.mark.parametrize("command,corruption", [
    *[("convert", c) for c in sorted(GAME_CORRUPTIONS)],
    ("oracle", "huge-rational-utility"),
    *[("solve", c) for c in ("active-entry-not-a-list",
                             "active-fanout-mismatch",
                             "chance-row-outside-0-1",
                             "huge-rational-utility", "missing-format",
                             "truncated-active", "truncated-supports")],
    ("verify", "truncated-active"),
    ("verify", "active-fanout-mismatch"),
    ("verify", "missing-format"),
])
def test_malformed_input_exits_4(tmp_path, toy_path, command, corruption):
    """Game corruptions on a toy game, converted ones on the committed
    converted file, in a fresh interpreter."""
    converted = command in ("solve", "verify")
    d = json.loads((MINI_CONVERTED if converted
                    else Path(toy_path)).read_text())
    (COLUMNAR_CORRUPTIONS if converted else GAME_CORRUPTIONS)[corruption](d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    argv = {"convert": ["convert", bad, "--mode", "folded",
                        "--out", tmp_path / "c.json"],
            "oracle": ["oracle", bad],
            "solve": ["solve", bad, "--iterations", "2"],
            "verify": ["verify", MINI_GAME, bad, "--samples", "2"]}[command]
    code, _, err = run_subprocess(*argv)
    assert code == 4, err
    assert "Traceback" not in err
    assert "error:" in err


@pytest.mark.parametrize("corruption", sorted(COLUMNAR_CORRUPTIONS))
def test_malformed_columnar_file_exits_4(tmp_path, capsys, corruption):
    d = json.loads(MINI_CONVERTED.read_text())
    COLUMNAR_CORRUPTIONS[corruption](d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    for argv in (["solve", str(bad), "--iterations", "2"],
                 ["verify", str(MINI_GAME), str(bad), "--samples", "2"]):
        code, _, err = run(capsys, *argv)
        assert code == 4, (argv[0], err)
        assert "error:" in err and "Traceback" not in err


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_running_out_of_memory_exits_5(tmp_path):
    # a 400 MB address-space limit in the child only: generating Leduc 3x2
    # (85,915 nodes) fits in it, converting the game does not
    limit = 400 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    def cli(*argv):
        proc = _python("-m", "pubcoord.cli", *argv, preexec_fn=cap,
                       env={"OPENBLAS_NUM_THREADS": "1"})
        return proc.returncode, proc.stderr

    g, c = tmp_path / "leduc.json", tmp_path / "c.json"
    code, err = cli("gen", "leduc", "--ranks", "3", "--raises", "2",
                    "--out", g)
    assert code == 0, err
    code, err = cli("convert", g, "--mode", "basic", "--out", c)
    assert code == 5, err
    assert err == "error: out of memory; the game is too large\n"


@pytest.mark.parametrize("optimize", [False, True])
def test_convert_actor_hidden_from_coordinator_exits_0(tmp_path, optimize):
    # convert applies the turn-taking transform to a game whose team view
    # hides who acts, and verify applies it too before comparing digests
    from conftest import hidden_actor_game
    g = tmp_path / "hidden.json"
    io_json.save_game(hidden_actor_game(), str(g))
    for mode in ("basic", "pruned", "folded"):
        c = tmp_path / f"{mode}.json"
        code, _, err = run_subprocess("convert", g, "--mode", mode, "--out",
                                      c, optimize=optimize)
        assert code == 0, err
        assert "applying the turn-taking transform" in err
        code, out, err = run_subprocess("verify", g, c, "--json",
                                        optimize=optimize)
        assert code == 0, err
        assert "applying the turn-taking transform" in err
        assert "Traceback" not in err
        assert json.loads(out)["max_abs_diff"] == 0


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


def test_no_command_imports_numpy_ma(tmp_path):
    # a plain ``np.unique`` imports numpy.ma under numpy 2.x, which every
    # fresh process would pay for; no command's path runs one
    if _python("-c", "import sys, numpy; print('numpy.ma' in sys.modules)"
               ).stdout.strip() == "True":
        pytest.skip("importing numpy alone imports numpy.ma")
    probe = ("import sys; from pubcoord.cli import main; code = main("
             "sys.argv[1:]); print('numpy.ma' in sys.modules, "
             "file=sys.stderr); sys.exit(code)")
    g, c = tmp_path / "kuhn.json", tmp_path / "conv.json"
    for argv in (("gen", "kuhn", "--ranks", "3", "--out", g),
                 ("convert", g, "--mode", "folded", "--safe-ir", "--out", c),
                 ("solve", c, "--iterations", "5"),
                 ("verify", g, c, "--samples", "5")):
        proc = _python("-c", probe, *argv)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        assert proc.stderr.splitlines()[-1] == "False", argv[0]


# solve and verify on the committed converted file; pinned when the file
# was in the converted-file format before columns, which gave the same
PINNED_SOLVE = ('{"algo": "lcfr+", "exploitability": "0.0634903123028", '
                '"iterations": 20, "team_value": "1.89352193464"}\n')
PINNED_VERIFY = '{"max_abs_diff": 0.0, "samples": 20}\n'


def test_committed_file_gives_the_pinned_reports():
    assert run_subprocess("solve", MINI_CONVERTED, "--iterations", "20",
                          "--log-every", "0", "--json")[:2] == (
        0, PINNED_SOLVE)
    assert run_subprocess("verify", MINI_GAME, MINI_CONVERTED, "--samples",
                          "20", "--seed", "0", "--json")[:2] == (
        0, PINNED_VERIFY)


def _relabel_opponent(d):
    """Rename the first action of the first opponent node to ``zz``."""
    _relabel(d, _edges_of(d, _node_of(d, "o"))[0], "zz")


def _hide_from_opponent(d):
    """Hide from the opponent the edge into its first node."""
    d["seen"][d["child"].index(_node_of(d, "o"))] &= ~2


@pytest.mark.parametrize("corruption,says", [
    (_relabel_opponent, "lacks the action 'l'"),
    (_hide_from_opponent, "observed ()"),
])
def test_opponent_mismatch_is_found_before_any_sample(corruption, says):
    # every opponent node is checked, not only those a sample reaches
    d = json.loads(MINI_CONVERTED.read_text())
    corruption(d)
    cg = io_json.converted_from_dict(d)
    with pytest.raises(SchemaError, match=re.escape(says)):
        pubcoord.check_payoff_equivalence(io_json.load_game(str(MINI_GAME)),
                                          cg, samples=0)


@pytest.mark.parametrize("corruption,says", [
    (_relabel_opponent, "lacks the action 'l'"),
    (_hide_from_opponent, "observed ()"),
])
def test_verify_opponent_mismatch_exits_4(tmp_path, corruption, says):
    d = json.loads(MINI_CONVERTED.read_text())
    corruption(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    code, _, err = run_subprocess("verify", MINI_GAME, bad,
                                  "--samples", "20")
    assert code == 4, err
    assert "Traceback" not in err
    assert says in err
