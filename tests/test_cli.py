import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from fanram.cli import main, run
from fanram.coloring import BLACK, Coloring
from fanram.io import save_2col
from gadgets import cover_gadget


@pytest.fixture
def k46(tmp_path):
    path = tmp_path / "k46.2col"
    save_2col(Coloring.complete(46, BLACK), path)
    return str(path)


def test_oracle_ramsey_six(capsys):
    res = run(["oracle", "ramsey", "--N", "6", "--n", "1"])
    assert res.exit_code == 0
    assert res.payload["all_contain"] is True


def test_oracle_ramsey_five_negative_is_still_report():
    res = run(["oracle", "ramsey", "--N", "5", "--n", "1"])
    assert res.exit_code == 0
    assert res.payload["all_contain"] is False
    assert len(res.payload["fan_free_examples"]) > 0


@pytest.mark.parametrize("N, n", [("8", "2"), ("1000000000", "1"), ("0", "1")])
def test_oracle_ramsey_out_of_caps_is_usage_error(N, n):
    res = run(["oracle", "ramsey", "--N", N, "--n", n])
    assert res.exit_code == 2
    assert res.payload["error"] == "precondition"


def test_lowerbound_writes_and_verifies(tmp_path):
    out = str(tmp_path / "lb.2col")
    res = run(["lowerbound", "--n", "2", "--out", out])
    assert res.exit_code == 0
    assert res.payload["fan_free"] is True
    assert res.payload["N"] == 8
    assert os.path.exists(out)


def test_extract_and_verify_roundtrip(k46, tmp_path):
    trace_path = str(tmp_path / "trace.json")
    res = run(["extract", "--in", k46, "--n", "6", "--trace", trace_path])
    assert res.exit_code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(res.payload))
    ver = run(["verify", "--in", k46, "--cert", str(cert_path)])
    assert ver.exit_code == 0
    assert ver.payload["valid"] is True

    with open(trace_path) as fh:
        trace = json.load(fh)
    assert trace["certificate"] == res.payload
    assert trace["steps"]

    # tamper with the certificate: claim a white fan on a black coloring
    bad = dict(res.payload)
    bad["color"] = "white"
    cert_path.write_text(json.dumps(bad))
    ver2 = run(["verify", "--in", k46, "--cert", str(cert_path)])
    assert ver2.exit_code == 1
    assert ver2.payload["valid"] is False
    assert ver2.payload["violation"]


def test_extract_faithful_mode(k46):
    res = run(["extract", "--in", k46, "--n", "6", "--mode", "faithful"])
    assert res.exit_code == 0
    assert res.payload["n_claimed"] == 6


def test_extract_below_order_is_usage_error(tmp_path):
    path = tmp_path / "small.2col"
    save_2col(Coloring.complete(45, BLACK), path)
    res = run(["extract", "--in", str(path), "--n", "6"])
    assert res.exit_code == 2
    assert res.payload["error"] == "precondition"


def test_extract_accepts_graph6(tmp_path):
    path = tmp_path / "k46.g6"
    data = nx.to_graph6_bytes(nx.complete_graph(46), header=False).decode()
    path.write_text(data)
    res = run(["extract", "--in", str(path), "--n", "6"])
    assert res.exit_code == 0


def test_malformed_2col_reports_position(tmp_path):
    path = tmp_path / "bad.2col"
    path.write_text("p 2col 3\nBQ\nB\n")
    res = run(["extract", "--in", str(path), "--n", "1"])
    assert res.exit_code == 2
    assert res.payload["error"] == "format"
    assert res.payload["line"] == 2
    assert res.payload["offset"] == 1


def test_huge_2col_header_is_format_error(tmp_path):
    path = tmp_path / "hostile.2col"
    path.write_bytes(b"p 2col 3000000\nB")
    res = run(["extract", "--in", str(path), "--n", "1"])
    assert res.exit_code == 2
    assert res.payload["error"] == "format"
    assert "first missing pair is (0,2)" in res.payload["message"]


def test_missing_file_is_usage_error():
    res = run(["extract", "--in", "/no/such/file.2col", "--n", "3"])
    assert res.exit_code == 2


def test_non_ascii_2col_reports_position(tmp_path):
    path = tmp_path / "binary.2col"
    path.write_bytes(b"p 2col 3\r\nB\xffW\nB\n")
    res = run(["extract", "--in", str(path), "--n", "1"])
    assert res.exit_code == 2
    assert res.payload["error"] == "format"
    assert "0xff" in res.payload["message"]
    assert (res.payload["line"], res.payload["offset"]) == (2, 1)


def test_directory_as_input_is_usage_error(tmp_path):
    res = run(["extract", "--in", str(tmp_path), "--n", "3"])
    assert res.exit_code == 2
    assert res.payload["error"] == "precondition"


@pytest.mark.parametrize(
    "body",
    [
        "not json",
        "{}",
        '{"blades": [[1]], "color": "black", "center": 0, "n_claimed": 1}',
        '{"color": "red", "center": 0, "blades": [], "n_claimed": 0}',
    ],
)
def test_malformed_certificate_is_usage_error(k46, tmp_path, body):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(body)
    res = run(["verify", "--in", k46, "--cert", str(cert_path)])
    assert res.exit_code == 2
    assert res.payload["error"] == "precondition"


def test_usage_error_on_bad_flags():
    res = run(["extract", "--n", "3"])
    assert res.exit_code == 2
    assert res.payload["error"] == "usage"


def test_cover_command(tmp_path):
    c, A = cover_gadget(3, 3, 2, 6)
    path = tmp_path / "gadget.2col"
    save_2col(c, path)
    res = run(
        [
            "cover",
            "--in",
            str(path),
            "--clique",
            ",".join(str(v) for v in range(9)),
            "--color",
            "B",
            "--n",
            "6",
        ]
    )
    assert res.exit_code == 0
    assert res.payload["result"] == "cover"
    assert res.payload["cover"]["t"] == 3

    for clique in ("0,1,20", "0,-1,2"):
        bad = run(
            ["cover", "--in", str(path), "--clique", clique, "--color", "B", "--n", "6"]
        )
        assert bad.exit_code == 2
        assert bad.payload["error"] == "precondition"


def test_cover_command_white_clique(tmp_path):
    c, A = cover_gadget(3, 3, 2, 6)
    cs = c.swap_colors()
    path = tmp_path / "gadget_white.2col"
    save_2col(cs, path)
    res = run(
        [
            "cover",
            "--in",
            str(path),
            "--clique",
            ",".join(str(v) for v in range(9)),
            "--color",
            "W",
            "--n",
            "6",
        ]
    )
    assert res.exit_code == 0
    assert res.payload["result"] == "cover"
    assert res.payload["cover"]["color"] == "white"
    assert res.payload["cover"]["t"] == 3


def test_cover_command_can_return_fan(tmp_path):
    path = tmp_path / "k12.2col"
    save_2col(Coloring.complete(12, BLACK), path)
    res = run(
        ["cover", "--in", str(path), "--clique", "0,1,2,3", "--color", "B", "--n", "3"]
    )
    assert res.exit_code == 0
    assert res.payload["result"] == "fan"


def test_trials_deterministic_across_workers(monkeypatch):
    monkeypatch.setenv("FANRAM_WORKERS", "1")
    one = run(["trials", "--n", "3", "--count", "6", "--seed", "0"])
    assert one.exit_code == 0
    monkeypatch.setenv("FANRAM_WORKERS", "2")
    two = run(["trials", "--n", "3", "--count", "6", "--seed", "0"])
    assert json.dumps(one.payload, sort_keys=True) == json.dumps(
        two.payload, sort_keys=True
    )
    assert sum(f["runs"] for f in one.payload["families"].values()) == 6
    assert sum(f["successes"] for f in one.payload["families"].values()) == 6
    assert one.payload["branch_coverage"]


def test_trials_rejects_nonpositive_n(monkeypatch):
    monkeypatch.setenv("FANRAM_WORKERS", "1")
    for n in ("0", "-3"):
        res = run(["trials", "--n", n, "--count", "2"])
        assert res.exit_code == 2
        assert res.payload["message"] == f"fan parameter must be >= 1, got {n}"


@pytest.mark.parametrize(
    "argv, N",
    [
        (["trials", "--n", "1000000", "--count", "1"], 5166681),
        (["trials", "--n", "791", "--count", "1"], 4101),
        (["lowerbound", "--n", "1000000"], 4000000),
        (["lowerbound", "--n", "1025"], 4100),
    ],
)
def test_oversized_order_is_refused_before_generation(argv, N, monkeypatch):
    import fanram.cli as cli

    def no_generation(*args):
        raise AssertionError("a coloring was generated")

    monkeypatch.setenv("FANRAM_WORKERS", "1")
    monkeypatch.setattr(cli, "trial_coloring", no_generation)
    monkeypatch.setattr(cli, "bipartite_lower_bound", no_generation)
    res = run(argv)
    assert res.exit_code == 2
    assert res.payload == {
        "error": "precondition",
        "message": f"coloring order N={N} above the cap N={cli.MAX_GENERATED_N}",
    }


def test_generated_order_cap_is_inclusive(monkeypatch):
    import fanram.cli as cli

    monkeypatch.setenv("FANRAM_WORKERS", "1")
    monkeypatch.setattr(cli, "MAX_GENERATED_N", 30)  # min_order(3)
    assert run(["trials", "--n", "3", "--count", "1"]).exit_code == 0
    assert run(["trials", "--n", "4", "--count", "1"]).exit_code == 2
    monkeypatch.setattr(cli, "MAX_GENERATED_N", 8)
    assert run(["lowerbound", "--n", "2"]).exit_code == 0
    assert run(["lowerbound", "--n", "3"]).exit_code == 2


def test_trials_single_family(monkeypatch):
    monkeypatch.setenv("FANRAM_WORKERS", "1")
    res = run(["trials", "--n", "3", "--count", "3", "--seed", "5", "--family", "pentagon_blowup"])
    assert res.exit_code == 0
    assert list(res.payload["families"]) == ["pentagon_blowup"]
    res = run(["trials", "--n", "3", "--count", "4", "--seed", "5", "--family", "random"])
    assert res.exit_code == 0
    runs = {k: f["runs"] for k, f in res.payload["families"].items()}
    assert runs == {"random_p0.2": 2, "random_p0.5": 1, "random_p0.8": 1}


def test_unreachable_branch_maps_to_exit_3(k46, monkeypatch):
    import fanram.cli as cli
    from fanram.errors import UnreachableBranch

    def boom(*args, **kwargs):
        raise UnreachableBranch("test.label", detail=1)

    monkeypatch.setattr(cli, "extract_fan", boom)
    res = run(["extract", "--in", k46, "--n", "6"])
    assert res.exit_code == 3
    assert res.payload["error"] == "unreachable_branch"
    assert res.payload["label"] == "test.label"
    assert "report" in res.diagnostics


def test_trial_exception_fails_one_task_not_the_batch(monkeypatch):
    import fanram.cli as cli

    real = cli.extract_fan
    calls = []

    def flaky(coloring, n, mode):
        calls.append(mode)
        if len(calls) == 3:
            raise RecursionError("maximum recursion depth exceeded")
        return real(coloring, n, mode=mode)

    monkeypatch.setenv("FANRAM_WORKERS", "1")
    monkeypatch.setattr(cli, "extract_fan", flaky)
    res = run(["trials", "--n", "3", "--count", "6", "--seed", "0"])
    assert res.exit_code == 1
    assert len(calls) == 6
    assert sum(f["runs"] for f in res.payload["families"].values()) == 6
    assert sum(f["successes"] for f in res.payload["families"].values()) == 5
    assert res.payload["failures"] == [
        {"seed": 2, "error": "RecursionError: maximum recursion depth exceeded"}
    ]
    assert res.payload["unreachable"] == []


def test_parser_reuse_leaks_no_state(k46, tmp_path, monkeypatch):
    import fanram.cli as cli

    seen = []

    def spy(args):
        seen.append(args)
        return cli._cmd_extract(args)

    monkeypatch.setitem(cli._COMMANDS, "extract", spy)
    plain = ["extract", "--in", k46, "--n", "6"]
    first = run(plain)
    assert first.exit_code == 0
    assert run(["extract", "--in", k46, "--mode", "slow", "--n", "6"]).exit_code == 2
    trace = str(tmp_path / "t.json")
    faithful = run(plain[:3] + ["--mode", "faithful", "--trace", trace] + plain[3:])
    assert faithful.exit_code == 0
    assert seen[-1].mode == "faithful" and seen[-1].tracefile == trace
    last = run(plain)
    assert seen[-1].mode == "fast"
    assert seen[-1].tracefile is None
    assert last.payload == first.payload
    assert len({id(args) for args in seen}) == len(seen) == 3
    assert cli._build_parser() is cli._build_parser()


def test_main_prints_json(capsys):
    code = main(["oracle", "ramsey", "--N", "4", "--n", "1"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["N"] == 4


def _module_cli(args, cwd):
    """Run `python -m fanram.cli` in a child process, the way the process
    entry point and its sys.exit see it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fanram.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout)


def test_module_entry_point_exit_codes(tmp_path):
    code, doc = _module_cli(["lowerbound", "--n", "2", "--out", "F"], tmp_path)
    assert code == 0
    assert doc["fan_free"] is True
    assert (tmp_path / "F").exists()
    code, doc = _module_cli(["verify", "--in", "F", "--cert", "missing.json"], tmp_path)
    assert code == 2
    assert doc["error"] == "precondition"


def test_closed_stdout_pipe_exits_quietly():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "fanram.cli", "oracle", "ramsey", "--N", "6", "--n", "1"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # the reader goes away before the child has written anything
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""
