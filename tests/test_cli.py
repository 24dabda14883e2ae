import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quadorder
from quadorder.cli import CSV_COLUMNS, build_parser, main, run_identity_trials


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_text(capsys):
    code, out, err = run(capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "17")
    assert code == 0
    assert "norm_minus_one" in out
    assert "[pass]" in out


def test_order_json_schema(capsys):
    code, out, _ = run(capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "17", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "results", "pass"}
    assert payload["command"] == "order"
    assert payload["pass"] is True
    names = [r["name"] for r in payload["results"]]
    assert "bound_n" in names and "ell" in names
    assert out.endswith("\n")


def test_order_with_oracle(capsys):
    code, out, _ = run(
        capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "17", "--oracle", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["oracle_order"]["value"] == 16


def test_order_degenerate_exits_2(capsys):
    code, _, err = run(capsys, "order", "--d", "5", "--alpha", "1,1", "--p", "5")
    assert code == 2
    assert "ell = 0" in err
    assert "index 5" in err


def test_order_rejects_bad_inputs(capsys):
    code, _, err = run(capsys, "order", "--d", "2", "--alpha", "1,1", "--p", "9")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "order", "--d", "2", "--alpha", "nope", "--p", "7")
    assert code == 2
    code, _, err = run(capsys, "order", "--d", "2", "--alpha", "2,14", "--p", "7")
    assert code == 2  # p divides b
    code, _, err = run(capsys, "order", "--d", "5", "--alpha", "1,2", "--p", "7")
    assert code == 2  # parity violation inside the half-integer lattice


def test_order_fundunit_source(capsys):
    code, out, _ = run(capsys, "order", "--d", "13", "--fundunit", "--p", "29", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["a"] == 3 and payload["inputs"]["b"] == 1


def test_conductor_json(capsys):
    code, out, _ = run(capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--json")
    assert code == 0
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["n_exact"]["value"] == 12
    assert by_name["bound"]["value"] == 36
    assert payload["pass"] is True


def test_conductor_even_f(capsys):
    code, out, _ = run(capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", "12", "--json")
    assert code == 0
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["bound"]["value"] is None


def test_conductor_with_oracle(capsys):
    code, out, _ = run(
        capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--oracle", "--json"
    )
    payload = json.loads(out)
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["oracle_n"]["value"] == 12
    assert code == 0


def test_conductor_nonexistent_exits_2(capsys):
    code, _, err = run(capsys, "conductor", "--d", "6", "--alpha", "1,1", "--f", "5")
    assert code == 2
    assert "error:" in err


def test_conductor_refuses_unfactorable_p_minus_ell_quickly(capsys, monkeypatch):
    # q(p) for 1 + sqrt(2) needs p - 1 = 2 * 1000003 * 1000121 factored,
    # which is beyond the trial bound: a quick exit 2, not a scan of ~p steps
    monkeypatch.delenv("QUADORDER_TRIAL_BOUND", raising=False)
    p = 2 * 1000003 * 1000121 + 1
    t0 = time.perf_counter()
    code, _, err = run(capsys, "conductor", "--d", "2", "--alpha", "1,1", "--f", str(p))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "trial bound" in err


def test_fundunit_text(capsys):
    code, out, _ = run(capsys, "fundunit", "--d", "2")
    assert code == 0
    assert "1 + 1*sqrt(2)" in out
    assert "norm: -1" in out


def test_fundunit_rejects_square(capsys):
    code, _, err = run(capsys, "fundunit", "--d", "4")
    assert code == 2


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--trials", "25", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["results"]) == 7
    for tally in payload["results"]:
        assert tally["passed"] == tally["total"] == 25


def test_identity_trials_deterministic():
    a = run_identity_trials(30, seed=7)
    b = run_identity_trials(30, seed=7)
    assert [(t.name, t.passed, t.total) for t in a] == [(t.name, t.passed, t.total) for t in b]
    assert all(t.passed == 30 for t in a)


def test_sweep_csv_shape(capsys):
    code, out, err = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "2", "--p-max", "12", "--f-max", "4"
    )
    assert code == 0
    assert "seed 0" in err
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows, "the small grid still produces rows"
    assert {row["kind"] for row in rows} == {"order", "conductor"}
    assert all(row["pass"] == "true" for row in rows)


def test_sweep_reproducible(capsys):
    args = ["sweep", "--d-set", "2,5", "--coeff-bound", "2", "--p-max", "10", "--f-max", "3",
            "--seed", "9"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sweep_json_format(capsys):
    code, out, _ = run(
        capsys, "sweep", "--d-set", "3", "--coeff-bound", "1", "--p-max", "8",
        "--f-max", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "sweep"
    assert payload["pass"] is True
    assert all(set(CSV_COLUMNS) >= set(row) for row in payload["results"])


def test_sweep_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "8",
        "--f-max", "2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    data = target.read_bytes()
    assert b"\r" not in data
    text = data.decode("utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_sweep_with_oracle_small(capsys):
    code, out, _ = run(
        capsys, "sweep", "--d-set", "2", "--coeff-bound", "1", "--p-max", "8",
        "--f-max", "3", "--oracle"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    order_rows = [r for r in rows if r["kind"] == "order" and r["oracle"]]
    assert order_rows
    for row in order_rows:
        assert int(row["bound"]) % int(row["oracle"]) == 0


def test_sweep_rejects_bad_d(capsys):
    code, _, err = run(capsys, "sweep", "--d-set", "4")
    assert code == 2


def test_sweep_help_documents_csv(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    out = capsys.readouterr().out
    assert "CSV columns" in out
    for col in ("kind", "tightness", "failed_names"):
        assert col in out


def test_help_documents_exit_codes_and_env(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "QUADORDER_TRIAL_BOUND" in out
    assert "exit codes" in out


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["order", "--d", "2", "--alpha", "1,1", "--p", "7"])
    assert args.p == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--d", "13", "--fundunit", "--p", "29", "--json"],
        ["conductor", "--d", "2", "--alpha", "1,1", "--f", "45", "--json"],
    ],
)
def test_output_unchanged_under_optimize(argv):
    # python -O strips assert statements; the invariants must not lean on them
    env = {**os.environ, "PYTHONPATH": str(Path(quadorder.__file__).parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "quadorder.cli", *argv],
            capture_output=True,
            env=env,
            timeout=60,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
