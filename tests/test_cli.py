import json
import os

from liftcount import cli

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


def demo(name):
    return os.path.join(DEMOS, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_friends(capsys):
    code, out, _ = run(capsys, "count", demo("friends.wmc"))
    assert code == 0
    assert out.strip() == "1792"


def test_count_json_schema(capsys):
    code, out, _ = run(capsys, "count", demo("friends.wmc"), "--json", "--approx")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "count"
    assert payload["result"] == "1792"
    assert payload["exact"] is True
    assert payload["n"] == 3
    assert payload["approx"] == 1792.0
    assert set(payload["counters"]) == {"k_vectors", "pruned", "cells"}
    assert "ms" in payload


def test_weighted_smokers(capsys):
    code, out, _ = run(capsys, "weighted", demo("smokers.wmc"))
    assert code == 0
    assert out.strip() == "23203125"


def test_dist_coins(capsys):
    code, out, _ = run(capsys, "dist", demo("coins.wmc"), "--preds", "!H,H",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {
        "(4,0)": "1/8", "(3,1)": "0", "(2,2)": "3/4",
        "(1,3)": "0", "(0,4)": "1/8"}


def test_dist_defaults_to_statweight_preds(capsys):
    code, out, _ = run(capsys, "dist", demo("coins.wmc"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["(2)"] == "3/4"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", demo("friends.wmc"))
    assert code == 0
    assert out.strip() == "1792"
    code, out, _ = run(capsys, "oracle", demo("coins.wmc"), "--dist",
                       "--preds", "H", "--json")
    assert code == 0
    assert json.loads(out)["result"]["(2)"] == "3/4"


def test_check_functionality(capsys):
    code, out, _ = run(capsys, "check", demo("functionality.wmc"), "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n=1: closed=1 oracle=1 ok"
    assert lines[1] == "n=2: closed=4 oracle=4 ok"
    assert lines[2] == "n=3: closed=27 oracle=27 ok"


def test_check_all_demos(capsys):
    names = [n for n in sorted(os.listdir(DEMOS)) if n.endswith(".wmc")]
    assert names
    for name in names:
        code, out, _ = run(capsys, "check", demo(name), "--max-n", "2")
        assert code == 0, (name, out)


def test_tables_command(capsys):
    code, out, _ = run(capsys, "tables", demo("friends.wmc"))
    assert code == 0
    payload = json.loads(out)
    assert payload["u"] == 2 and payload["b"] == 2
    assert payload["n_ij"]["1,3"] == 2
    assert payload["n_ijv"]["1,3"] == [0, 2]


def test_program_command(capsys):
    code, out, _ = run(capsys, "program", demo("existential.wmc"))
    assert code == 0
    assert "sign: $P1" in out
    assert "formula: forall x forall y" in out


def test_dump_flags(capsys):
    code, out, _ = run(capsys, "count", demo("existential.wmc"),
                       "--dump-program", "--dump-tables")
    assert code == 0
    assert "sign: $P1" in out
    assert '"alive"' in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.wmc"
    bad.write_text("domain: 2\nformula: forall x exists z P(x,z)\n")
    code, _, err = run(capsys, "count", str(bad))
    assert code == cli.EXIT_PARSE
    assert "third variable" in err


def test_non_utf8_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.wmc"
    bad.write_bytes(b"domain: 2\nunary: A\nformula: true # \xff\n")
    code, out, err = run(capsys, "count", str(bad))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and "0xff" in err and "line 3" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "count", "/no/such/file.wmc")
    assert code == cli.EXIT_PARSE


def test_capacity_exit_code(tmp_path, capsys):
    big = tmp_path / "big.wmc"
    big.write_text("domain: 6\nbinary: R\nformula: true\n")
    code, _, err = run(capsys, "oracle", str(big))
    assert code == cli.EXIT_CAPACITY
    assert "limit" in err


def test_check_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    from fractions import Fraction
    import liftcount.cli as cli_mod
    monkeypatch.setattr(cli_mod, "_closed_form",
                        lambda *a, **k: Fraction(12345))
    code, _, err = run(capsys, "check", demo("friends.wmc"), "--max-n", "1")
    assert code == cli.EXIT_MISMATCH
    assert "disagrees" in err


def test_empty_distribution_exit(tmp_path, capsys):
    dead = tmp_path / "dead.wmc"
    dead.write_text("domain: 2\nunary: A\nformula: false\n")
    code, _, err = run(capsys, "dist", str(dead), "--preds", "A")
    assert code == 1
    assert "partition function" in err


def test_progress_flag(capsys):
    code, out, _err = run(capsys, "count", demo("friends.wmc"), "--progress")
    assert code == 0
    assert out.strip() == "1792"
