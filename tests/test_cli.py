import json
import random

import pytest

from symalg import io as mio
from symalg.cli import main
from symalg.construct import CONSTRUCTIBLE
from symalg.matrix import Matrix, all_ones
from symalg.predicates import classify, in_space
from symalg.scalar import Scalar

SPACE_TAG = {"mps": "MPS", "nqs": "NQS", "rv": "RV"}


@pytest.fixture()
def e4_file(tmp_path):
    path = tmp_path / "e4.json"
    mio.write_matrix(all_ones(4), str(path))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_rejected(capsys, *args):
    # Flag values that argparse rejects end in SystemExit.
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert "Traceback" not in err and len(errors) == 1, err
    return exc.value.code, errors[0]


def write_params(tmp_path, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    return str(path)


def test_classify_json(capsys, e4_file):
    code, out, _ = run(capsys, "classify", e4_file, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["properties"]["S"] == {"holds": True, "weight": "1", "route": "both"}
    assert rep["composites"]["NQS"] is True


def test_classify_pretty(capsys, e4_file):
    code, out, _ = run(capsys, "classify", e4_file)
    assert code == 0
    assert "(S)  yes  w = 1" in out


def test_classify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "nope.json"))
    assert code == 2 and "error" in err


def test_classify_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "entries": ["1", "2", "3"]}')
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2


def test_block_stdout_and_file(capsys, e4_file, tmp_path):
    code, out, _ = run(capsys, "block", e4_file)
    assert code == 0
    m = mio.loads_matrix(out)
    bf = tmp_path / "block.json"
    code, _, _ = run(capsys, "block", e4_file, "--out", str(bf))
    assert code == 0 and mio.read_matrix(str(bf)) == m
    assert m[0, 0] == Scalar(2)


def test_decompose_round_trip_through_files(capsys, tmp_path):
    rng = random.Random(40)
    m = Matrix(4, tuple(Scalar(rng.randint(-9, 9)) for _ in range(16)))
    src = tmp_path / "m.json"
    mio.write_matrix(m, str(src))
    ev, od = tmp_path / "even.json", tmp_path / "odd.json"
    for split in ("ba", "sv", "nm", "qp"):
        code, _, _ = run(
            capsys, "decompose", str(src), "--split", split,
            "--even-out", str(ev), "--odd-out", str(od),
        )
        assert code == 0
        assert mio.read_matrix(str(ev)) + mio.read_matrix(str(od)) == m


def test_decompose_qp_odd_is_input_error(capsys, tmp_path):
    src = tmp_path / "m3.json"
    mio.write_matrix(all_ones(3), str(src))
    code, _, err = run(
        capsys, "decompose", str(src), "--split", "qp",
        "--even-out", str(tmp_path / "e.json"), "--odd-out", str(tmp_path / "o.json"),
    )
    assert code == 2


def test_construct_classify_closure_all_types(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    for kind in CONSTRUCTIBLE:
        n = "6" if kind in ("p", "q", "mps", "nqs") else "5"
        code, _, _ = run(
            capsys, "construct", "--type", kind, "--n", n, "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0, kind
        m = mio.read_matrix(str(out_path))
        assert in_space(m, SPACE_TAG.get(kind, kind.upper())), kind


def test_construct_deterministic_given_seed(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "--type", "s", "--n", "5", "--seed", "3", "--out", str(a))
    run(capsys, "construct", "--type", "s", "--n", "5", "--seed", "3", "--out", str(b))
    assert mio.read_matrix(str(a)) == mio.read_matrix(str(b))


def test_construct_weight_flag(capsys, tmp_path):
    out_path = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "construct", "--type", "s", "--n", "5", "--seed", "1",
        "--w", "3/2", "--out", str(out_path),
    )
    assert code == 0
    rep = classify(mio.read_matrix(str(out_path)))
    assert rep.props["S"].weight == Scalar(1) * 3 / 2
    code, _, _ = run(capsys, "construct", "--type", "b", "--n", "4", "--w", "1")
    assert code == 2  # weight is meaningless for the balanced type


def test_construct_params_file(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"gamma": ["1", "0", "-1", "0"], "delta": ["0", "1", "0", "-1"]}))
    out_path = tmp_path / "mps.json"
    code, _, _ = run(
        capsys, "construct", "--type", "mps", "--n", "4",
        "--params", str(params), "--out", str(out_path),
    )
    assert code == 0
    assert classify(mio.read_matrix(str(out_path))).composites["MPS"]


def test_construct_bad_params_exit_three(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"a": [1, 2], "b": [3, 4]}))
    code, _, err = run(capsys, "construct", "--type", "mps", "--n", "4", "--params", str(params))
    assert code == 3 and "precondition" in err


def test_construct_params_unknown_name_is_input_error(capsys, tmp_path):
    params = write_params(tmp_path, {"gama": "1"})
    code, out, err = run(capsys, "construct", "--type", "r", "--n", "4", "--params", params)
    assert code == 2 and out == ""
    assert "'gama'" in err and len(err.strip().splitlines()) == 1


def test_construct_params_missing_name_is_zero(capsys, tmp_path):
    code, out, _ = run(
        capsys, "construct", "--type", "p", "--n", "4", "--params", write_params(tmp_path, {})
    )
    assert code == 0 and mio.loads_matrix(out).is_zero()
    B = [["1", "2"], ["3", "4"]]
    code, out, _ = run(
        capsys, "construct", "--type", "q", "--n", "4",
        "--params", write_params(tmp_path, {"B": B}),
    )
    assert code == 0
    assert mio.loads_matrix(out) == Matrix.from_rows(
        [[0, 0, 1, 2], [0, 0, 3, 4], [1, 2, 0, 0], [3, 4, 0, 0]]
    )


def test_construct_params_float_is_input_error(capsys, tmp_path):
    params = write_params(tmp_path, {"gamma": 0.5})
    code, _, err = run(capsys, "construct", "--type", "r", "--n", "4", "--params", params)
    assert code == 2 and "0.5" in err


def test_construct_params_bad_shape_is_precondition_violation(capsys, tmp_path):
    flat = ["1", "2", "3", "4"]
    for kind, params in (("r", {"Z": flat}), ("p", {"A": flat}), ("r", {"x": [["1"], ["2"]]})):
        path = write_params(tmp_path, params)
        code, _, err = run(capsys, "construct", "--type", kind, "--n", "4", "--params", path)
        assert code == 3 and "Traceback" not in err, (kind, params, err)


def test_construct_nonpositive_n_is_input_error(capsys):
    code, line = run_rejected(capsys, "construct", "--type", "s", "--n", "0")
    assert code == 2 and "--n" in line


def test_construct_unknown_type(capsys):
    code, _, _ = run(capsys, "construct", "--type", "zz", "--n", "4")
    assert code == 2


def test_seed_env_fallback(capsys, tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("SYMALG_SEED", "11")
    run(capsys, "construct", "--type", "r", "--n", "4", "--out", str(a))
    monkeypatch.delenv("SYMALG_SEED")
    run(capsys, "construct", "--type", "r", "--n", "4", "--seed", "11", "--out", str(b))
    assert mio.read_matrix(str(a)) == mio.read_matrix(str(b))


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--space", "S", "--n", "5")
    assert code == 0 and json.loads(out)["dimension"] == 17
    code, _, _ = run(capsys, "dim", "--space", "??", "--n", "5")
    assert code == 2


def test_dim_nonpositive_n_is_input_error(capsys):
    for n in ("0", "-3"):
        code, line = run_rejected(capsys, "dim", "--space", "V", "--n", n)
        assert code == 2 and "--n" in line


def test_verify_nonpositive_trials_and_n_max_are_input_errors(capsys):
    for flag, value in (("--trials", "0"), ("--trials", "-1"), ("--n-max", "0")):
        code, line = run_rejected(capsys, "verify", "--suite", "gradings", flag, value)
        assert code == 2 and flag in line


def test_verify_that_checks_nothing_is_not_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ranks", "--n-max", "1")
    rep = json.loads(out)
    assert code == 4 and rep["checks"] == [] and rep["ok"] is False


def test_matrix_file_zero_denominator_is_input_error(capsys, tmp_path):
    bad = tmp_path / "zero.json"
    bad.write_text('{"n": 1, "entries": ["1/0"]}')
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2 and "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_verify_command_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dimensions", "--n-max", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["failed"] == 0


def test_serialization_round_trip_many():
    rng = random.Random(41)
    from fractions import Fraction

    for _ in range(200):
        n = rng.randint(1, 5)
        m = Matrix(
            n,
            tuple(
                Scalar(
                    Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
                    Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
                )
                for _ in range(n * n)
            ),
        )
        assert mio.loads_matrix(mio.dumps_matrix(m)) == m
