import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symalg import construct, predicates, verify
from symalg import io as mio
from symalg.blockform import to_block
from symalg.cli import main
from symalg.construct import _FORMS, CONSTRUCTIBLE, make_most_perfect_block
from symalg.matrix import Matrix, all_ones
from symalg.predicates import classify, even_only, in_space
from symalg.scalar import Scalar

ROOT = Path(__file__).resolve().parent.parent


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


def assert_unwritable(result):
    # An output path that cannot be written is an input error: exit 2 and
    # one line, never a traceback.
    code, _, err = result
    assert code == 2 and "Traceback" not in err, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write"), err


def test_block_unwritable_out_is_input_error(capsys, e4_file, tmp_path):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert_unwritable(run(capsys, "block", e4_file, "--out", str(out)))


def test_construct_unwritable_out_is_input_error(capsys, tmp_path):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert_unwritable(run(capsys, "construct", "--type", "s", "--n", "4", "--out", str(out)))


def test_decompose_unwritable_out_is_input_error(capsys, e4_file, tmp_path):
    ok, missing = str(tmp_path / "part.json"), str(tmp_path / "missing" / "x.json")
    for even, odd in ((missing, ok), (ok, missing), (str(tmp_path), ok)):
        assert_unwritable(run(
            capsys, "decompose", e4_file, "--split", "ba", "--even-out", even, "--odd-out", odd,
        ))


def test_decompose_writes_no_half_when_a_form_fails(capsys, tmp_path):
    # √2 parts cannot be written as CSV: the command exits 2 and leaves
    # neither file, even the one that it could have written.
    r2 = Scalar(0, 1)
    m = Matrix.from_rows([[1 + r2, 2 + r2], [3 - r2, 4 - r2]])
    src = tmp_path / "m.json"
    mio.write_matrix(m, str(src))
    ev, od = tmp_path / "e.csv", tmp_path / "o.csv"
    code, _, err = run(
        capsys, "decompose", str(src), "--split", "sv", "--even-out", str(ev), "--odd-out", str(od),
    )
    assert code == 2 and "CSV form cannot represent" in err, err
    assert not ev.exists() and not od.exists()


def test_decompose_writes_no_half_when_a_path_fails(capsys, e4_file, tmp_path):
    # The even half is writable but the odd one is not: the command exits 2
    # and leaves neither the even file nor any temporary file behind.
    out = tmp_path / "out"
    out.mkdir()
    ev = out / "e.json"
    for odd in (out / "missing" / "o.json", out):
        assert_unwritable(run(
            capsys, "decompose", e4_file, "--split", "sv",
            "--even-out", str(ev), "--odd-out", str(odd),
        ))
        assert list(out.iterdir()) == [], odd


def test_construct_classify_closure_all_types(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    for kind in CONSTRUCTIBLE:
        n = "6" if even_only(kind) else "5"
        code, _, _ = run(
            capsys, "construct", "--type", kind, "--n", n, "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0, kind
        m = mio.read_matrix(str(out_path))
        assert in_space(m, kind.upper()), kind


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


def test_construct_weight_flag_with_params(capsys, tmp_path):
    # --w joins the parameters, and a file "w" beside it is an input error.
    params = write_params(tmp_path, {"a": ["1", "2"], "w": "3"})
    code, out, err = run(
        capsys, "construct", "--type", "rv", "--n", "4", "--w", "1/2", "--params", params
    )
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "--w" in err and '"w"' in err
    params = write_params(tmp_path, {"a": ["1", "2"]})
    code, out, _ = run(
        capsys, "construct", "--type", "rv", "--n", "4", "--w", "1/2", "--params", params
    )
    assert code == 0
    # A reversible square of weight w is RV + w·E_n, associated with weight w.
    rep = classify(mio.loads_matrix(out))
    assert rep.props["R"].holds and rep.props["V"].holds
    assert rep.props["A"].weight == Scalar(Fraction(1, 2))


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


def test_construct_mps_block_form(capsys, tmp_path):
    params = write_params(tmp_path, {"a": ["1", "-1"], "b": ["0", "0"]})
    code, out, _ = run(capsys, "construct", "--type", "mps", "--n", "4", "--params", params)
    assert code == 0
    m = mio.loads_matrix(out)
    assert in_space(m, "MPS")
    assert m == make_most_perfect_block([1, -1], [0, 0], None, 4)
    # The block form's names do not mix with the vector form's.
    params = write_params(tmp_path, {"a": ["1", "-1"], "gamma": ["1", "0", "-1", "0"]})
    code, out, err = run(capsys, "construct", "--type", "mps", "--n", "4", "--params", params)
    assert code == 2 and out == ""
    assert "'gamma'" in err and len(err.splitlines()) == 1


def _param_json(value):
    # A parameter value as the --params file writes it: exact scalar
    # literals, matrices and grids as lists of rows.
    if isinstance(value, Scalar):
        return mio.scalar_to_string(value)
    if isinstance(value, Matrix):
        return [[mio.scalar_to_string(value[i, j]) for j in range(value.n)] for i in range(value.n)]
    return [_param_json(x) for x in value]


def test_construct_params_reach_every_table_name(capsys, tmp_path):
    # Each parameter of each form in the constructor table, set to its
    # first spanning value, builds through --params what the form builds.
    for kind, forms in _FORMS.items():
        for n in range(1, 9):
            form = forms[n % 2]
            if form is None:
                continue
            for name, space in form.params:
                values = space.spanning(n // 2)
                if not values:
                    continue
                path = write_params(tmp_path, {name: _param_json(values[0])})
                code, out, err = run(
                    capsys, "construct", "--type", kind, "--n", str(n), "--params", path
                )
                assert code == 0, (kind, n, name, err)
                assert mio.loads_matrix(out) == form.build(n, {name: values[0]}), (kind, n, name)


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


def test_construct_params_shape_messages_name_the_shape(capsys, tmp_path):
    # r at n = 4: Z is a 2×2 matrix and x a vector of length 2; p and q take
    # ν×ν blocks A and B for the given n, and A is checked first.
    one_by_one = {"A": [["1"]], "B": [["2"]]}
    for kind, n, params, expected in (
        ("r", 4, {"Z": ["1", "2", "3", "4"]}, "Z must be a 2×2 matrix"),
        ("r", 4, {"x": [["1"]]}, "x must be a vector of length 2"),
        ("p", 4, one_by_one, "A must be a 2×2 matrix, got 1×1"),
        ("q", 8, one_by_one, "A must be a 4×4 matrix, got 1×1"),
        ("p", 4, {"A": [["1"]]}, "A must be a 2×2 matrix, got 1×1"),
        ("q", 4, {"A": [["1"]]}, "A must be a 2×2 matrix, got 1×1"),
    ):
        path = write_params(tmp_path, params)
        code, out, err = run(capsys, "construct", "--type", kind, "--n", str(n), "--params", path)
        assert code == 3 and out == "" and expected in err, (kind, err)
        assert len(err.splitlines()) == 1, err


def test_construct_params_at_n_one_are_checked_against_nu_zero(capsys, tmp_path):
    # At n = 1 (ν = 0) a vector parameter is empty and there is no block,
    # as at n = 2 the shapes follow from ν.
    for kind, params, expected in (
        ("rv", {"a": [1, 2, 3]}, "a must be a vector of length 0, got length 3"),
        ("r", {"x": [1, 2, 3], "Z": [[1]]}, "x must be a vector of length 0"),
        ("r", {"Z": [[1]]}, "['Z'] do not apply"),
        ("s", {"Y": [[1]]}, "['Y'] do not apply"),
        ("n", {"W": [[1]], "lam": "2"}, "['W'] do not apply"),
        ("m", {"z": [1, 2]}, "z must be a vector of length 0"),
        ("v", {"v": [1]}, "v must be a vector of length 0, got length 1"),
        ("a", {"psi": [[1]]}, "psi must be a 1×0 matrix"),
        ("b", {"omega": [[1]]}, "['omega'] do not apply"),
    ):
        path = write_params(tmp_path, params)
        code, out, err = run(capsys, "construct", "--type", kind, "--n", "1", "--params", path)
        assert code == 3 and out == "" and expected in err, (kind, err)
        assert len(err.splitlines()) == 1, err
    for kind, params, entry in (
        ("rv", {"a": [], "b": [], "w": "2"}, "2/1"),
        ("r", {"gamma": "1", "x": [], "z": []}, "0/1+1/2*sqrt2"),
        ("v", {}, "0"),
    ):
        path = write_params(tmp_path, params)
        code, out, _ = run(capsys, "construct", "--type", kind, "--n", "1", "--params", path)
        assert code == 0 and mio.loads_matrix(out) == mio.loads_matrix(
            json.dumps({"n": 1, "entries": [entry]})
        )


def test_predicate_path_mismatch_is_verification_failure(capsys, monkeypatch, e4_file):
    # A route that disagrees with its twin is a bug in the program, not in the input.
    broken = dataclasses.replace(
        predicates.SPACES["B"], algebraic=lambda e, n: (False, None, 1)
    )
    monkeypatch.setitem(predicates.SPACES, "B", broken)
    code, _, err = run(capsys, "classify", e4_file)
    assert code == 4 and "Traceback" not in err, err
    assert len(err.splitlines()) == 1 and "(B)" in err


def test_construct_nonpositive_n_is_input_error(capsys):
    code, line = run_rejected(capsys, "construct", "--type", "s", "--n", "0")
    assert code == 2 and "--n" in line


def test_construct_unknown_type(capsys):
    code, _, _ = run(capsys, "construct", "--type", "zz", "--n", "4")
    assert code == 2


def test_construct_seed_defaults_to_zero(capsys, tmp_path, monkeypatch):
    # --seed is the one setting of the seed; the environment does not reach it.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("SYMALG_SEED", "11")
    run(capsys, "construct", "--type", "r", "--n", "4", "--out", str(a))
    run(capsys, "construct", "--type", "r", "--n", "4", "--seed", "0", "--out", str(b))
    assert mio.read_matrix(str(a)) == mio.read_matrix(str(b))


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--space", "S", "--n", "5")
    assert code == 0 and json.loads(out)["dimension"] == 17
    code, _, _ = run(capsys, "dim", "--space", "??", "--n", "5")
    assert code == 2


def test_dim_reads_only_the_oracle_nullity(capsys, monkeypatch):
    def no_basis(kind, n):
        raise AssertionError(f"dim built the {kind} constructor basis at n={n}")

    monkeypatch.setattr(construct, "constructor_basis", no_basis)
    monkeypatch.setattr(verify, "constructor_basis", no_basis)
    code, out, _ = run(capsys, "dim", "--space", "S", "--n", "24")
    assert code == 0
    assert json.loads(out) == {"space": "S", "n": 24, "dimension": 530}


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


def test_matrix_file_bool_size_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bool.json"
    bad.write_text('{"n": true, "entries": ["1/2"]}')
    code, out, err = run(capsys, "block", str(bad))
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert '"n" must be a positive integer, got True' in err


def _one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    # The JSON decoder recurses per level, and a parameter value nests at
    # most as deep as a matrix's rows of scalars.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    nested = tmp_path / "nested.json"
    nested.write_text('{"Z": ' + "[" * 900 + '"1"' + "]" * 900 + "}")
    construct = ["construct", "--type", "r", "--n", "4", "--params"]
    for argv, reason in (
        (["classify", str(deep)], "nested too deeply"),
        (construct + [str(deep)], "nested too deeply"),
        (construct + [str(nested)], "at most two deep"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _one_error_line(err), (argv, err)
        assert reason in err, (argv, err)


def test_non_utf8_file_error_names_the_file(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"n": 1, "entries": ["\xff"]}')
    for argv in (
        ["classify", str(bad)],
        ["construct", "--type", "r", "--n", "4", "--params", str(bad)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _one_error_line(err), (argv, err)
        assert err.startswith(f"error: cannot read {bad}: "), err


def test_json_array_or_object_errors_name_the_type(capsys, tmp_path):
    # A bad value that is an array or an object is named by its JSON type,
    # so the one error line stays short however large the value is.
    deep = "[" * 300 + "]" * 300
    wide = json.dumps({str(k): "x" * 20 for k in range(40)})
    cases = [
        ('{"n": %s, "entries": ["1"]}' % deep, '"n" must be a positive integer, got a JSON array'),
        ('{"n": %s, "entries": ["1"]}' % wide, '"n" must be a positive integer, got a JSON object'),
        ('{"n": 1, "entries": [%s]}' % deep, "cannot parse scalar literal: got a JSON array"),
        ('{"n": 1, "entries": [%s]}' % wide, "cannot parse scalar literal: got a JSON object"),
    ]
    path = tmp_path / "bad.json"
    for text, message in cases:
        path.write_text(text)
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == "" and _one_error_line(err), err
        assert err.strip() == f"error: {message}", err
    params = write_params(tmp_path, {"Z": json.loads(wide)})
    code, out, err = run(capsys, "construct", "--type", "r", "--n", "4", "--params", str(params))
    assert code == 2 and out == "" and _one_error_line(err), err
    assert len(err.strip()) < 200 and "a JSON object" in err, err


def test_csv_cell_with_a_huge_exponent_is_refused_at_once(tmp_path):
    # `Fraction` expands a decimal exponent, so reading 1e1000000000 takes
    # without bound; a cell that needs more digits than Python's int-string
    # limit is refused as it is read.  A subprocess, so that a hang fails.
    path = tmp_path / "huge.csv"
    path.write_text("1e1000000000\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "symalg.cli", "classify", str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert done.stderr.strip() == "error: line 1: bad rational '1e1000000000'"


def _cut_error_line(err):
    # One line of under 200 characters, with the echoed input cut.
    lines = err.strip().splitlines()
    return len(lines) == 1 and len(lines[0]) < 200 and "characters)" in lines[0]


def test_one_line_errors_cut_long_input(capsys, tmp_path):
    long = "1" * 5000 + "x"
    path = tmp_path / "bad.json"
    params = write_params(tmp_path, {"Z": long})
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({long: 1}))
    construct = ["construct", "--type", "r", "--n", "4"]
    for text, argv in (
        (json.dumps({"n": 1, "entries": [long]}), ["classify", str(path)]),
        (json.dumps({"n": long, "entries": []}), ["classify", str(path)]),
        ('{"n": 1%s, "entries": []}' % ("0" * 1500), ["classify", str(path)]),
        ("", ["dim", "--space", long, "--n", "3"]),
        ("", construct + ["--params", params]),
        ("", construct + ["--w", long]),
        ("", construct + ["--params", str(unknown)]),
        ("", ["construct", "--type", long, "--n", "4"]),
    ):
        path.write_text(text)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _cut_error_line(err), (argv, err)
    code, line = run_rejected(capsys, "construct", "--type", "s", "--n", long)
    assert code == 2 and len(line) < 200 and "characters)" in line, line


def test_numeric_json_entries(capsys, tmp_path):
    # A JSON int entry reads as that integer; a float or a bool is no
    # exact scalar literal.
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "entries": [3]}')
    code, out, _ = run(capsys, "block", str(path))
    assert code == 0 and mio.loads_matrix(out) == Matrix(1, (3,))
    for entry in ("1.5", "true"):
        path.write_text('{"n": 1, "entries": [%s]}' % entry)
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == "" and _one_error_line(err), err
        assert "cannot parse scalar literal" in err, err


def _short_error_line(err):
    # One line of under 200 characters, and none of Python's own advice.
    lines = err.strip().splitlines()
    return len(lines) == 1 and len(lines[0]) < 200 and "set_int_max_str_digits" not in err


def test_literals_past_the_int_string_limit_are_refused_in_one_line(capsys, tmp_path):
    # 5,000 digits pass Python's 4,300-digit int-string limit: as a matrix
    # entry, as "n", as a --params value (a string or a JSON number) and as
    # --w, each is refused as bad input in one short line.
    long = "1" * 5000
    path = tmp_path / "m.json"
    construct = ["construct", "--type", "r", "--n", "4"]
    literal = "cannot parse scalar literal '1111"
    number = "invalid JSON: an integer of more than 4300 digits"
    for text, argv, message in (
        (json.dumps({"n": 1, "entries": [long]}), ["classify", str(path)], literal),
        ('{"n": %s, "entries": []}' % long, ["classify", str(path)], number),
        ("", construct + ["--params", write_params(tmp_path, {"gamma": long})], literal),
        ('{"gamma": %s}' % long, construct + ["--params", str(path)], number),
        ("", construct + ["--w", long], literal),
    ):
        path.write_text(text)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _short_error_line(err), (argv, err)
        assert err.startswith(f"error: {message}"), (argv, err)


def test_output_past_the_int_string_limit_is_refused_in_one_line(capsys, tmp_path):
    # Each input entry has a denominator of 3,000 digits, so the conjugate
    # and the split halves have entries past the 4,300-digit limit; the
    # printers refuse them in one line and decompose writes no file.
    path = tmp_path / "big.csv"
    path.write_text("1/%d,0\n0,1/%d\n" % (10**2999 + 1, 10**2999 + 3))
    even, odd = tmp_path / "even.json", tmp_path / "odd.json"
    for argv in (
        ["block", str(path)],
        ["block", str(path), "--format", "pretty"],
        ["block", str(path), "--format", "csv"],
        ["decompose", str(path), "--split", "sv", "--even-out", str(even), "--odd-out", str(odd)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _short_error_line(err), (argv, err)
        assert err.strip() == "error: cannot print an entry of more than 4300 digits", err
    assert not even.exists() and not odd.exists()


@pytest.fixture
def long_weight_file(tmp_path):
    # A semimagic matrix whose entries print but whose weight (a + b)/(ab)
    # has about 6,000 digits.
    a, b = 10**2999 + 1, 10**2999 + 3
    path = tmp_path / "big.csv"
    path.write_text(f"1/{a},1/{b}\n1/{b},1/{a}\n")
    return path


def test_classify_refuses_a_weight_past_the_limit_in_one_line(capsys, long_weight_file):
    for fmt in ("pretty", "json"):
        code, out, err = run(capsys, "classify", str(long_weight_file), "--format", fmt)
        assert code == 2 and out == "" and _short_error_line(err), (fmt, err)
        assert err.strip() == "error: cannot print a weight of more than 4300 digits", err


def test_decompose_refuses_a_long_weight_before_writing(capsys, long_weight_file, tmp_path):
    even, odd = tmp_path / "even.json", tmp_path / "odd.json"
    argv = ["decompose", str(long_weight_file), "--split", "sv"]
    code, out, err = run(capsys, *argv, "--even-out", str(even), "--odd-out", str(odd))
    assert code == 2 and out == "" and _short_error_line(err), err
    assert err.strip() == "error: cannot print a weight of more than 4300 digits", err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


def test_block_and_construct_print_pretty_and_csv(capsys, e4_file):
    conjugate = to_block(all_ones(4)).conjugate
    member = construct.random_member("s", 4, random.Random(0))
    for argv, m in (
        (["block", e4_file], conjugate),
        (["construct", "--type", "s", "--n", "4"], member),
    ):
        code, out, _ = run(capsys, *argv, "--format", "pretty")
        assert code == 0 and out == mio.dumps_matrix_pretty(m) + "\n", argv
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and mio.loads_matrix_csv(out) == m, argv


def test_csv_output_of_sqrt2_entries_is_input_error(capsys):
    # The odd reverse form carries √2 entries, which CSV cannot hold.
    code, out, err = run(capsys, "construct", "--type", "r", "--n", "3", "--format", "csv")
    assert code == 2 and out == "" and _one_error_line(err), err
    assert err.strip() == "error: CSV form cannot represent √2 entries", err


def test_params_file_must_hold_an_object(capsys, tmp_path):
    for value in ([1, 2], "1/2", 3):
        params = write_params(tmp_path, value)
        code, out, err = run(capsys, "construct", "--type", "r", "--n", "4", "--params", params)
        assert code == 2 and out == "" and _one_error_line(err), (value, err)
        assert err.strip() == "error: parameter file must hold a JSON object", (value, err)


def test_size_too_long_for_repr_is_named_by_its_bits(capsys, tmp_path):
    # "n" = 10^4000 reads as an int, but n² has 8,001 digits, past the
    # limit of `repr`: the message names it by its bit length.
    path = tmp_path / "m.json"
    path.write_text('{"n": 1%s, "entries": []}' % ("0" * 4000))
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2 and out == "" and _short_error_line(err), err
    bits = (10**8000).bit_length()
    assert err.strip() == f'error: "entries" must list exactly an integer of {bits} bits strings'


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
