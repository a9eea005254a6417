"""Fuzz the command line: every argv from a small grammar ends in a
documented exit code (0 ok, 2 input, 3 precondition, 4 verification) and
never in a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from symalg import construct as C
from symalg.cli import main

SIZES = st.sampled_from(["1", "2", "3", "4", "5", "6", "-1", "0", "x", "2.5"])
# Mostly valid scalar literals, so that parameter shapes get checked too.
SCALARS = st.sampled_from(
    ["1", "-3/2", "0/1+1/2*sqrt2", "2", 1, -2, 0, "1/0", "abc", 1.5, True, None]
)
# Parameter values nest up to matrices of scalars, in any shape.
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
PARAM_NAMES = st.sampled_from(
    ["Y", "V", "W", "Z", "w", "a", "b", "x", "z", "gamma", "delta", "phi", "psi", "A", "B", "lam"]
)
PARAMS_TEXT = st.one_of(
    st.dictionaries(PARAM_NAMES, VALUES, max_size=2).map(json.dumps),
    VALUES.map(json.dumps),
    st.sampled_from(["{", "", "[1, 2", "null", '{"Z": NaN}']),
)
ENTRIES = st.sampled_from(["1", "-2/3", "1/2*sqrt2", "0", "1/0", "x"])
MATRIX_TEXT = st.one_of(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(ENTRIES, min_size=n * n, max_size=n * n).map(
            lambda entries: json.dumps({"n": n, "entries": entries})
        )
    ),
    st.builds(
        lambda n, entries: json.dumps({"n": n, "entries": entries}),
        st.integers(-1, 3),
        st.lists(ENTRIES, max_size=9),
    ),
    st.sampled_from(["{", "[]", '{"n": 2}']),
)


def _matrix_cmd(sub, path, out):
    if sub == "classify":
        return st.tuples(st.just(["classify", path]), st.sampled_from([[], ["--format", "json"]]))
    if sub == "block":
        return st.just((["block", path], []))
    return st.tuples(
        st.just(["decompose", path, "--even-out", out + "e.json", "--odd-out", out + "o.json"]),
        st.sampled_from([["--split", s] for s in ("ba", "sv", "nm", "qp", "zz")]),
    )


def argv_grammar(tmp):
    matrix = str(tmp / "m.json")
    params = str(tmp / "p.json")
    construct = st.tuples(
        st.just(["construct"]),
        st.sampled_from(list(C.CONSTRUCTIBLE) + ["P", "zz"]).map(lambda t: ["--type", t]),
        SIZES.map(lambda n: ["--n", n]),
        st.sampled_from([[], ["--params", params], ["--w", "3/2"], ["--seed", "4"]]),
    )
    verify = st.tuples(
        st.just(["verify"]),
        st.sampled_from(["dimensions", "gradings", "ranks", "lemmas", "all"]).map(
            lambda s: ["--suite", s]
        ),
        # Always bounded, so that no example runs a full-size suite.
        st.sampled_from(["0", "1", "2", "3"]).map(lambda n: ["--n-max", n]),
        st.sampled_from(["0", "1", "2"]).map(lambda t: ["--trials", t]),
    )
    dim = st.tuples(
        st.just(["dim"]),
        st.sampled_from(["S", "V", "P", "MPS", "NQS", "rv", "MENTRY", "zz"]).map(
            lambda s: ["--space", s]
        ),
        SIZES.map(lambda n: ["--n", n]),
    )
    matrix_cmds = st.sampled_from(["classify", "block", "decompose"]).flatmap(
        lambda sub: _matrix_cmd(sub, matrix, str(tmp / "out_"))
    )
    return st.one_of(construct, verify, dim, matrix_cmds).map(
        lambda parts: [arg for part in parts for arg in part]
    )


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(data=st.data(), params_text=PARAMS_TEXT, matrix_text=MATRIX_TEXT)
def test_cli_exit_codes_and_no_traceback(tmp_path, data, params_text, matrix_text):
    (tmp_path / "p.json").write_text(params_text)
    (tmp_path / "m.json").write_text(matrix_text)
    run_cli(data.draw(argv_grammar(tmp_path)))


@FUZZ
@given(data=st.data(), kind=st.sampled_from(C.CONSTRUCTIBLE), n=st.integers(1, 6))
def test_construct_params_of_any_shape(tmp_path, data, kind, n):
    # Names the form at this n knows, so that the values' shapes get checked.
    if n % 2 and C._FORMS[kind][1] is None:
        n += 1
    names = C._FORMS[kind][n % 2].names
    params = data.draw(st.dictionaries(st.sampled_from(names), VALUES, max_size=2))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    run_cli(["construct", "--type", kind, "--n", str(n), "--params", str(path)])
