"""Command dispatch, exit codes, report artifacts, determinism."""

import io
import json
import math
import os
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biherm.cli
from biherm.certificate import DEFAULT_TOLERANCES, CertificateConfig
from biherm.cli import build_parser, main
from biherm.deformation import DEFAULT_ODE_TOL
from biherm.errors import DegenerateForm, SingularMetric
from biherm.exterior import DEFAULT_FD_STEP

ROOT3 = float(np.sqrt(3) / 2)

CASE_B_DOC = {
    "alpha": {"re": 0.5, "im": 0.0},
    "beta": {"re": 0.6, "im": 0.0},
    "lambda": {"re": 0.0, "im": 0.0},
    "m": 1,
    "H": [[{"re": -0.5, "im": ROOT3}, 0, 0, {"re": -0.5, "im": -ROOT3}]],
}
CASE_C_DOC = {
    "alpha": 0.6, "beta": 0.6, "lambda": 0.1, "m": 1,
    "H": [[-1.0, 0, 0, -1.0]],
}
BAD_DET_DOC = {"alpha": 0.5, "beta": 0.7, "H": [[{"im": 1.0}, 0, 0, {"im": 1.0}]]}
NOT_REAL_DOC = {"alpha": {"im": 0.5}, "beta": 0.6}
INOUE_SM_DOC = {
    "family": "SM",
    "generators": [
        {"p": 4.0, "r": {"re": 0.0, "im": 0.5}},
        {"p": 1.0, "q": 1.3, "r": 1.0, "u": {"re": 0.7, "im": 0.2}},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestClassifyCommand:
    def test_case_b_accepts(self, tmp_path, capsys):
        code = main(["classify", "--config", write(tmp_path, "b.json", CASE_B_DOC)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["case"] == "b"
        assert payload["a"] == pytest.approx(0.3)
        assert payload["ell"] == 3

    def test_determinant_refusal(self, tmp_path, capsys):
        code = main(["classify", "--config", write(tmp_path, "d.json", BAD_DET_DOC)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["case"] == "not_real_type"
        assert "SU(2)" in payload["reason"]

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"alpha": 0.5,,}')
        code = main(["classify", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "parse error" in err and "broken.json:1" in err

    def test_missing_field_points_at_it(self, tmp_path, capsys):
        code = main(["classify", "--config",
                     write(tmp_path, "m.json", {"alpha": 0.5})])
        assert code == 1
        assert "beta" in capsys.readouterr().err

    def test_irrational_rotation_reaches_the_cap_quickly(self, tmp_path, capsys):
        one = {"re": math.cos(1.0), "im": math.sin(1.0)}
        doc = {"alpha": 0.5, "beta": 0.6,
               "H": [[one, 0, 0, {"re": one["re"], "im": -one["im"]}]]}
        start = time.perf_counter()
        code = main(["classify", "--config", write(tmp_path, "r.json", doc)])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload == {"case": "invalid",
                           "reason": "closure exceeded cap of 1000 elements; "
                           "generators do not span a finite group"}
        assert elapsed < 2.0


SWEEP_FLAGS = {"--config", "--out", "--seed", "--samples", "--t-grid",
               "--ode-tol"}
COMMAND_FLAGS = {
    "classify": {"--config", "--out"},
    "certify": SWEEP_FLAGS | {"--t", "--fd-step", "--tol-tier", "--threads"},
    "sweep": SWEEP_FLAGS,
    "construct": SWEEP_FLAGS | {"--t"},
    "inoue": {"--config", "--out", "--seed", "--samples"},
    "oracle": {"--out", "--seed"},
}


def parser_flags():
    """The long options of each subcommand of build_parser()."""
    sub = next(a for a in build_parser()._actions if a.choices)
    return {name: {opt for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}


class TestFlagSets:
    def test_each_command_has_the_flags_it_reads(self):
        flags = parser_flags()
        assert flags == COMMAND_FLAGS
        assert sum(len(v) for v in flags.values()) == 31

    def test_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["certify", "--config", "CONFIG"])
        assert args.seed == CertificateConfig.seed
        assert args.samples == CertificateConfig.n
        assert args.ode_tol == DEFAULT_ODE_TOL
        assert args.fd_step == DEFAULT_FD_STEP

    @pytest.mark.parametrize("argv", [
        ["oracle", "--samples", "0"],
        ["classify", "--config", "CONFIG", "--t", "0.2"],
        ["sweep", "--config", "CONFIG", "--tol-tier", "anticommutator=1"],
        ["construct", "--config", "CONFIG", "--threads", "2"],
        # no abbreviation: sweep does not read --t as --t-grid
        ["sweep", "--config", "CONFIG", "--t", "0:0.5:0.1"],
        ["certify", "--config", "CONFIG", "--sample", "2"],
    ])
    def test_a_flag_the_command_does_not_read_is_a_parse_error(
            self, tmp_path, capsys, argv):
        path = write(tmp_path, "b.json", CASE_B_DOC)
        code = main([path if a == "CONFIG" else a for a in argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("parse error: unrecognized arguments: ")
        assert err.count("\n") == 1


def assert_oversized_shear_refused(tmp_path, capsys, argv):
    # refused before any flow, with or without a fixed t
    doc = dict(CASE_C_DOC, **{"lambda": 100.0})
    code = main([*argv, "--config", write(tmp_path, "c.json", doc),
                 "--samples", "4"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("analytic refusal:") and err.count("\n") == 1
    assert "lambda" in err


class TestCertifyCommand:
    def test_small_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["certify", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "8", "--seed", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["schema_version"] == "1"
        assert payload["case"]["case"] == "b"
        assert len(payload["identities"]) >= 10
        assert payload["conventions"]["ddc"].startswith("d^c")

    def test_refusal_exit_code(self, tmp_path):
        code = main(["certify", "--config",
                     write(tmp_path, "n.json", NOT_REAL_DOC), "--samples", "4"])
        assert code == 2

    def test_oversized_shear_is_analytic_refusal(self, tmp_path, capsys):
        assert_oversized_shear_refused(tmp_path, capsys, ["certify"])

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["construct"], ["construct", "--t", "0.2"]])
    def test_oversized_shear_refused_by_other_commands(self, tmp_path, capsys,
                                                       argv):
        assert_oversized_shear_refused(tmp_path, capsys, argv)

    def test_diagonal_roundoff_is_numerical_failure(self, tmp_path, capsys):
        # dd^c f > 0 is a theorem for a diagonal flow (lambda = 0): a
        # negative eigenvalue at |alpha| = 1e-15 is roundoff, not the shear
        path = write(tmp_path, "a.json", {"alpha": 1e-15, "beta": 0.9})
        code = main(["construct", "--config", path, "--samples", "8",
                     "--t", "0.2"])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "lambda" not in err

    @pytest.mark.parametrize("argv", [["construct", "--t", "0.2"], ["sweep"]])
    def test_very_unequal_moduli_are_solved(self, tmp_path, capsys, argv):
        # |beta| / |alpha| = 900: Newton on G from the closed-form upper end
        # of the radial time ran out of steps on four of these samples
        path = write(tmp_path, "d.json", {"alpha": 0.001, "beta": 0.9})
        code = main([*argv, "--config", path, "--samples", "16", "--seed",
                     "7"])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--ode-tol", "1e-300"),  # the error norm squared overflowed
        ("--ode-tol", "1e300"),  # ... and underflowed to 0 / 0
        ("--t", "1e-320"),
        ("--t", "1e-10"),  # 1 - p^2 rounded to 0 in the canonical factor
        ("--fd-step", "1e300"),
        ("--samples", "1"),
    ])
    def test_extreme_numeric_flags_end_in_one_line(self, tmp_path, capsys,
                                                   flag, value):
        # the last of a repeated flag wins
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["certify", "--config",
                         write(tmp_path, "b.json", CASE_B_DOC),
                         "--samples", "2", "--t", "0.1", flag, value])
        err = capsys.readouterr().err
        assert code in range(6)
        assert err.count("\n") <= 1
        assert "Traceback" not in err and "Warning" not in err
        assert not [str(w.message) for w in caught]

    def test_oversized_fd_step_names_the_flag(self, tmp_path, capsys):
        code = main(["certify", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "2", "--t", "0.1", "--fd-step", "1e300"])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1
        assert "--fd-step" in err and len(err) < 120

    def test_too_small_t_is_analytic_refusal(self, tmp_path, capsys):
        # at t = 1e-10, 1 - p^2 rounds to 0 at every sample: each is
        # excluded, as at t = 0
        code = main(["certify", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "2", "--t", "1e-10"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("analytic refusal:") and err.count("\n") == 1

    @pytest.mark.parametrize("samples", ("4", "16"))
    def test_non_transverse_shear_is_refused_at_any_n(self, tmp_path, capsys,
                                                      samples):
        # |lambda / beta| = 0.222 against 2 |log 0.9| = 0.211: the radial
        # time is not unique, so the surface is refused whatever the samples
        doc = {"alpha": 0.9, "beta": 0.9, "lambda": 0.2, "m": 1}
        code = main(["certify", "--config", write(tmp_path, "s.json", doc),
                     "--samples", samples])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("analytic refusal:") and "not transverse" in err

    def test_tolerance_override_forces_failure(self, tmp_path, capsys):
        code = main(["certify", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "6", "--tol-tier", "j_minus_square=1e-18"])
        assert code == 5

    def test_every_sample_excluded_is_analytic_refusal(self, tmp_path, capsys):
        code = main(["certify", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "4", "--t=-0.02"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("analytic refusal:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--threads", "0"],
        ["--fd-step", "0"],
        ["--fd-step", "nan"],
        ["--ode-tol", "0"],
        ["--ode-tol=-1e-10"],
        ["--tol-tier", "anticommutator=abc"],
        ["--tol-tier", "anticommutator=0"],
        ["--tol-tier", "anticommutator=inf"],
        ["--tol-tier", "nonsense=1"],
        ["--samples", "abc"],
        ["--seed", "x"],
        ["--seed", "-1"],
        ["--t", "nan"],
        ["--t", "inf"],
        ["--t-grid", "0:nan:0.1"],
        ["--t-grid", "0:inf:0.1"],
        ["--t-grid", "0:1:1e-300"],
        ["--t-grid", "0:1e308:1e-10"],
        ["--fd-step", "1e-200"],  # no stencil point leaves its base point
        ["--fd-step", "0.34"],  # an arm longer than the point's scale
    ])
    def test_bad_numbers_are_parse_errors(self, tmp_path, capsys, argv):
        code = main(["certify", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("parse error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command, doc", [
        ("classify", {"alpha": ["a", 1], "beta": 0.6}),
        ("classify", dict(CASE_B_DOC, H=[[[None, 1], 0, 0, 1]])),
        ("classify", dict(CASE_B_DOC, H=3)),
        ("certify", dict(CASE_B_DOC, alpha=math.nan)),
        ("certify", dict(CASE_C_DOC, **{"lambda": math.inf})),
        ("certify", dict(CASE_B_DOC, alpha=1e400)),
        ("certify", dict(CASE_B_DOC, arg_alpha="inf")),
        ("certify", dict(CASE_B_DOC, arg_alpha="nan")),
        ("inoue", dict(INOUE_SM_DOC, generators=5)),
        ("inoue", dict(INOUE_SM_DOC, generators=[{"p": "nan"}])),
    ])
    def test_bad_documents_are_parse_errors(self, tmp_path, capsys, command,
                                            doc):
        # non-finite numbers and non-list H or generators are refused by the
        # document parsers, before any classification or flow
        argv = [command, "--config", write(tmp_path, "doc.json", doc)]
        if "--samples" in COMMAND_FLAGS[command]:
            argv += ["--samples", "2"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("parse error:") and err.count("\n") == 1
        assert "unrecognized arguments" not in err

    @pytest.mark.parametrize("argv", [
        ["construct", "--samples", "1", "--t", "1e3"],
        ["certify", "--samples", "1", "--t=-11"],
        ["sweep", "--samples", "1", "--t-grid", "0:1e3:1"],
        ["construct", "--samples", "1", "--t-grid=-20:0.5:0.1"],
    ])
    def test_huge_deformation_time_is_refused_at_once(self, tmp_path, capsys,
                                                      argv):
        # the flow's work grows with |t|; beyond MAX_ABS_T it is not started
        start = time.perf_counter()
        code = main([*argv, "--config", write(tmp_path, "b.json", CASE_B_DOC)])
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("parse error:") and err.count("\n") == 1
        assert "10" in err

    @pytest.mark.parametrize("argv", [["construct", "--t", "0.2"], ["certify"],
                                      ["sweep"]])
    def test_subnormal_multiplier_is_refused_in_one_line(self, tmp_path,
                                                         capsys, argv):
        # alpha = beta = 1.8e-161 gives a = 3.3e-322, so f = a^r and Phi/f
        # leave double precision; refused before any numerics, no warning
        tiny = 1.8124248049063527e-161
        path = write(tmp_path, "tiny.json", {"alpha": tiny, "beta": tiny})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--config", path, "--samples", "2"])
        out, err = capsys.readouterr()
        assert code == 4 and out == "" and not caught
        assert err == ("numerical failure: multiplier a = exp(-740.2) is below "
                       "1e-30: f = a^r and the quotient forms Phi/f leave "
                       "double precision\n")

    @pytest.mark.parametrize("modulus", [1e-40, 1.8124248049063527e-161])
    def test_tiny_multiplier_still_classifies(self, tmp_path, capsys, modulus):
        # classify does no flow numerics: a valid diagonal surface is case
        # (a) at any modulus
        path = write(tmp_path, "tiny.json", {"alpha": modulus, "beta": modulus})
        code = main(["classify", "--config", path])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert json.loads(out)["case"] == "a"

    @pytest.mark.parametrize("error", [DegenerateForm, SingularMetric])
    def test_degenerate_linear_algebra_is_numerical_failure(
            self, tmp_path, capsys, monkeypatch, error):
        def raising(cfg):
            raise error("synthetic")

        monkeypatch.setattr(biherm.cli, "run_certificate", raising)
        code = main(["certify", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "2"])
        err = capsys.readouterr().err
        assert code == 4
        assert err == "numerical failure: synthetic\n"


class TestSweepCommand:
    def test_csv_shape_and_order(self, tmp_path, capsys):
        code = main(["sweep", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "10", "--t-grid", "0.2:0.05:0.05"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,min_margin,argmin_sample_index,p_min,p_max"
        ts = [float(row.split(",")[0]) for row in lines[1:]]
        # reversed/unsorted grids canonicalise to increasing order
        assert ts == sorted(ts)
        assert ts[0] == 0.05

    def test_zero_row(self, tmp_path, capsys):
        code = main(["sweep", "--config", write(tmp_path, "b.json", CASE_B_DOC),
                     "--samples", "6", "--t-grid", "0.0:0.1:0.1"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert code == 0
        first = rows[0].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1])) < 1e-12
        assert float(first[3]) == pytest.approx(1.0, abs=1e-12)

    def test_refusal_goes_to_out(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["sweep", "--config", write(tmp_path, "nr.json", NOT_REAL_DOC),
                     "--samples", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["case"] == "not_real_type"


NUMBER_TEXT = st.sampled_from(
    ["0", "0.05", "0.2", "0.5", "-0.1", "1e-300", "nan", "inf", "-inf", "x", ""])
SEED_TEXT = st.one_of(st.integers(-2, 9).map(str), NUMBER_TEXT)
T_GRID_TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(NUMBER_TEXT, min_size=3, max_size=3).map(":".join))
TOL_TIER_TEXT = st.builds(
    "{}={}".format,
    st.sampled_from(sorted(DEFAULT_TOLERANCES) + ["nonsense", ""]), NUMBER_TEXT)
FUZZ_DOCS = {"b": CASE_B_DOC, "c": CASE_C_DOC, "not_real": NOT_REAL_DOC,
             "bad_det": BAD_DET_DOC}


@st.composite
def fuzz_argv(draw):
    """A command and flags of its own, with drawn values."""
    command = draw(st.sampled_from(["classify", "sweep", "construct",
                                    "certify"]))
    own = COMMAND_FLAGS[command]
    flags = []
    if "--samples" in own:
        # always small, so that every flow stays cheap
        flags.append(f"--samples={draw(st.integers(-2, 2))}")
    for flag, text in (("--t-grid", T_GRID_TEXT), ("--t", NUMBER_TEXT),
                       ("--tol-tier", TOL_TIER_TEXT), ("--seed", SEED_TEXT)):
        if flag in own and draw(st.booleans()):
            flags.append(f"{flag}={draw(text)}")
    return command, flags


@pytest.fixture(scope="module")
def fuzz_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {name: write(root, f"{name}.json", doc)
            for name, doc in FUZZ_DOCS.items()}


# JSON documents: numbers at and beyond the float limits, strings, nesting
# and missing keys, alone or spliced into a valid document
JSON_NUMBER = st.one_of(
    st.sampled_from([0, 1, -1, 3, 0.5, 0.6, -0.5, 1e-160, 1e-300, 1e308,
                     -1e308, math.nan, math.inf, -math.inf, 10**400]),
    st.floats())
JSON_LEAF = st.one_of(JSON_NUMBER, st.none(), st.booleans(),
                      st.sampled_from(["nan", "inf", "1e400", "0.5", "x", ""]))
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["re", "im", "p", "x"]), inner,
                        max_size=3)),
    max_leaves=8)
JSON_COMPLEX = st.one_of(
    JSON_NUMBER,
    st.lists(JSON_NUMBER, min_size=2, max_size=2),
    st.fixed_dictionaries({}, optional={"re": JSON_NUMBER, "im": JSON_NUMBER}),
    JSON_VALUE)
GROUP_FIELDS = {
    "alpha": JSON_COMPLEX,
    "beta": JSON_COMPLEX,
    "lambda": JSON_COMPLEX,
    "m": st.one_of(st.integers(-1, 5), st.just(2**60), JSON_VALUE),
    "arg_alpha": JSON_VALUE,
    "arg_beta": JSON_VALUE,
    "H": st.one_of(
        st.lists(st.lists(JSON_COMPLEX, min_size=4, max_size=4), max_size=2),
        JSON_VALUE),
}
GENERATOR_FIELDS = {"p": JSON_NUMBER, "q": JSON_NUMBER, "r": JSON_COMPLEX,
                    "s": JSON_COMPLEX, "u": JSON_COMPLEX}
INOUE_GENERATOR = st.one_of(
    st.fixed_dictionaries({}, optional=GENERATOR_FIELDS), JSON_VALUE)
INOUE_FIELDS = {
    "family": st.one_of(st.sampled_from(["SM", "S+", "S-", "X"]), JSON_VALUE),
    "generators": st.one_of(st.lists(INOUE_GENERATOR, max_size=3), JSON_VALUE),
}


def spliced(base, fields):
    """base with one field replaced by a drawn value, or removed."""
    return st.builds(
        lambda key, value, drop: ({k: v for k, v in base.items() if k != key}
                                  if drop else {**base, key: value}),
        st.sampled_from(sorted(fields)), st.one_of(*fields.values()),
        st.booleans())


GROUP_DOCS = st.one_of(
    st.fixed_dictionaries({}, optional=GROUP_FIELDS),
    # alpha = beta: case (a) at any modulus, down to a subnormal multiplier
    JSON_NUMBER.map(lambda v: {"alpha": v, "beta": v}),
    *(spliced(doc, GROUP_FIELDS) for doc in (CASE_B_DOC, CASE_C_DOC)))
INOUE_DOCS = st.one_of(
    st.fixed_dictionaries({}, optional=INOUE_FIELDS),
    spliced(INOUE_SM_DOC, INOUE_FIELDS),
    # one S+ generator that passes validation until a field is replaced
    spliced({"p": 2.0, "q": 0.5, "r": 1.0}, GENERATOR_FIELDS).map(
        lambda g: {"family": "S+", "generators": [g]}))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_docs")


class TestArgvFuzz:
    @given(argv=fuzz_argv(), doc=st.sampled_from(sorted(FUZZ_DOCS)))
    @settings(max_examples=60, deadline=None)
    def test_every_argv_ends_in_a_documented_exit(self, fuzz_configs, argv,
                                                  doc):
        command, flags = argv
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, "--config", fuzz_configs[doc], *flags])
        assert code in range(6)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()
        # every drawn flag is the command's own: argparse refuses none
        assert "unrecognized arguments" not in err.getvalue()

    @given(argv_doc=st.one_of(
        st.tuples(st.just(["classify"]), GROUP_DOCS),
        # group documents that classify also reach the flow and assembly
        st.tuples(st.just(["construct", "--t", "0.2", "--samples", "2"]),
                  GROUP_DOCS),
        st.tuples(st.just(["inoue", "--samples", "3"]), INOUE_DOCS)))
    @settings(max_examples=300, deadline=None)
    def test_every_document_ends_in_a_documented_exit(self, fuzz_dir,
                                                      argv_doc):
        argv, doc = argv_doc
        path = fuzz_dir / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        # a warning would print lines of its own on stderr
        with redirect_stdout(io.StringIO()), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--config", str(path)])
        assert code in range(6)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()
        assert not [str(w.message) for w in caught]


class TestOtherCommands:
    def test_oracle(self, capsys):
        code = main(["oracle"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["pass"] is True

    def test_inoue(self, tmp_path, capsys):
        code = main(["inoue", "--config",
                     write(tmp_path, "sm.json", INOUE_SM_DOC), "--samples", "50"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["excluded"] is True

    @pytest.mark.parametrize("doc, argv", [
        (INOUE_SM_DOC, ["--samples", "0"]),
        (INOUE_SM_DOC, ["--samples", "-2"]),
        (INOUE_SM_DOC, ["--seed", "-1"]),
        # alpha |beta|^2 = 4 * 0.81 breaks the S_M constraint
        ({"family": "SM", "generators": [
            {"p": 4.0, "r": {"re": 0.0, "im": 0.9}},
            INOUE_SM_DOC["generators"][1]]}, []),
    ])
    def test_inoue_bad_input_is_parse_error(self, tmp_path, capsys, doc, argv):
        code = main(["inoue", "--config", write(tmp_path, "sm.json", doc),
                     *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("parse error:") and err.count("\n") == 1

    def test_oracle_negative_seed_is_parse_error(self, capsys):
        code = main(["oracle", "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("parse error:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0
        assert "--samples" in capsys.readouterr().out

    def test_construct(self, tmp_path, capsys):
        code = main(["construct", "--config",
                     write(tmp_path, "c.json", CASE_C_DOC),
                     "--samples", "6", "--t", "0.2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["margin_min"] > 0
        assert abs(payload["first_sample"]["p"]) < 1


class TestDeterminism:
    def test_reports_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg = write(tmp_path, "b.json", CASE_B_DOC)
        outputs = []
        for run, threads in ((0, "1"), (1, "1"), (2, "4")):
            out = tmp_path / f"report{run}.json"
            old = os.environ.get("BIHERM_THREADS")
            os.environ["BIHERM_THREADS"] = threads
            try:
                code = main(["certify", "--config", cfg, "--samples", "10",
                             "--seed", "11", "--out", str(out)])
            finally:
                if old is None:
                    os.environ.pop("BIHERM_THREADS", None)
                else:
                    os.environ["BIHERM_THREADS"] = old
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
