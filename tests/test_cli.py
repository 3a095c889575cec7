"""Command-line interface: payload schemas, exit codes, and byte determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import channellab
from channellab import cli, dilation, spectral
from channellab.channel import DensityMatrix, Superoperator
from channellab.cli import main
from channellab.jsonutil import canonical_json, complex_to_json


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def emit_to_file(capsys, tmp_path, argv, filename):
    rc, out, err = run_cli(capsys, ["zoo-emit", *argv])
    assert rc == 0, err
    path = tmp_path / filename
    path.write_text(out)
    return str(path)


SUBNORMALIZED_DOC = {
    "dim": 2,
    "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
}

# Finite entries whose Gram and Choi matrices overflow to inf / nan.
OVERFLOWING_DOC = {
    "dim": 2,
    "kraus": [[[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]],
}

HUGE_UNITARY = [[[1e308, 0.0]] * 4] * 4

OVERFLOWING_STINESPRING_DOC = {
    "stinespring": {"dimA": 2, "dimB": 2, "unitary": HUGE_UNITARY, "bath_state": [[1.0, 0.0], [0.0, 0.0]]},
}

# Malformed, overflowing and dimension-mismatched channel documents.
MALFORMED_DOCS = {
    "top-level-list": [{"dim": 1, "kraus": [[[[1.0, 0.0]]]]}],
    "missing-dim": {"kraus": [[[[1.0, 0.0]]]]},
    "shape-vs-dim": {"dim": 3, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
    "non-square": {"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]]},
    "string-entries": {"dim": 1, "kraus": [[[["1", "0"]]]]},
    "nan-literal": {"dim": 1, "kraus": [[[[float("nan"), 0.0]]]]},
    "huge-integer-entry": {"dim": 1, "kraus": [[[[10**400, 0]]]]},
    "overflowing-kraus": OVERFLOWING_DOC,
    "overflowing-stinespring": OVERFLOWING_STINESPRING_DOC,
    "dim-vs-dimA": {
        "dim": 3,
        "stinespring": {
            "dimA": 2,
            "dimB": 1,
            "unitary": complex_to_json(np.eye(2, dtype=complex)),
            "bath_state": [[1.0, 0.0]],
        },
    },
}


class TestValidate:
    def test_valid_channel_envelope(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.25"], "depol.json")
        rc, out, err = run_cli(capsys, ["validate", path])
        assert rc == 0
        envelope = json.loads(out)
        assert set(envelope) == {"tool_version", "input_digest", "command", "report", "warnings"}
        assert envelope["tool_version"] == channellab.__version__
        assert envelope["command"] == "validate"
        assert len(envelope["input_digest"]) == 64
        report = envelope["report"]
        assert set(report) == {
            "dim",
            "label",
            "completeness_defect",
            "min_choi_eigenvalue",
            "checks",
            "messages",
            "passed",
        }
        assert report["passed"]
        assert report["completeness_defect"] <= 1e-12
        assert envelope["warnings"] == []

    def test_subnormalized_channel_fails_with_defect(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(SUBNORMALIZED_DOC))
        rc, out, err = run_cli(capsys, ["validate", str(path)])
        assert rc == 2
        report = json.loads(out)["report"]
        assert not report["passed"]
        assert report["completeness_defect"] == pytest.approx(0.75)
        assert json.loads(out)["warnings"]  # failure messages surface as warnings

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_overflowing_entries_fail_validation_cleanly(self, capsys, tmp_path, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(OVERFLOWING_DOC))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc, out, err = run_cli(capsys, [command, str(path)])
        assert rc == 2
        if command == "validate":
            report = json.loads(out)["report"]
            assert not report["checks"]["completeness"] and not report["checks"]["choi_psd"]
            assert report["completeness_defect"] == "inf"
            assert report["min_choi_eigenvalue"] == "-inf"
            assert err == ""
        else:
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith("invalid input: channel failed validation:")

    @pytest.mark.parametrize("command", ["validate", "classify", "dilation"])
    def test_overflowing_dilation_unitary_fails_cleanly(self, capsys, tmp_path, command):
        doc = OVERFLOWING_STINESPRING_DOC
        if command == "dilation":
            rc, out, err = run_cli(capsys, ["zoo-emit", "partial-swap-dilation", "--instance"])
            doc = {**json.loads(out), "unitary": HUGE_UNITARY}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc, out, err = run_cli(capsys, [command, str(path)])
        assert rc == 2
        assert out == ""
        assert err == "invalid input: dilation matrix is not unitary: defect inf\n"


class TestInputErrors:
    def test_missing_file(self, capsys):
        rc, out, err = run_cli(capsys, ["validate", "/nonexistent/channel.json"])
        assert rc == 1
        assert "cannot read" in err

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"dim": 2,')
        rc, out, err = run_cli(capsys, ["validate", str(path)])
        assert rc == 1
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
    @pytest.mark.parametrize("command", ["validate", "classify", "orbit", "cesaro"])
    def test_malformed_documents_exit_cleanly(self, capsys, tmp_path, command, name):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(MALFORMED_DOCS[name]))
        extra = ["--state", "basis:0", "--n", "3"] if command in ("orbit", "cesaro") else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc, out, err = run_cli(capsys, [command, str(path), *extra])
        assert rc == 2
        assert "Warning" not in err and "Traceback" not in err
        if err == "":  # validate reports a failed check in its envelope
            assert command == "validate" and not json.loads(out)["report"]["passed"]
        else:
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_missing_command(self, capsys):
        assert run_cli(capsys, [])[0] == 1

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0


# JSON true and false are Python ints; as sizes they are malformed input, not a crash in ``np.eye``.
ONE_LEVEL_DILATION = {"dimA": 1, "dimB": 1, "unitary": [[[1.0, 0.0]]], "bath_state": [[1.0, 0.0]]}
BOOLEAN_DIM_DOCS = {
    "kraus-dim-true": ({"dim": True, "kraus": [[[[1.0, 0.0]]]]}, 'Kraus-form document needs an integer "dim"'),
    "kraus-dim-false": ({"dim": False, "kraus": [[[[1.0, 0.0]]]]}, 'Kraus-form document needs an integer "dim"'),
    "stinespring-dims-true": (
        {"stinespring": {**ONE_LEVEL_DILATION, "dimA": True, "dimB": True}}, "dimA and dimB must be integers"
    ),
    "stinespring-dim-true": ({"dim": True, "stinespring": ONE_LEVEL_DILATION}, '"dim" disagrees with stinespring dimA'),
}


class TestBooleanDimensions:
    @pytest.mark.parametrize("name", sorted(BOOLEAN_DIM_DOCS))
    @pytest.mark.parametrize("command", ["validate", "classify", "orbit"])
    def test_boolean_dimension_exits_two(self, capsys, tmp_path, command, name):
        doc, message = BOOLEAN_DIM_DOCS[name]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        extra = ["--state", "basis:0", "--n", "3"] if command == "orbit" else []
        rc, out, err = run_cli(capsys, [command, str(path), *extra])
        assert (rc, out, err) == (2, "", f"invalid input: {message}\n")

    def test_boolean_dilation_dimensions_exit_two(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, ["zoo-emit", "partial-swap-dilation", "--instance"])
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**json.loads(out), "dimA": True, "dimB": True}))
        rc, out, err = run_cli(capsys, ["dilation", str(path)])
        assert (rc, out, err) == (2, "", "invalid input: dimA and dimB must be integers\n")


class TestClassify:
    def test_depolarizing_verdict(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.25"], "depol.json")
        rc, out, err = run_cli(capsys, ["classify", path])
        assert rc == 0
        report = json.loads(out)["report"]
        assert report["verdict"] == "mixing"
        assert report["kappa"] == pytest.approx(0.75)
        assert len(report["spectrum"]) == 4
        assert report["eigenvalue_one_multiplicity"] == 1

    def test_rejects_invalid_channel(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(SUBNORMALIZED_DOC))
        rc, out, err = run_cli(capsys, ["classify", str(path)])
        assert rc == 2
        assert "failed validation" in err

    def test_failed_schur_reordering_exits_3(self, capsys, tmp_path, monkeypatch):
        import scipy.linalg.lapack

        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.25"], "depol.json")
        monkeypatch.setattr(scipy.linalg.lapack, "dtrsen", lambda select, t, z, job: (t, z, None, None, 0, 0.0, 0.0, 1))
        rc, out, err = run_cli(capsys, ["classify", path])
        assert rc == 3
        assert out == ""
        assert "reordering the Schur form failed" in err

    def test_oracle_cross_check_mixing(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.25"], "depol.json")
        rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", "100"])
        assert rc == 0
        report = json.loads(out)["report"]
        assert report["oracle"]["verdict"] == "mixing"
        assert report["oracle"]["n_max"] == 100
        assert report["oracle_agrees"]

    @pytest.mark.parametrize(
        "option",
        [["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol", "0"], ["--nmax", "50"]],
        ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "nmax-below-100"],
    )
    def test_rejects_bad_oracle_arguments_before_loading(self, capsys, tmp_path, monkeypatch, option):
        path = emit_to_file(capsys, tmp_path, ["example-ergodic"], "flip.json")
        loads = count_calls(monkeypatch, cli, "_load_channel")
        rc, out, err = run_cli(capsys, ["classify", path, "--oracle", *option])
        assert (rc, out, loads) == (1, "", [])
        assert err.startswith(f"error: {option[0]} must be") and err.count("\n") == 1

    def test_oracle_cross_check_non_mixing(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-ergodic"], "erg.json")
        rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", "100"])
        assert rc == 0
        report = json.loads(out)["report"]
        assert report["verdict"] == "ergodic_not_mixing"
        assert report["oracle"]["verdict"] == "not_mixing_within_horizon"
        assert report["oracle_agrees"]
        assert json.loads(out)["warnings"] == []


    @pytest.mark.parametrize("nmax", [10**17, 10**18])
    def test_oracle_agrees_at_long_horizons(self, capsys, tmp_path, nmax):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.5"], "depol.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", str(nmax)])
        assert (rc, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["verdict"] == report["oracle"]["verdict"] == "mixing"
        assert report["oracle_agrees"]

    def test_oracle_overflow_is_a_numerical_failure(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["unitary", "--param", "theta=1"], "rot.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", str(10**30)])
        assert (rc, out) == (3, "")
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

class TestOrbit:
    def test_cascade_distance_column(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-mixing"], "mix.json")
        rc, out, err = run_cli(capsys, ["orbit", path, "--state", "basis:2", "--n", "5"])
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [rec["n"] for rec in lines] == [0, 1, 2, 3, 4, 5]
        distances = [rec["distance_to_fixed_point"] for rec in lines]
        assert distances == pytest.approx([2.0, 2.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_zero_steps_single_line(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-mixing"], "mix.json")
        rc, out, err = run_cli(capsys, ["orbit", path, "--state", "mixed", "--n", "0"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["n"] == 0

    def test_functional_columns(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.5"], "depol.json")
        rc, out, err = run_cli(
            capsys,
            ["orbit", path, "--state", "basis:0", "--n", "3", "--functionals", "trivial,von_neumann"],
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        trivials = [rec["functionals"]["trivial"] for rec in lines]
        entropies = [rec["functionals"]["von_neumann"] for rec in lines]
        assert trivials == pytest.approx([1.0, 0.5, 0.25, 0.125], abs=1e-12)
        assert entropies[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_degenerate_channel_distance_is_null(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["dephasing", "--param", "p=0.3"], "deph.json")
        rc, out, err = run_cli(capsys, ["orbit", path, "--state", "basis:0", "--n", "2"])
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(rec["distance_to_fixed_point"] is None for rec in lines)

    def test_fixed_point_functional_on_degenerate_channel(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["dephasing", "--param", "p=0.3"], "deph.json")
        rc, out, err = run_cli(
            capsys, ["orbit", path, "--state", "basis:0", "--n", "2", "--functionals", "trivial"]
        )
        assert rc == 2
        assert "hypothesis violation" in err

    def test_unknown_functional(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-mixing"], "mix.json")
        rc, out, err = run_cli(
            capsys, ["orbit", path, "--state", "basis:0", "--n", "2", "--functionals", "purity"]
        )
        assert rc == 1
        assert "unknown functional" in err

    def test_accepts_kraus_set_within_completeness_tolerance(self, capsys, tmp_path):
        # completeness defect 5e-9 passes validation (<= 1e-8), so its orbit must run too
        c = channellab.build_named("amplitude-damping", gamma=0.3)
        ops = [np.array(k) for k in c.kraus_ops]
        ops[0][0, 0] *= np.sqrt(1.0 + 5e-9)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(channellab.channel_to_document(channellab.KrausChannel(2, tuple(ops)))))
        assert run_cli(capsys, ["validate", str(path)])[0] == 0
        rc, out, err = run_cli(capsys, ["orbit", str(path), "--state", "basis:0", "--n", "10"])
        assert rc == 0, err
        assert len(out.splitlines()) == 11

    def test_bad_state_specs(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-mixing"], "mix.json")
        assert run_cli(capsys, ["orbit", path, "--state", "basis:9", "--n", "1"])[0] == 1
        assert run_cli(capsys, ["orbit", path, "--state", "basis:x", "--n", "1"])[0] == 1
        assert run_cli(capsys, ["orbit", path, "--state", "ground", "--n", "1"])[0] == 1

    def test_inline_state_matrix(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-ergodic"], "erg.json")
        inline = json.dumps(complex_to_json(np.diag([1.0, 0.0]).astype(complex)))
        rc, out, err = run_cli(capsys, ["orbit", path, "--state", inline, "--n", "1"])
        assert rc == 0
        first = json.loads(out.strip().splitlines()[0])
        assert first["distance_to_fixed_point"] == pytest.approx(1.0)

    def test_inline_state_with_integer_beyond_double_range(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-ergodic"], "erg.json")
        inline = f"[[[{10**400}, 0], [0, 0]], [[0, 0], [0, 0]]]"
        rc, out, err = run_cli(capsys, ["orbit", path, "--state", inline, "--n", "1"])
        assert rc == 2 and out == ""
        assert err == "invalid input: state: entries must be finite\n"


    def test_length_beyond_memory_exits_cleanly(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-mixing"], "mix.json")
        rc, out, err = run_cli(capsys, ["orbit", path, "--state", "basis:0", "--n", "1000000000000000000"])
        assert rc == 2 and out == ""
        assert err == "invalid input: an orbit of 1000000000000000000 steps at dimension 3 does not fit in memory\n"

    @pytest.mark.parametrize(
        "emit, state, functionals, marker",
        [
            (["depolarizing", "--param", "p=0.25"], "basis:0", "von_neumann,trivial", '"von_neumann":0}'),
            (["dephasing", "--param", "p=0.3"], "basis:0", "von_neumann", '"distance_to_fixed_point":null'),
            (["amplitude-damping", "--param", "gamma=0.3"], "basis:1", "relative_entropy", '"relative_entropy":"inf"'),
        ],
        ids=["pure-state-von-neumann", "not-ergodic", "relative-entropy-inf"],
    )
    def test_lines_equal_per_record_canonical_json(self, capsys, tmp_path, emit, state, functionals, marker):
        path = emit_to_file(capsys, tmp_path, emit, "channel.json")
        rc, out, err = run_cli(capsys, ["orbit", path, "--state", state, "--n", "60", "--functionals", functionals])
        assert rc == 0, err
        # reference: one canonical_json record per step, values from the one-state functionals
        report = channellab.analyze(channellab.channel_from_document(json.loads(Path(path).read_text())))
        fixed = report.fixed_points[0]
        single = {
            "trivial": lambda rho: channellab.trivial_lyapunov(rho, fixed),
            "relative_entropy": lambda rho: channellab.relative_entropy(rho, fixed),
            "von_neumann": channellab.von_neumann_entropy,
        }
        unique = report.verdict != "not_ergodic"
        want = []
        for k, m in enumerate(channellab.orbit(report, cli._parse_state(state, report.dim), 60).states):
            rho = DensityMatrix(m)
            record = {
                "n": k,
                "distance_to_fixed_point": single["trivial"](rho) if unique else None,
                "functionals": {name: single[name](rho) for name in functionals.split(",")},
            }
            want.append(canonical_json(record) + "\n")
        assert out == "".join(want)
        assert marker in out.splitlines()[0]
        assert ":-0," not in out and ":-0}" not in out


class TestCesaro:
    def test_alternating_orbit_rate_table(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-ergodic"], "erg.json")
        rc, out, err = run_cli(capsys, ["cesaro", path, "--state", "basis:0", "--n", "10000"])
        assert rc == 0
        report = json.loads(out)["report"]
        table = {row["n"]: row for row in report["rate_table"]}
        assert sorted(table) == [1, 10, 100, 1000, 10000]
        assert table[1]["n_scaled_distance"] == pytest.approx(0.0, abs=1e-12)
        for n in (10, 100, 1000, 10000):
            assert table[n]["n_scaled_distance"] == pytest.approx(1.0, abs=1e-9)
        assert report["distance_to_fixed_point"] == pytest.approx(1.0 / 10001.0, abs=1e-12)

    def test_degenerate_channel_warns_and_nulls(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["dephasing", "--param", "p=0.3"], "deph.json")
        rc, out, err = run_cli(capsys, ["cesaro", path, "--state", "basis:0", "--n", "10"])
        assert rc == 0
        envelope = json.loads(out)
        assert any("no unique fixed point" in w for w in envelope["warnings"])
        assert envelope["report"]["distance_to_fixed_point"] is None
        assert all(row["distance"] is None for row in envelope["report"]["rate_table"])

    def test_rejects_zero_terms(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["example-ergodic"], "erg.json")
        rc, out, err = run_cli(capsys, ["cesaro", path, "--state", "basis:0", "--n", "0"])
        assert rc == 1


class TestDilation:
    def test_partial_swap_instance(self, capsys, tmp_path):
        path = emit_to_file(
            capsys, tmp_path, ["partial-swap-dilation", "--instance"], "pswap.json"
        )
        rc, out, err = run_cli(capsys, ["dilation", path])
        assert rc == 0
        report = json.loads(out)["report"]
        assert report["validation"]["passed"]
        assert report["factorizing"]["count"] == 1
        assert report["factorizing"]["verdict"] == "mixing"
        assert report["cross_validation"]["agree"]
        assert report["cross_validation"]["fixed_point_distance"] <= 1e-8

    def test_cz_instance_counts_two(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["cz-dilation", "--instance"], "cz.json")
        rc, out, err = run_cli(capsys, ["dilation", path])
        assert rc == 0
        report = json.loads(out)["report"]
        assert report["factorizing"]["count"] == 2
        assert report["factorizing"]["verdict"] == "not_ergodic"
        assert report["cross_validation"]["spectral_verdict"] == "not_ergodic"
        assert report["cross_validation"]["agree"]

    def test_non_commuting_unitary_exits_two(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, ["zoo-emit", "cz-dilation", "--instance"])
        assert rc == 0
        doc = json.loads(out)
        doc["unitary"] = complex_to_json(np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(capsys, ["dilation", str(path)])
        assert rc == 2
        assert "commutator" in err


def count_calls(monkeypatch, owner, name):
    """Count calls to ``owner.name``, including through imported bindings in channellab."""
    func = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "channellab" and getattr(module, name, None) is func:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestOneBuildPerRequest:
    """A request builds the superoperator and the spectral report once and passes them on."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--oracle", "--nmax", "100"],
            ["orbit", "--state", "basis:1", "--n", "5", "--functionals", "trivial,relative_entropy"],
            ["cesaro", "--state", "basis:1", "--n", "100"],
        ],
        ids=["classify-oracle", "orbit", "cesaro"],
    )
    def test_channel_commands(self, capsys, tmp_path, monkeypatch, argv):
        path = emit_to_file(capsys, tmp_path, ["amplitude-damping", "--param", "gamma=0.3"], "damp.json")
        builds = count_calls(monkeypatch, Superoperator, "__post_init__")
        analyses = count_calls(monkeypatch, spectral, "analyze")
        rc, out, err = run_cli(capsys, [argv[0], path, *argv[1:]])
        assert rc == 0, err
        assert (len(builds), len(analyses)) == (1, 1)

    def test_orbit_validates_a_fixed_number_of_states(self, capsys, tmp_path, monkeypatch):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.25"], "depol.json")
        built = count_calls(monkeypatch, DensityMatrix, "__post_init__")
        counts = []
        for n in ("10", "2000"):
            start = len(built)
            rc, out, err = run_cli(
                capsys,
                ["orbit", path, "--state", "basis:1", "--n", n,
                 "--functionals", "trivial,relative_entropy,von_neumann"],
            )
            assert rc == 0, err
            counts.append(len(built) - start)
        assert counts[0] == counts[1]

    def test_orbit_diagonalizes_the_fixed_point_a_fixed_number_of_times(self, capsys, tmp_path, monkeypatch):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.25"], "depol.json")
        eighs = count_calls(monkeypatch, np.linalg, "eigh")
        counts = []
        for n in ("10", "2000"):
            start = len(eighs)
            rc, out, err = run_cli(
                capsys, ["orbit", path, "--state", "basis:1", "--n", n, "--functionals", "relative_entropy"]
            )
            assert rc == 0, err
            counts.append(len(eighs) - start)
        assert counts[0] == counts[1] >= 1

    def test_orbit_makes_a_fixed_number_of_eigensolves(self, capsys, tmp_path, monkeypatch):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.25"], "depol.json")
        svds = count_calls(monkeypatch, np.linalg, "svd")
        eigvalshs = count_calls(monkeypatch, np.linalg, "eigvalsh")
        counts = []
        for n in ("10", "2000"):
            start = (len(svds), len(eigvalshs))
            rc, out, err = run_cli(
                capsys,
                ["orbit", path, "--state", "basis:1", "--n", n,
                 "--functionals", "trivial,relative_entropy,von_neumann"],
            )
            assert rc == 0, err
            counts.append((len(svds) - start[0], len(eigvalshs) - start[1]))
        assert counts[0] == counts[1]

    def test_dilation_searches_factorizing_eigenstates_once(self, capsys, tmp_path, monkeypatch):
        path = emit_to_file(capsys, tmp_path, ["partial-swap-dilation", "--instance"], "pswap.json")
        builds = count_calls(monkeypatch, Superoperator, "__post_init__")
        analyses = count_calls(monkeypatch, spectral, "analyze")
        searches = count_calls(monkeypatch, dilation, "find_factorizing_eigenstates")
        validations = count_calls(monkeypatch, dilation, "validate_conserved")
        rc, out, err = run_cli(capsys, ["dilation", path])
        assert rc == 0, err
        assert (len(builds), len(analyses), len(searches)) == (1, 1, 1)
        assert len(validations) == 1


class TestZooCommands:
    def test_zoo_list_catalog(self, capsys):
        rc, out, err = run_cli(capsys, ["zoo-list"])
        assert rc == 0
        channels = json.loads(out)["report"]["channels"]
        assert len(channels) == 17
        for entry in channels:
            assert set(entry) == {
                "name",
                "label",
                "dim",
                "parameters",
                "expected_verdict",
                "provenance",
                "description",
            }

    def test_emit_classify_pipeline_matches_expectations(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, ["zoo-list"])
        channels = json.loads(out)["report"]["channels"]
        for entry in channels:
            if entry["expected_verdict"] is None:
                continue
            argv = [entry["name"]]
            for key, value in entry["parameters"].items():
                argv += ["--param", f"{key}={value!r}"]
            path = emit_to_file(capsys, tmp_path, argv, "chan.json")
            rc, out, err = run_cli(capsys, ["classify", path])
            assert rc == 0, (entry["label"], err)
            assert json.loads(out)["report"]["verdict"] == entry["expected_verdict"], entry["label"]

    def test_emit_stinespring_document(self, capsys):
        rc, out, err = run_cli(
            capsys, ["zoo-emit", "partial-swap-dilation", "--param", "theta=0.7853981633974483"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert "stinespring" in doc
        assert doc["stinespring"]["dimA"] == 2

    def test_emit_unknown_name(self, capsys):
        rc, out, err = run_cli(capsys, ["zoo-emit", "teleporter"])
        assert rc == 1
        assert "unknown channel name" in err

    def test_emit_random_needs_dim(self, capsys):
        rc, out, err = run_cli(capsys, ["zoo-emit", "random", "--param", "seed=3"])
        assert rc == 1
        assert "--dim" in err

    def test_emit_bad_param_syntax(self, capsys):
        rc, out, err = run_cli(capsys, ["zoo-emit", "depolarizing", "--param", "p:0.5"])
        assert rc == 1
        assert "key=value" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["depolarizing", "--param", "p=0.25", "--param", "q=1"],
            ["partial-swap-dilation", "--param", "theta=1", "--param", "bogus=3"],
            ["partial-swap-dilation", "--param", "theta=1", "--param", "bogus=3", "--instance"],
        ],
        ids=["kraus", "stinespring", "instance"],
    )
    def test_emit_rejects_unknown_parameter(self, capsys, argv):
        rc, out, err = run_cli(capsys, ["zoo-emit", *argv])
        assert (rc, out) == (1, "")
        assert "no parameter" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dephasing", "--param", "p=0.3", "--dim", "5"],
            ["example-mixing", "--dim", "2"],
            ["partial-swap-dilation", "--dim", "3"],
            ["cz-dilation", "--dim", "3", "--instance"],
        ],
        ids=["dephasing", "example-mixing", "stinespring", "instance"],
    )
    def test_emit_rejects_dimension_the_family_lacks(self, capsys, argv):
        rc, out, err = run_cli(capsys, ["zoo-emit", *argv])
        assert (rc, out) == (1, "")
        assert "dimension" in err

    def test_emit_random_dim_selects_the_matching_catalog_entry(self, capsys):
        rc, out, err = run_cli(capsys, ["zoo-emit", "random", "--dim", "3"])
        assert rc == 0, err
        doc = json.loads(out)
        assert (doc["dim"], doc["label"]) == (3, "random(kraus_rank=3,seed=13)")
        spelled = run_cli(capsys, ["zoo-emit", "random", "--dim", "3", "--param", "kraus_rank=3", "--param", "seed=13"])
        assert spelled == (0, out, "")

    def test_emit_given_dim_is_not_replaced_by_a_catalog_entry(self, capsys):
        rc, out, err = run_cli(capsys, ["zoo-emit", "random", "--dim", "5", "--param", "kraus_rank=3", "--param", "seed=13"])
        assert rc == 0, err
        assert json.loads(out)["dim"] == 5

    def test_emit_given_value_is_used_as_given(self, capsys):
        rc, out, err = run_cli(capsys, ["zoo-emit", "depolarizing", "--param", "p=0.25000000001"])
        assert rc == 0, err
        assert out != run_cli(capsys, ["zoo-emit", "depolarizing", "--param", "p=0.25"])[1]
        expected = channellab.channel_to_document(channellab.build_named("depolarizing", p=0.25000000001))
        assert out == canonical_json(expected) + "\n"

    @pytest.mark.parametrize("name", sorted({spec.name for spec in channellab.catalog()}))
    def test_emit_without_parameters_is_the_first_catalog_entry(self, capsys, name):
        first = next(spec for spec in channellab.catalog() if spec.name == name)
        spelled = [name]
        for key, value in first.parameters.items():
            spelled += ["--param", f"{key}={value!r}"]
        bare = run_cli(capsys, ["zoo-emit", name])
        assert bare[0] == 0, bare[2]
        assert bare == run_cli(capsys, ["zoo-emit", *spelled])


class TestDeterminism:
    def test_classify_output_is_byte_stable(self, capsys, tmp_path):
        path = emit_to_file(
            capsys, tmp_path, ["random", "--dim", "3", "--param", "kraus_rank=3", "--param", "seed=13"], "rand.json"
        )
        first = run_cli(capsys, ["classify", path, "--oracle", "--nmax", "150"])
        second = run_cli(capsys, ["classify", path, "--oracle", "--nmax", "150"])
        assert first == second
        assert first[0] == 0

    def test_orbit_and_cesaro_do_not_depend_on_blas_threads(self, capsys, tmp_path):
        path = emit_to_file(
            capsys, tmp_path, ["random", "--dim", "8", "--param", "kraus_rank=3", "--param", "seed=13"], "rand.json"
        )
        script = (
            "import sys\n"
            "from channellab.cli import main\n"
            "path = sys.argv[1]\n"
            "functionals = 'trivial,relative_entropy,von_neumann'\n"
            "assert main(['orbit', path, '--state', 'basis:0', '--n', '500', '--functionals', functionals]) == 0\n"
            "assert main(['cesaro', path, '--state', 'basis:0', '--n', '10000']) == 0\n"
        )
        src = str(Path(channellab.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", script, path], env=env, capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 502

    def test_zoo_emit_is_byte_stable(self, capsys):
        a = run_cli(capsys, ["zoo-emit", "random", "--dim", "2", "--param", "kraus_rank=2", "--param", "seed=11"])
        b = run_cli(capsys, ["zoo-emit", "random", "--dim", "2", "--param", "kraus_rank=2", "--param", "seed=11"])
        assert a == b


class TestOnePerProcess:
    """One parser per process; the seed is resolved when each command runs."""

    def test_parser_is_built_once_across_calls(self, capsys, monkeypatch):
        run_cli(capsys, ["zoo-list"])  # the first call may build it
        real_init = argparse.ArgumentParser.__init__
        built = []

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["zoo-list"], ["zoo-emit", "depolarizing"], ["zoo-list"]):
            rc, out, err = run_cli(capsys, argv)
            assert rc == 0, err
        assert built == []

    def test_environment_seed_is_read_per_call(self, capsys, tmp_path, monkeypatch):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.5"], "depol.json")
        real_oracle = cli.orbit_oracle
        seeds = []

        def recorded(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(cli, "orbit_oracle", recorded)
        for value in ("11", "4"):
            monkeypatch.setenv("CHANNELLAB_SEED", value)
            rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", "100"])
            assert rc == 0, err
        rc, out, err = run_cli(capsys, ["--seed", "9", "classify", path, "--oracle", "--nmax", "100"])
        assert rc == 0, err
        monkeypatch.delenv("CHANNELLAB_SEED")
        rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", "100"])
        assert rc == 0, err
        assert seeds == [11, 4, 9, 0]

    @pytest.mark.parametrize("exists", [True, False], ids=["valid-file", "missing-file"])
    def test_negative_seed_is_a_usage_error_before_the_file_is_read(self, capsys, tmp_path, exists):
        path = emit_to_file(capsys, tmp_path, ["depolarizing"], "depol.json") if exists else str(tmp_path / "none")
        rc, out, err = run_cli(capsys, ["--seed", "-1", "classify", path, "--oracle"])
        assert (rc, out) == (1, "")
        assert "--seed must be a non-negative integer" in err

    @pytest.mark.parametrize("value", ["abc", "-3", "", "1.5"])
    def test_bad_environment_seed_is_a_usage_error(self, capsys, tmp_path, monkeypatch, value):
        path = emit_to_file(capsys, tmp_path, ["depolarizing"], "depol.json")
        monkeypatch.setenv("CHANNELLAB_SEED", value)
        rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", "100"])
        assert (rc, out) == (1, "")
        assert f"CHANNELLAB_SEED must be a non-negative integer, got {value!r}" in err

    def test_large_seed_is_valid(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["depolarizing"], "depol.json")
        rc, out, err = run_cli(capsys, ["--seed", "99999999999999999999999", "classify", path, "--oracle"])
        assert rc == 0, err


class TestCesaroHugeHorizon:
    @pytest.mark.parametrize(
        "emit", [["depolarizing", "--param", "p=0.5"], ["example-ergodic"]], ids=["depolarizing", "population-flip"]
    )
    def test_exits_zero_at_once(self, capsys, tmp_path, emit):
        path = emit_to_file(capsys, tmp_path, emit, "channel.json")
        src = str(Path(channellab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "channellab.cli", "cesaro", path, "--state", "basis:0", "--n", str(10**18)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )  # a sum linear in n would run out the timeout
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)["report"]
        assert report["n"] == 10**18
        assert report["distance_to_fixed_point"] < 1e-12  # the flip's one surplus term weighs 1/(n+1)


class TestOraclePurityBound:
    @pytest.mark.parametrize(
        "emit",
        [["unitary", "--param", "theta=1"], ["unitary", "--param", "theta=1.0472"], ["cz-dilation"]],
        ids=["unitary-1", "unitary-1.0472", "cz-dilation"],
    )
    def test_rotation_modes_past_the_bound_are_a_numerical_failure(self, capsys, tmp_path, emit):
        path = emit_to_file(capsys, tmp_path, emit, "rot.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", str(10**16)])
        assert (rc, out) == (3, "")
        assert err.startswith("numerical failure: ") and "purity" in err and err.count("\n") == 1

    def test_mixing_channel_passes_the_bound(self, capsys, tmp_path):
        path = emit_to_file(capsys, tmp_path, ["depolarizing", "--param", "p=0.5"], "depol.json")
        rc, out, err = run_cli(capsys, ["classify", path, "--oracle", "--nmax", str(10**16)])
        assert (rc, err) == (0, "")
        assert json.loads(out)["report"]["oracle"]["final_max_distance"] <= 2.0
