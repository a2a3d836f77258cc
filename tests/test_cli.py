import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gausspage
from gausspage import ensembles, rmt
from gausspage.cli import (
    _COMMANDS,
    DEFAULT_SEED,
    ENSEMBLES,
    EXIT_INVALID,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    MODES,
    main,
)
from gausspage.gstates import ConsistencyError


def run_cli(args, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    return code, path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# gaussian-page v1"
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


class TestPageCurve:
    def test_gaussian_exact_anchor(self, tmp_path):
        code, path = run_cli(["page-curve", "--N", "2", "--ensemble", "gaussian", "--mode", "exact"], tmp_path)
        assert code == 0
        header, rows = read_rows(path)
        value = float(rows[1][header.index("value")])
        assert abs(value - 0.5) <= 1e-12

    def test_page_exact_anchor(self, tmp_path):
        code, path = run_cli(["page-curve", "--N", "2", "--ensemble", "haar-pure", "--mode", "exact"], tmp_path)
        assert code == 0
        header, rows = read_rows(path)
        value = float(rows[1][header.index("value")])
        assert abs(value - 1.0 / 3.0) <= 1e-12

    def test_sweep_covers_half(self, tmp_path):
        code, path = run_cli(["page-curve", "--N", "8", "--mode", "exact"], tmp_path)
        _, rows = read_rows(path)
        assert [int(r[1]) for r in rows] == [0, 1, 2, 3, 4]

    def test_mc_mode(self, tmp_path):
        code, path = run_cli(
            ["page-curve", "--N", "4", "--NA", "2", "--mode", "mc", "--samples", "2000", "--seed", "9"],
            tmp_path,
        )
        assert code == 0
        header, rows = read_rows(path)
        value = float(rows[0][header.index("value")])
        assert 0.5 < value < 2 * math.log(2.0)

    def test_byte_stability(self, tmp_path):
        args = ["page-curve", "--N", "4", "--NA", "1", "--mode", "mc", "--samples", "500", "--seed", "3"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args, tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "mode, ensemble",
        [
            ("exact", "gaussian"),
            ("quadrature", "gaussian"),
            ("limit", "gaussian"),
            ("limit", "haar-pure"),
            ("limit", "number-conserving"),
            ("exact", "haar-pure"),
        ],
        ids=["exact", "quadrature", "limit", "limit-haar-pure", "limit-number-conserving", "exact-haar-pure"],
    )
    def test_complement_equals_smaller_side(self, mode, ensemble, tmp_path):
        # S_A = S_B for a pure state: N_A = 3 of N = 4 is the N_A = 1 row
        rows = {}
        for n_a in ("1", "3"):
            args = ["page-curve", "--N", "4", "--NA", n_a, "--mode", mode, "--ensemble", ensemble]
            code, path = run_cli(args, tmp_path, f"{n_a}.csv")
            assert code == 0
            header, (row,) = read_rows(path)
            rows[n_a] = row
        for column in ("value", "std"):
            i = header.index(column)
            assert rows["3"][i] == rows["1"][i]

    def test_json_format(self, tmp_path):
        code, path = run_cli(
            ["page-curve", "--N", "2", "--mode", "exact", "--format", "json"], tmp_path, "out.json"
        )
        payload = json.loads(path.read_text())
        assert payload["version"] == "gaussian-page v1"
        assert payload["columns"][0] == "N"
        assert abs(float(payload["rows"][1][3]) - 0.5) <= 1e-12


class TestDensity:
    def test_uniform_density(self, tmp_path):
        code, path = run_cli(["density", "--N", "2", "--NA", "1", "--points", "11"], tmp_path)
        assert code == 0
        header, rows = read_rows(path)
        assert len(rows) == 11
        assert all(abs(float(r[1]) - 1.0) <= 1e-12 for r in rows)


class TestVariance:
    def test_columns(self, tmp_path):
        code, path = run_cli(["variance", "--N", "8", "--NA", "4", "--samples", "0"], tmp_path)
        assert code == 0
        header, rows = read_rows(path)
        finite = float(rows[0][header.index("variance_finite")])
        limit = float(rows[0][header.index("variance_limit")])
        assert abs(limit - (0.75 - math.log(2.0)) / 2.0) <= 1e-12
        assert 0.02 < finite < 0.04

    def test_complement_equals_smaller_side(self, tmp_path):
        # Var S_A = Var S_B for a pure state: N_A = 3 of N = 4 is the N_A = 1 row
        rows = {}
        for n_a in ("1", "3"):
            code, path = run_cli(["variance", "--N", "4", "--NA", n_a, "--samples", "0"], tmp_path, f"{n_a}.csv")
            assert code == 0
            header, (row,) = read_rows(path)
            rows[n_a] = row
        for column in ("variance_finite", "variance_limit"):
            i = header.index(column)
            assert rows["3"][i] == rows["1"][i]
        assert rows["3"][header.index("N_A")] == "3"
        assert float(rows["3"][header.index("f")]) == 0.75

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_analytic_columns_only_for_the_gaussian_law(self, ensemble, tmp_path):
        # gaussian and hamiltonian share the Gaussian entropy law; the others have no such columns
        args = ["variance", "--N", "6", "--NA", "3", "--samples", "200", "--ensemble", ensemble]
        code, path = run_cli(args, tmp_path)
        assert code == 0
        header, (row,) = read_rows(path)
        finite = float(row[header.index("variance_finite")])
        limit = float(row[header.index("variance_limit")])
        assert 0.0 < float(row[header.index("variance_mc")]) < (3 * math.log(2.0)) ** 2
        if ensemble in ("gaussian", "hamiltonian"):
            assert finite == rmt.variance_finite_N(rmt.build_kernel_ctx(3, 0))
            assert abs(limit - (0.75 - math.log(2.0)) / 2.0) <= 1e-12
        else:
            assert math.isnan(finite) and math.isnan(limit)

    def test_whole_system_is_zero(self, tmp_path):
        code, path = run_cli(["variance", "--N", "4", "--NA", "4", "--samples", "0"], tmp_path)
        assert code == 0
        header, (row,) = read_rows(path)
        assert float(row[header.index("variance_finite")]) == 0.0
        assert float(row[header.index("variance_limit")]) == 0.0


class TestSampleAndDist:
    def test_sample_rows(self, tmp_path):
        code, path = run_cli(
            ["sample", "--N", "4", "--NA", "2", "--samples", "50", "--seed", "1"], tmp_path
        )
        assert code == 0
        _, rows = read_rows(path)
        assert len(rows) == 50

    def test_dist_counts(self, tmp_path):
        code, path = run_cli(
            ["dist", "--N", "4", "--NA", "2", "--samples", "400", "--bins", "8", "--seed", "1"], tmp_path
        )
        assert code == 0
        _, rows = read_rows(path)
        assert sum(int(r[2]) for r in rows) == 400

    def test_dist_counts_entropies_of_pure_modes(self, tmp_path):
        # eigenvalues of C_A within eps of 1 must not give entropies below 0,
        # which the histogram would drop
        args = ["dist", "--ensemble", "number-conserving", "--N", "12", "--NA", "2",
                "--samples", "2048", "--bins", "40", "--seed", "189609175"]
        code, path = run_cli(args, tmp_path)
        assert code == 0
        _, rows = read_rows(path)
        assert sum(int(r[2]) for r in rows) == 2048

    def test_dist_reports_dropped_samples(self, tmp_path, monkeypatch, capsys):
        def out_of_range(N, N_A, count, gen):
            return np.concatenate([[-0.5, -0.1, 10.0], np.full(count - 3, 0.5)])

        monkeypatch.setattr(ensembles, "gaussian_entropies", out_of_range)
        args = ["dist", "--N", "4", "--NA", "2", "--samples", "20", "--bins", "4"]
        code, path = run_cli(args, tmp_path)
        assert code == 0
        _, rows = read_rows(path)
        assert sum(int(r[2]) for r in rows) == 17
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "2 samples below and 1 above" in err

    def test_dist_in_range_is_silent(self, tmp_path, capsys):
        run_cli(["dist", "--N", "4", "--NA", "2", "--samples", "50", "--seed", "1"], tmp_path)
        assert capsys.readouterr().err == ""


class TestErrorPaths:
    def test_invalid_combination(self, capsys):
        code = main(["page-curve", "--N", "4", "--ensemble", "hamiltonian", "--mode", "exact"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_resource_guard(self, capsys):
        code = main(["page-curve", "--N", "20", "--ensemble", "haar-pure", "--mode", "mc", "--samples", "10"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n_a", ["6", "-1"])
    def test_number_conserving_rejects_bad_subsystem(self, n_a, capsys):
        code = main(["page-curve", "--mode", "mc", "--ensemble", "number-conserving",
                     "--N", "4", "--NA", n_a, "--samples", "10"])
        assert code == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "quadrature", "mc", "limit"])
    def test_rejects_empty_system(self, mode, capsys):
        assert main(["page-curve", "--N", "0", "--mode", mode, "--samples", "10"]) == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["sample", "--N", "4", "--NA", "2", "--samples", "-3"], ["density", "--N", "8", "--NA", "2", "--points", "-1"]],
    )
    def test_rejects_negative_counts(self, args, capsys):
        assert main(args) == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n_a", ["abc", "1.5", ""])
    def test_rejects_a_non_integer_subsystem(self, n_a, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["page-curve", "--N", "4", "--NA", n_a])
        assert exc.value.code == EXIT_INVALID
        assert "expected an integer or 'sweep'" in capsys.readouterr().err

    def test_consistency_failure_exit_code(self, monkeypatch, capsys):
        def broken(N, N_A, count, gen):
            raise ConsistencyError("singular values of the antisymmetric block do not pair up")

        monkeypatch.setattr(ensembles, "gaussian_entropies", broken)
        code = main(["page-curve", "--N", "4", "--NA", "2", "--mode", "mc", "--samples", "10"])
        assert code == EXIT_NUMERICAL == 4
        assert "do not pair up" in capsys.readouterr().err

    def test_accuracy_failure_exit_code(self, monkeypatch, capsys):
        def broken(ctx):
            raise rmt.AccuracyError("entropy quadrature did not converge")

        monkeypatch.setattr(rmt, "average_entropy_quadrature", broken)
        code = main(["page-curve", "--N", "4", "--NA", "2", "--mode", "quadrature"])
        assert code == EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err


class TestSeedHandling:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSIAN_PAGE_SEED", "777")
        _, a = run_cli(["variance", "--N", "4", "--NA", "2", "--samples", "100"], tmp_path, "a.csv")
        header, rows = read_rows(a)
        assert int(rows[0][header.index("seed")]) == 777

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUSSIAN_PAGE_SEED", "777")
        _, a = run_cli(["variance", "--N", "4", "--NA", "2", "--samples", "100", "--seed", "5"], tmp_path, "a.csv")
        header, rows = read_rows(a)
        assert int(rows[0][header.index("seed")]) == 5

    def test_default_seed_constant(self, tmp_path):
        _, a = run_cli(["variance", "--N", "4", "--NA", "2", "--samples", "100"], tmp_path, "a.csv")
        header, rows = read_rows(a)
        assert int(rows[0][header.index("seed")]) == DEFAULT_SEED


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    mode=st.sampled_from(MODES),
    ensemble=st.sampled_from(ENSEMBLES),
    N=st.integers(-2, 20),
    data=st.data(),
)
def test_arguments_reach_documented_exit_codes(command, mode, ensemble, N, data):
    n_a = data.draw(st.one_of(st.integers(-2, max(N, 0) + 2), st.just("sweep"), st.text(max_size=4)), label="NA")
    samples = data.draw(st.integers(-1, 32), label="samples")
    workers = data.draw(st.integers(1, 2), label="workers")
    argv = [command, "--mode", mode, "--ensemble", ensemble, "--N", str(N), "--NA", str(n_a),
            "--samples", str(samples), "--workers", str(workers), "--points", "11"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_RESOURCE, EXIT_NUMERICAL)
    assert (code == EXIT_OK) == ("error" not in err.getvalue())


def run_fresh(code):
    """Stdout of ``code`` run in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(gausspage.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test reference
    code = "import sys, gausspage.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    assert run_fresh(code).strip() == "[]"


def test_import_starts_no_thread():
    # the samplers' thread pool is made on first use, not at import
    code = "import threading, gausspage.cli; print(threading.active_count())"
    assert run_fresh(code).strip() == "1"
