import argparse
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
from gausspage import cli, ensembles, formulas, rmt, stats
from gausspage.cli import (
    _COMMANDS,
    _OPTIONS,
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
from gausspage.special import QuadratureRule


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

    @pytest.mark.parametrize("mode, ensemble", sorted(formulas.ROUTES))
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

    @pytest.mark.parametrize("mode, ensemble", sorted(formulas.ROUTES))
    @pytest.mark.parametrize("n_a", ["0", "5"])
    def test_every_served_cell_is_zero_without_a_subsystem(self, mode, ensemble, n_a, capsys):
        # S_A = 0 at N_A in {0, N}: mean 0 and std 0 whether or not the cell has a variance
        assert main(["page-curve", "--N", "5", "--NA", n_a, "--mode", mode, "--ensemble", ensemble]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[1:]
        row = dict(zip(header.split(","), row.split(",")))
        assert (row["value"], row["std"]) == ("0", "0")

    def test_json_format(self, tmp_path):
        code, path = run_cli(
            ["page-curve", "--N", "2", "--mode", "exact", "--format", "json"], tmp_path, "out.json"
        )
        payload = json.loads(path.read_text())
        assert payload["version"] == "gaussian-page v1"
        assert payload["columns"][0] == "N"
        assert abs(float(payload["rows"][1][3]) - 0.5) <= 1e-12


class TestDensity:
    def test_rows_are_the_level_density(self, capsys):
        assert main(["density", "--N", "9", "--NA", "3", "--points", "257"]) == EXIT_OK
        grid = np.linspace(0.0, 1.0, 257)
        rho = rmt.level_density(rmt.build_kernel_ctx(3, 3), grid)
        assert capsys.readouterr().out.splitlines()[2:] == [f"{x:.17g},{r:.17g}" for x, r in zip(grid, rho)]

    def test_uniform_density(self, tmp_path):
        code, path = run_cli(["density", "--N", "2", "--NA", "1", "--points", "11"], tmp_path)
        assert code == 0
        header, rows = read_rows(path)
        assert len(rows) == 11
        assert all(abs(float(r[1]) - 1.0) <= 1e-12 for r in rows)


# a page-curve sweep in every served (mode, ensemble) cell, from its k = 0 row, and every other command's table
_TABLES = [
    ["page-curve", "--mode", mode, "--ensemble", ensemble, "--N", "6", "--samples", "2"]
    for mode, ensemble in sorted(set(formulas.ROUTES) | {("mc", ensemble) for ensemble in ENSEMBLES})
] + [
    ["variance", "--N", "6", "--NA", "3", "--samples", "0"],
    ["variance", "--N", "6", "--NA", "3", "--samples", "50"],
    ["variance", "--N", "6", "--NA", "0", "--samples", "50"],
    ["sample", "--N", "6", "--NA", "3", "--samples", "0"],
    ["sample", "--N", "6", "--NA", "3", "--samples", "7"],
    ["dist", "--N", "6", "--NA", "3", "--samples", "50"],
    ["density", "--N", "6", "--NA", "3"],
]


class TestEmit:
    @pytest.mark.parametrize("argv", _TABLES, ids=" ".join)
    def test_every_table_holds_one_type_per_column(self, argv, monkeypatch):
        # _emit takes one format a column from the first row, so every row must have the first row's types
        tables = []
        monkeypatch.setattr(cli, "_emit", lambda config, columns, rows: tables.append((columns, rows)))
        assert main(argv) == EXIT_OK
        [(columns, rows)] = tables
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        assert all(len(row) == len(columns) for row in rows)
        assert all(list(map(type, row)) == list(map(type, rows[0])) for row in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_empty_table_writes_its_columns_only(self, fmt, capsys):
        assert main(["sample", "--N", "6", "--NA", "3", "--samples", "0", "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "csv":
            assert out == "# gaussian-page v1\nindex,entropy\n"
        else:
            assert json.loads(out) == {"version": "gaussian-page v1", "columns": ["index", "entropy"], "rows": []}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", [[[0.5, -0.0]], [[0.0, math.nan], [math.inf, -math.inf], [-0.0, 1e-300],
                                                       [0.1, 2.0 / 3.0]]], ids=["one-row", "special-values"])
    def test_a_float_array_writes_the_bytes_of_its_rows_as_lists(self, table, fmt, capsys):
        # a 2-D float array and the same rows as lists are flattened to the same fields and formats
        config = argparse.Namespace(fmt=fmt, out=None)
        cli._emit(config, ["x", "rho"], table)
        as_lists = capsys.readouterr().out
        cli._emit(config, ["x", "rho"], np.array(table))
        assert capsys.readouterr().out == as_lists
        if fmt == "csv" and len(table) > 1:
            assert as_lists.splitlines()[2:] == ["0,nan", "inf,-inf", "-0,1e-300",
                                                 "0.10000000000000001,0.66666666666666663"]


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
    def test_analytic_columns_are_the_variances_of_the_route_table(self, ensemble, tmp_path):
        # variance_finite is the variance of the exact cell and variance_limit that of the limit cell, nan without one
        args = ["variance", "--N", "6", "--NA", "3", "--samples", "200", "--ensemble", ensemble]
        code, path = run_cli(args, tmp_path)
        assert code == 0
        header, (row,) = read_rows(path)
        assert 0.0 < float(row[header.index("variance_mc")]) < (3 * math.log(2.0)) ** 2
        for route, column in (("exact", "variance_finite"), ("limit", "variance_limit")):
            _, variance = formulas.ROUTES.get((route, ensemble), (None, None))
            value = float(row[header.index(column)])
            assert value == variance(6, 3) if variance else math.isnan(value)
        if ensemble in ("gaussian", "hamiltonian"):
            assert float(row[header.index("variance_finite")]) == formulas.variance_finite_N(6, 3)
            assert abs(float(row[header.index("variance_limit")]) - (0.75 - math.log(2.0)) / 2.0) <= 1e-12

    def test_exact_variance_at_10_to_the_8_modes(self, capsys):
        # the exact variance is a closed form whose cost does not grow with N or N_A
        assert main(["variance", "--N", "100000000", "--NA", "50000000", "--samples", "0"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[1:]
        row = dict(zip(header.split(","), row.split(",")))
        assert abs(float(row["variance_finite"]) - float(row["variance_limit"])) <= 1e-8

    def test_limit_variance_at_one_mode_of_10_to_the_8(self, capsys):
        # f = 1e-8: the closed form (f + f^2 + log(1 - f))/2 would cancel to a negative number, and page-curve
        # would take its square root
        assert main(["page-curve", "--mode", "limit", "--N", "100000000", "--NA", "1"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[1:]
        std = float(dict(zip(header.split(","), row.split(",")))["std"])
        assert math.isfinite(std) and std > 0.0
        assert main(["variance", "--N", "100000000", "--NA", "1", "--samples", "0"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[1:]
        limit = float(dict(zip(header.split(","), row.split(",")))["variance_limit"])
        assert math.isfinite(limit) and limit > 0.0
        assert limit == pytest.approx(std**2, rel=1e-15) and limit == pytest.approx(0.25e-16, rel=1e-7)

    def test_page_limit_without_the_exact_page_route(self, capsys):
        # the exact Page route stops at N = 1024; variance never asks it for a mean
        assert main(["variance", "--ensemble", "haar-pure", "--N", "2000", "--samples", "0"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[1:]
        row = dict(zip(header.split(","), row.split(",")))
        assert row["variance_finite"] == "nan" and float(row["variance_limit"]) == 0.0

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    @pytest.mark.parametrize("n_a", ["0", "6"])
    def test_no_subsystem_draws_no_sample(self, ensemble, n_a, monkeypatch, capsys):
        # S_A = 0 at N_A in {0, N}: no sampler runs, the Monte Carlo columns read 0 with samples 0
        monkeypatch.setattr(stats, "mc_estimate", lambda *args: pytest.fail("sampled a known zero"))
        assert main(["variance", "--N", "6", "--NA", n_a, "--samples", "300", "--ensemble", ensemble]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[1:]
        row = dict(zip(header.split(","), row.split(",")))
        assert (row["variance_mc"], row["samples"]) == ("0", "0")
        args = ["page-curve", "--N", "6", "--NA", n_a, "--mode", "mc", "--samples", "300", "--ensemble", ensemble]
        assert main(args) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[1:]
        row = dict(zip(header.split(","), row.split(",")))
        assert [row[c] for c in ("value", "std", "std_error", "samples")] == ["0", "0", "0", "0"]

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

    def test_dist_bins_the_smaller_side(self, tmp_path, capsys):
        # S_A = S_B <= min(N_A, N - N_A) log 2: N_A = 8 of N = 10 bins on [0, 2 log 2]
        code, path = run_cli(["dist", "--N", "10", "--NA", "8", "--samples", "300", "--bins", "6"], tmp_path)
        assert code == 0
        _, rows = read_rows(path)
        assert float(rows[0][0]) == 0.0 and float(rows[-1][1]) == 2 * math.log(2.0)
        assert sum(int(r[2]) for r in rows) == 300 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_rows_are_the_draw_of_the_seeded_blocks(self, ensemble, capsys):
        # 1500 samples: a whole block and a part of the next
        sampler = getattr(ensembles, cli._SAMPLERS[ensemble])
        values = stats.draw_streams(lambda gen, count: sampler(6, 2, count, gen), 1500, 4)
        common = ["--ensemble", ensemble, "--N", "6", "--NA", "2", "--samples", "1500", "--seed", "4"]
        assert main(["sample"] + common) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [float(entropy) for _, entropy in rows] == values.tolist()
        assert main(["dist", "--bins", "7"] + common) == EXIT_OK
        counts = [int(row.split(",")[2]) for row in capsys.readouterr().out.splitlines()[2:]]
        assert counts == np.histogram(values, bins=7, range=(0.0, 2 * math.log(2.0)))[0].tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_a", ["0", "6"])
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_no_subsystem_prints_zero_entropies(self, ensemble, n_a, fmt, capsys):
        # S_A = 0 at N_A in {0, N}: a sum of exact zeros prints 0, never -0
        args = ["sample", "--ensemble", ensemble, "--N", "6", "--NA", n_a, "--samples", "3", "--format", fmt]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "json":
            entropies = [entropy for _, entropy in json.loads(out)["rows"]]
        else:
            entropies = [line.split(",")[1] for line in out.splitlines()[2:]]
        assert entropies == ["0"] * 3

    @pytest.mark.parametrize("command", ["sample", "dist"])
    @pytest.mark.parametrize("N, n_a, code", [("16", "8", EXIT_RESOURCE), ("3", "5", EXIT_INVALID)])
    def test_no_sample_still_checks_the_arguments(self, command, N, n_a, code, capsys):
        # --samples 0 draws nothing, but the sampler still refuses haar-pure at min(N_A, N - N_A) > 7 and N_A > N
        assert main([command, "--ensemble", "haar-pure", "--N", N, "--NA", n_a, "--samples", "0"]) == code
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("n_a", ["0", "6"])
    def test_dist_refuses_an_empty_range(self, n_a, capsys):
        assert main(["dist", "--N", "6", "--NA", n_a, "--samples", "10"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: dist needs 0 < --NA < --N") and len(err.splitlines()) == 1


class TestErrorPaths:
    @pytest.mark.parametrize(
        "mode, ensemble", [(m, e) for m in MODES if m != "mc" for e in ENSEMBLES if (m, e) not in formulas.ROUTES]
    )
    @pytest.mark.parametrize("n_a", ["0", "1", "4"])
    def test_invalid_combination(self, mode, ensemble, n_a, capsys):
        # the answer does not depend on N_A, also where N_A in {0, N} has a zero shortcut; the message names the
        # routes that serve the ensemble
        code = main(["page-curve", "--N", "4", "--NA", n_a, "--ensemble", ensemble, "--mode", mode])
        assert code == 2
        available = ", ".join([m for m in MODES if (m, ensemble) in formulas.ROUTES] + ["mc"])
        expected = f"error: mode {mode!r} is not available for ensemble {ensemble!r} (available: {available})\n"
        assert capsys.readouterr().err == expected

    def test_invalid_combination_message(self, capsys):
        assert main(["page-curve", "--N", "4", "--ensemble", "number-conserving", "--mode", "exact"]) == EXIT_INVALID
        err = "error: mode 'exact' is not available for ensemble 'number-conserving' (available: limit, mc)\n"
        assert capsys.readouterr().err == err

    def test_unopenable_out_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert main(["page-curve", "--N", "4", "--NA", "2", "--out", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open --out") and len(err.splitlines()) == 1
        assert not path.parent.exists()

    @pytest.mark.parametrize("where", ["missing parent", "file as parent", "directory"])
    def test_out_path_is_refused_before_any_sampling(self, where, tmp_path, monkeypatch, capsys):
        def never_called(N, N_A, count, gen):
            raise AssertionError("sampled before the --out check")

        monkeypatch.setattr(ensembles, "gaussian_entropies", never_called)
        (tmp_path / "file").write_text("kept")
        out = {"missing parent": tmp_path / "missing" / "x.csv", "file as parent": tmp_path / "file" / "x.csv",
               "directory": tmp_path}[where]
        argv = ["page-curve", "--N", "32", "--NA", "16", "--mode", "mc", "--samples", "20000", "--out", str(out)]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open --out") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"] and (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize(
        "error, code",
        [(ConsistencyError, EXIT_NUMERICAL), (ensembles.ResourceLimit, EXIT_RESOURCE), (MemoryError, EXIT_RESOURCE)],
    )
    def test_a_failed_run_writes_no_out_file(self, error, code, tmp_path, monkeypatch, capsys):
        def fails(N, N_A, count, gen):
            raise error("failed")

        monkeypatch.setattr(ensembles, "gaussian_entropies", fails)
        kept = tmp_path / "kept.csv"
        kept.write_text("an earlier table\n")
        for out in (kept, tmp_path / "new.csv"):
            argv = ["page-curve", "--N", "4", "--NA", "2", "--mode", "mc", "--samples", "10", "--out", str(out)]
            assert main(argv) == code
        assert capsys.readouterr().err == "error: failed\n" * 2
        assert kept.read_text() == "an earlier table\n" and not (tmp_path / "new.csv").exists()

    @pytest.mark.parametrize("command", [["page-curve", "--mode", "quadrature"], ["density"]])
    def test_out_of_memory_is_a_resource_limit(self, command, monkeypatch, capsys):
        # numpy raises MemoryError where an array does not fit, e.g. the quadrature rule of N = 10^5;
        # a bare MemoryError, as Python raises it, is named
        def fails(n_a, delta):
            raise MemoryError()

        monkeypatch.setattr(rmt, "build_kernel_ctx", fails)
        assert main(command + ["--N", "8", "--NA", "4"]) == EXIT_RESOURCE
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_resource_guard(self, capsys):
        code = main(["page-curve", "--N", "20", "--ensemble", "haar-pure", "--mode", "mc", "--samples", "10"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_sweep_is_refused_before_any_row_is_drawn(self, monkeypatch, capsys):
        # N_A = 8 of 20 is beyond the haar-pure guard: the sweep exits 3 before it draws the rows of N_A = 1..7
        counts, real = [], ensembles.haar_pure_entropies

        def counted(N, N_A, count, gen):
            counts.append(count)
            return real(N, N_A, count, gen)

        monkeypatch.setattr(ensembles, "haar_pure_entropies", counted)
        assert main(["page-curve", "--N", "20", "--ensemble", "haar-pure", "--mode", "mc"]) == EXIT_RESOURCE
        assert counts and set(counts) == {0}
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("N, n_a, samples", [(40, 4, 2000), (1024, 7, 64)])
    def test_haar_pure_beyond_the_dense_limit(self, N, n_a, samples, capsys):
        # the sampler's cost depends on 2^N_A only, and at N = 1024 nothing overflows
        argv = ["page-curve", "--mode", "mc", "--ensemble", "haar-pure", "--N", str(N), "--NA", str(n_a)]
        assert main(argv + ["--samples", str(samples)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(out[1].split(","), out[2].split(",")))
        error = abs(float(row["value"]) - formulas.page_average_exact(N, n_a))
        assert error <= max(3 * float(row["std_error"]), 1e-12)

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

    @pytest.mark.parametrize(
        "args",
        [
            ["page-curve", "--N", "4", "--NA", "0", "--mode", "mc", "--samples", "1", "--workers", "0"],
            ["page-curve", "--N", "4", "--NA", "1", "--mode", "mc", "--samples", "1", "--workers", "0"],
            ["page-curve", "--N", "4", "--NA", "0", "--mode", "mc", "--samples", "2", "--workers", "0"],
            ["page-curve", "--N", "4", "--mode", "exact", "--workers", "-1"],
            ["page-curve", "--N", "4", "--NA", "0", "--mode", "mc", "--samples", "1"],
            ["page-curve", "--N", "4", "--NA", "1", "--mode", "mc", "--samples", "1"],
            ["page-curve", "--N", "4", "--NA", "0", "--mode", "mc", "--samples", "0"],
            ["variance", "--N", "4", "--samples", "0", "--workers", "-5"],
            ["variance", "--N", "4", "--NA", "0", "--samples", "1"],
            ["variance", "--N", "4", "--samples", "1"],
        ],
    )
    def test_samples_and_workers_are_checked_whatever_the_subsystem(self, args, capsys):
        # --workers >= 1 wherever it is read; a Monte Carlo mean and variance need at least 2 samples
        assert main(args) == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["variance", "--N", "4", "--samples", "0"],
            ["page-curve", "--N", "4", "--NA", "0", "--mode", "mc", "--samples", "2"],
        ],
    )
    def test_smallest_valid_sample_counts(self, args, capsys):
        assert main(args) == EXIT_OK
        assert capsys.readouterr().err == ""

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
        # a one-node rule whose weight is its order: the integral never settles
        monkeypatch.setattr(rmt, "unit_interval_rule", lambda order: QuadratureRule(np.array([0.5]), np.array([order])))
        code = main(["page-curve", "--N", "4", "--NA", "2", "--mode", "quadrature"])
        assert code == EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("ensemble", ["number-conserving", "haar-pure"])
    def test_spectrum_beyond_the_clip_tolerance_exit_code(self, ensemble, monkeypatch, capsys):
        # an eigenvalue of 1 + 1e-6 is no rounding error: it is not clipped back into [0, 1]
        eigvalsh = np.linalg.eigvalsh

        def one_too_large(a):
            lam = eigvalsh(a)
            lam[..., -1] = 1.0 + 1e-6
            return lam

        monkeypatch.setattr(ensembles.np.linalg, "eigvalsh", one_too_large)
        code = main(["page-curve", "--N", "4", "--NA", "2", "--ensemble", ensemble, "--mode", "mc", "--samples", "10"])
        assert code == EXIT_NUMERICAL
        assert "escapes [0,1]" in capsys.readouterr().err


class TestSeedHandling:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    @pytest.mark.parametrize("command", ["page-curve", "variance"])
    def test_workers_change_no_output(self, command, ensemble, capsys):
        # 1500 samples in two blocks: the output depends on the seed and the sample count only
        argv = [command, "--ensemble", ensemble, "--N", "6", "--NA", "2", "--samples", "1500", "--seed", "3"]
        argv += ["--mode", "mc"] if command == "page-curve" else []
        outputs = []
        for workers in ("1", "3", str(10**12)):
            assert main(argv + ["--workers", workers]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0].count("\n") >= 3 and outputs[1:] == outputs[:1] * 2

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

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("seed", ["abc", "1.5", "", "-3"])
    def test_a_bad_environment_seed_exits_2(self, command, seed, monkeypatch, capsys):
        # a seed that is not an integer, or is negative, exits 2 on every command, whether it draws or not
        monkeypatch.setenv("GAUSSIAN_PAGE_SEED", seed)
        argv = [command, "--N", "4", "--NA", "2"] + (["--mode", "mc"] if command == "page-curve" else [])
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [["page-curve", "--N", "8", "--mode", "quadrature"], ["page-curve", "--N", "8", "--mode", "exact"],
         ["variance", "--N", "8", "--samples", "0"], ["density", "--N", "8", "--NA", "2"]],
    )
    def test_a_negative_seed_flag_exits_2_where_nothing_is_drawn(self, argv, capsys):
        assert main(argv + ["--seed", "3"]) == EXIT_OK
        capsys.readouterr()
        assert main(argv + ["--seed", "-3"]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: need a seed >= 0, got -3\n")

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
    bins = data.draw(st.integers(0, 8), label="bins")
    seed = data.draw(st.integers(-3, 2**64), label="seed")
    values = {"mode": mode, "ensemble": ensemble, "samples": samples, "workers": workers, "points": 11, "bins": bins}
    argv = [command, "--N", str(N), "--NA", str(n_a), "--seed", str(seed)]
    for option in _COMMANDS[command][1]:  # only the options the command reads
        argv += [f"--{option}", str(values[option])]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_RESOURCE, EXIT_NUMERICAL)
    assert (code == EXIT_OK) == ("error" not in err.getvalue())


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_, options) in _COMMANDS.items() for option in _OPTIONS if option not in options],
)
def test_an_option_the_command_does_not_read_exits_2(command, option, capsys):
    # 17 such pairs: 5 commands x 6 options less the 13 options the commands read
    argv = [command, "--N", "4", "--NA", "2"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{option}", str(_OPTIONS[option]["default"])])
    assert exc.value.code == EXIT_INVALID
    assert f"error: unrecognized arguments: --{option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [command for command in _COMMANDS if command != "page-curve"])
def test_only_page_curve_sweeps_the_subsystem(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--N", "4", "--NA", "sweep"])
    assert exc.value.code == EXIT_INVALID
    assert "error: argument --NA: invalid int value: 'sweep'" in capsys.readouterr().err


def test_the_run_function_is_looked_up_when_called(monkeypatch):
    # a patched module attribute is the run function main calls, as a tracer that wraps it needs
    calls = []
    monkeypatch.setattr(cli, "run_variance", calls.append)
    assert main(["variance", "--N", "4", "--samples", "0"]) == EXIT_OK
    assert [config.command for config in calls] == ["variance"]


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
