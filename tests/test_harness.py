"""Error norms, empirical orders, presets, artifacts and the CLI."""
import json

import numpy as np
import pytest

from aderfv.cli import main as cli_main
from aderfv.harness import (ConvergenceReport, MeshResult, build_config,
                            convergence_study, empirical_orders, error_norms,
                            field_interpolant, make_case)
from aderfv.scheme import project_initial
from aderfv.systems import linear_system


def synthetic_exact(offset=0.0):
    def exact(x, t=None):
        x = np.asarray(x)
        return np.stack([0.3 + 0.1 * x + offset,
                         np.full_like(x, -2.0 + offset)], axis=-1)
    return exact


def test_error_norms_projection_level():
    """A field projected from (polynomial) exact data reconstructs exactly."""
    exact = synthetic_exact()
    field = project_initial(exact, 64, 0.0, 1 / 64)
    linf, l1, l2 = error_norms(field, exact, M=2, t_end=1.0)
    assert linf < 1e-10 and l1 < 1e-10 and l2 < 1e-10


def test_error_norms_constant_offset():
    exact = synthetic_exact()
    field = project_initial(synthetic_exact(offset=0.25), 50, 0.0, 1 / 50)
    linf, l1, l2 = error_norms(field, exact, M=1, t_end=0.0)
    assert abs(linf - 0.25) < 1e-10
    assert abs(l1 - 0.25) < 1e-10          # |domain| = 1
    assert abs(l2 - 0.25) < 1e-10


def test_error_norms_component_selection():
    def exact(x, t=None):
        x = np.asarray(x)
        return np.stack([np.zeros_like(x), np.ones_like(x)], axis=-1)

    field = project_initial(exact, 32, 0.0, 1 / 32)
    field.averages[:, 1] += 0.5   # perturb only the second component
    linf0, _, _ = error_norms(field, exact, M=1, t_end=0.0, component=0)
    linf1, _, _ = error_norms(field, exact, M=1, t_end=0.0, component=1)
    assert linf0 < 1e-12 and abs(linf1 - 0.5) < 1e-12


def report_from_errors(errors, meshes=None):
    rows = []
    meshes = meshes or [8 * 2**i for i in range(len(errors))]
    for n, e in zip(meshes, errors):
        rows.append(MeshResult(n_cells=n, linf=e, l1=e, l2=e, cpu_seconds=0.0))
    return ConvergenceReport(system="t", order=2, rows=rows)


def test_empirical_orders_basic_ratio():
    rep = empirical_orders(report_from_errors([4e-2, 1e-2]))
    assert rep.rows[1].ord_l1 == pytest.approx(2.0)


def test_empirical_orders_published_pair():
    rep = empirical_orders(report_from_errors([2.18e-5, 6.99e-7]))
    assert rep.rows[1].ord_l1 == pytest.approx(4.96, abs=0.005)


def test_empirical_orders_edge_cases():
    rep = empirical_orders(report_from_errors([1e-3, 1e-3]))
    assert rep.rows[1].ord_l1 == pytest.approx(0.0)
    rep = empirical_orders(report_from_errors([1e-3, 0.0]))
    assert rep.rows[1].ord_l1 is None
    rep = empirical_orders(report_from_errors([1e-2, 1e-3], meshes=[8, 24]))
    assert rep.rows[1].ord_l1 is None   # mesh ratio is not 2


def test_report_formatting_and_csv():
    rep = empirical_orders(report_from_errors([4e-2, 1e-2]))
    table = rep.format_table()
    assert "Theoretical order : 2" in table
    assert "2.00" in table
    lines = rep.csv_lines(with_cpu=False)
    assert lines[0].startswith("n_cells,")
    assert len(lines) == 3


def test_make_case_presets_and_overrides():
    case = make_case("leveque-yee")
    assert case.cfl == 0.2 and case.t_out == 0.3 and case.cells == 300
    assert case.system.params["beta"] == -10000.0
    case_b = make_case("leveque-yee", beta=-1000.0)
    assert case_b.system.params["beta"] == -1000.0
    case_s = make_case("shu-osher")
    assert case_s.cfl == 0.5 and case_s.boundary == "transmissive"
    assert case_s.exact is None
    with pytest.raises(ValueError):
        make_case("sod")


def test_build_config_defaults_and_overrides():
    case = make_case("linear")
    cfg = build_config(case, order=4)
    assert cfg.M == 3 and cfg.cfl == 0.9 and cfg.t_out == 1.0
    cfg2 = build_config(case, order=2, cells=40, cfl=0.5, t_out=0.2,
                        boundary="transmissive")
    assert cfg2.n_cells == 40 and cfg2.cfl == 0.5
    assert cfg2.boundary == "transmissive"


def test_convergence_study_orders_and_exact_requirement():
    case = make_case("linear")
    rep = convergence_study(case, 2, [8, 16], t_out=0.1)
    assert len(rep.rows) == 2
    assert rep.rows[1].ord_l1 is not None and rep.rows[1].ord_l1 > 1.0
    assert rep.rows[1].cpu_seconds > 0.0
    shu = make_case("shu-osher")
    with pytest.raises(ValueError):
        convergence_study(shu, 2, [8, 16])


def test_field_interpolant_reproduces_reconstruction():
    system = linear_system(1.0, -1.0)
    field = project_initial(lambda x: system.exact_solution(x, 0.0), 64,
                            0.0, 1 / 64)
    interp = field_interpolant(field, M=2)
    x = np.linspace(0.01, 0.99, 197)
    got = interp(x)
    want = system.exact_solution(x, 0.0)
    assert np.max(np.abs(got - want)) < 1e-4
    assert interp(np.array([[0.1, 0.2], [0.3, 0.4]])).shape == (2, 2, 2)


def test_convergence_tables_deterministic_across_thread_counts():
    def table_text(n_threads):
        rep = convergence_study(make_case("linear"), 3, [8, 16], t_out=0.1,
                                n_threads=n_threads)
        return rep.format_table(with_cpu=False), "\n".join(
            rep.csv_lines(with_cpu=False))

    t1, c1 = table_text(1)
    t3, c3 = table_text(3)
    assert t1 == t3
    assert c1 == c3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_solve_writes_profile(tmp_path, capsys):
    rc = cli_main(["solve", "--system", "linear", "--order", "2",
                   "--cells", "16", "--tout", "0.05",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solution" in out
    assert (tmp_path / "solution.dat").exists()


def test_cli_converge_parses_ranges(tmp_path):
    rc = cli_main(["converge", "--system", "linear", "--orders", "2..3",
                   "--meshes", "8,16", "--tout", "0.05",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "convergence_order2.csv").exists()
    assert (tmp_path / "convergence_order3.csv").exists()


def test_cli_config_file_merging(tmp_path):
    cfg = {"system": "linear", "order": 2, "cells": 16, "tout": 0.05}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = cli_main(["solve", "--config", str(path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "solution.dat").exists()
    # explicit flag wins over the config value
    out2 = tmp_path / "out2"
    rc = cli_main(["solve", "--config", str(path), "--cells", "8",
                   "--out", str(out2)])
    assert rc == 0
    assert np.loadtxt(out2 / "solution.dat").shape == (8, 3)


def test_cli_error_paths(tmp_path, capsys):
    assert cli_main(["converge", "--system", "linear",
                     "--out", str(tmp_path)]) == 2
    assert cli_main(["solve", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_converge_rejects_verbose(tmp_path, capsys):
    """--verbose is a solve option: converge refuses it as a flag (usage
    error, exit 2) and from a config file (one ``error:`` line, exit 2)."""
    args = ["converge", "--system", "linear", "--orders", "2",
            "--meshes", "8,16", "--tout", "0.05", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        cli_main(args + ["--verbose"])
    assert exc.value.code == 2
    assert "--verbose" in capsys.readouterr().err
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"verbose": True}))
    assert cli_main(args + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "verbose" in err
    assert not (tmp_path / "convergence_order2.csv").exists()


@pytest.mark.parametrize("cfg", [{"orders": [2], "meshes": [8, 16]},
                                 {"orders": "2..3", "meshes": "8,16"}])
def test_cli_config_rejects_keys_of_other_subcommand(tmp_path, capsys, cfg):
    """Config keys that ``solve`` does not take stop it with one ``error:``
    line and exit 2, before any study runs."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"system": "linear", **cfg}))
    out_dir = tmp_path / "out"
    assert cli_main(["solve", "--config", str(path),
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "meshes" in err and "orders" in err
    assert not out_dir.exists()


def test_cli_config_values_parse_as_flags(tmp_path):
    """A config value is parsed as its flag's argument: "cells": "64" runs
    like --cells 64, and a config "out" is where the files go."""
    out_dir = tmp_path / "out"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"system": "linear", "cells": "64",
                                "tout": "0.01", "out": str(out_dir)}))
    assert cli_main(["solve", "--config", str(path)]) == 0
    assert np.loadtxt(out_dir / "solution.dat").shape == (64, 3)


def test_cli_meshes_doubling_range(tmp_path, capsys):
    """Ranges parse as consecutive or doubling lists; a doubling range from
    zero or below (which doubling never ends) and a non-integer entry are
    rejected, and ``main`` reports either as an ``error:`` line with
    exit status 2."""
    from aderfv.cli import _parse_int_list
    assert _parse_int_list("2..5") == [2, 3, 4, 5]
    assert _parse_int_list("8..64", doubling=True) == [8, 16, 32, 64]
    assert _parse_int_list("8,16,32") == [8, 16, 32]
    for text in ("0..128", "-4..128"):
        with pytest.raises(ValueError, match="positive"):
            _parse_int_list(text, doubling=True)
    for orders, meshes in (("2", "0..128"), ("2", "-4..128"), ("2", "8..x"),
                           ("2..x", "8..16")):
        argv = ["converge", "--system", "linear", f"--orders={orders}",
                f"--meshes={meshes}", "--out", str(tmp_path)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


def test_cli_solve_artifacts(tmp_path):
    """solve writes the run's averages and the exact profile on its cell
    centres, one row per cell."""
    assert cli_main(["solve", "--system", "linear", "--order", "2",
                     "--cells", "16", "--tout", "0.05",
                     "--out", str(tmp_path)]) == 0
    sol = np.loadtxt(tmp_path / "solution.dat")
    assert sol.shape == (16, 3)
    exact = np.loadtxt(tmp_path / "exact.dat")
    assert exact.shape == (16, 3)
    assert np.max(np.abs(sol - exact)) < 0.05
    assert not (tmp_path / "reference.dat").exists()


def test_cli_converge_artifacts(tmp_path):
    assert cli_main(["converge", "--system", "linear", "--orders", "2",
                     "--meshes", "8,16", "--tout", "0.1",
                     "--out", str(tmp_path)]) == 0
    table = (tmp_path / "convergence_order2.txt").read_text()
    assert "Theoretical order : 2" in table
    csv = (tmp_path / "convergence_order2.csv").read_text().strip().splitlines()
    assert len(csv) == 3


def test_cli_converge_csv_matches_convergence_study(tmp_path):
    """The CLI's CSV, without its CPU column, is the study's own table."""
    assert cli_main(["converge", "--system", "linear", "--orders", "3",
                     "--meshes", "8..32", "--tout", "0.1", "--cfl", "0.5",
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "convergence_order3.csv").read_text().splitlines()
    assert rows[0].endswith(",cpu_seconds")
    got = [row.rsplit(",", 1)[0] for row in rows]
    want = convergence_study(make_case("linear"), 3, [8, 16, 32], cfl=0.5,
                             t_out=0.1).csv_lines(with_cpu=False)
    assert got == want


def test_cli_rejects_unknown_inputs(tmp_path, capsys):
    """converge without --meshes is an ``error:`` line with exit 2, and an
    unknown preset is a usage error; neither makes the output directory."""
    out_dir = tmp_path / "out"
    assert cli_main(["converge", "--system", "linear", "--orders", "2",
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    with pytest.raises(SystemExit) as exc:
        cli_main(["solve", "--system", "unknown", "--out", str(out_dir)])
    assert exc.value.code == 2
    assert "--system" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("orders, bad", [("2,6", 6), ("1", 1), ("1..3", 1)])
def test_cli_converge_rejects_unsupported_orders(tmp_path, capsys, orders,
                                                 bad):
    """An order outside 2..5 is refused before any study runs: one
    ``error:`` line naming it, exit 2, and no output directory."""
    out_dir = tmp_path / "out"
    assert cli_main(["converge", "--system", "linear", "--orders", orders,
                     "--meshes", "8,16", "--tout", "0.05",
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"order {bad}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--cells", "0"],
    ["solve", "--cfl", "0"],
    ["solve", "--tout", "-1"],
    ["converge", "--orders", "2", "--meshes", "2,4"],
    ["converge", "--orders", "2", "--meshes", "8,2"],
    ["converge", "--orders", "5..2", "--meshes", "8,16"],
    ["converge", "--orders", "2", "--meshes", "8..4"],
    ["converge", "--orders", "2", "--meshes", ","],
    ["solve", "--tout", "nan"],
    ["solve", "--tout", "inf"],
])
def test_cli_rejects_run_inputs_before_output(tmp_path, capsys, argv):
    """An input that some run of the command would refuse (too few cells,
    CFL out of range, output time negative or not finite) and an --orders
    or --meshes list with no entry give one ``error:`` line, exit 2 and no
    output directory."""
    out_dir = tmp_path / "out"
    assert cli_main([argv[0], "--system", "linear", *argv[1:],
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("system", ["euler-smooth", "shu-osher"])
def test_cli_rejects_beta_for_preset_without_source(tmp_path, capsys, system):
    """The Euler presets have no source coefficient, so --beta is refused
    with one ``error:`` line, exit 2 and no output directory, not dropped."""
    out_dir = tmp_path / "out"
    assert cli_main(["solve", "--system", system, "--beta", "5", "--cells",
                     "16", "--tout", "0.01", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "beta" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["{bad", "[1]", None])
def test_cli_config_unreadable(tmp_path, capsys, text):
    """A config file that is not JSON, holds no JSON object or is missing
    gives one ``error:`` line with exit 2."""
    path = tmp_path / "run.json"
    if text is not None:
        path.write_text(text)
    out_dir = tmp_path / "out"
    assert cli_main(["solve", "--config", str(path),
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.fixture
def small_shu_osher_reference(monkeypatch):
    """Stand-in for the 2000-cell Shu-Osher reference: a 64-cell run to the
    tests' output time, counting its calls."""
    from aderfv import cli
    from aderfv.scheme import run
    calls = []

    def reference():
        calls.append(1)
        return run(build_config(make_case("shu-osher"), order=3, cells=64,
                                t_out=0.05)).field

    monkeypatch.setattr(cli, "shu_osher_reference", reference)
    return calls, reference


def test_cli_solve_shu_osher_writes_reference(tmp_path,
                                              small_shu_osher_reference):
    calls, reference = small_shu_osher_reference
    assert cli_main(["solve", "--system", "shu-osher", "--order", "2",
                     "--cells", "16", "--tout", "0.05",
                     "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert np.loadtxt(tmp_path / "solution.dat").shape == (16, 4)
    assert not (tmp_path / "exact.dat").exists()
    ref = np.loadtxt(tmp_path / "reference.dat")
    field = reference()
    np.testing.assert_allclose(ref[:, 0], field.cell_centers(), rtol=1e-9)
    np.testing.assert_allclose(ref[:, 1:], field.averages, rtol=1e-9)


def test_cli_converge_shu_osher_uses_reference(tmp_path,
                                               small_shu_osher_reference):
    """Without an exact solution, converge measures errors against the
    reference run's third-order interpolant."""
    calls, reference = small_shu_osher_reference
    assert cli_main(["converge", "--system", "shu-osher", "--orders", "2..3",
                     "--meshes", "16,32", "--tout", "0.05",
                     "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    exact = field_interpolant(reference(), M=2)
    for k in (2, 3):
        rows = (tmp_path / f"convergence_order{k}.csv").read_text()
        want = convergence_study(make_case("shu-osher"), k, [16, 32],
                                 t_out=0.05,
                                 exact=exact).csv_lines(with_cpu=False)
        assert [row.rsplit(",", 1)[0] for row in rows.splitlines()] == want
