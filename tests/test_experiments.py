import csv
import json
import math

import numpy as np
import pytest

from schrodg.basis import SpaceKind
from schrodg.cli import main
from schrodg.experiments import (CSV_COLUMNS, ExperimentConfig, loglog_slope,
                                 run_conv_h, run_conv_p, run_singular, verify_basis,
                                 write_rows_csv)


def test_config_requires_two_levels():
    with pytest.raises(ValueError):
        ExperimentConfig("conv-h", levels=1)


@pytest.mark.parametrize("experiment, levels, minimum",
                         [("conv-p", 0, 1), ("verify-basis", 0, 1), ("conv-h", 1, 2)])
def test_config_message_names_the_minimum(experiment, levels, minimum):
    with pytest.raises(ValueError, match=f"levels must be >= {minimum} for {experiment}"):
        ExperimentConfig(experiment, levels=levels)


def test_conv_h_constant_data_exact():
    cfg = ExperimentConfig("conv-h", space=SpaceKind.trefftz(1), levels=2,
                           constant_data=True)
    rows = run_conv_h(cfg)
    for r in rows:
        assert r.dg_error <= 1e-12
        assert r.rate is None  # flagged: below the roundoff floor


def test_conv_h_rates_recomputable_from_errors():
    cfg = ExperimentConfig("conv-h", space=SpaceKind.trefftz(1), levels=3)
    rows = run_conv_h(cfg)
    assert rows[0].rate is None
    for prev, cur in zip(rows, rows[1:]):
        assert cur.rate == pytest.approx(math.log2(prev.dg_error / cur.dg_error))
        assert cur.h_x == pytest.approx(prev.h_x / 2)


def test_conv_p_dof_column_formula():
    cfg = ExperimentConfig("conv-p", space=SpaceKind.trefftz(1), levels=2)
    rows = run_conv_p(cfg)
    for r in rows:
        assert r.n_dofs == 100 * (2 * r.level + 1)
    assert len(rows) == 2 and rows[0].rate is None


def test_conv_p_single_entry():
    rows = run_conv_p(ExperimentConfig("conv-p", space=SpaceKind.trefftz(1), levels=1))
    assert len(rows) == 1 and rows[0].rate is None


def test_conv_h_p0_does_not_converge():
    cfg = ExperimentConfig("conv-h", space=SpaceKind.trefftz(0), levels=2)
    rows = run_conv_h(cfg)
    assert all(r.dg_error > 1.0 for r in rows)   # O(1) errors
    assert abs(rows[1].rate) < 0.5               # rate ~ 0


def test_loglog_slope_recovers_power():
    hs = [0.1 / 2 ** j for j in range(4)]
    vals = [3.0 * h ** 2 for h in hs]
    assert loglog_slope(hs, vals) == pytest.approx(2.0, abs=1e-12)


def test_loglog_slope_needs_two_positive_values():
    assert loglog_slope([], []) is None
    assert loglog_slope([0.1, 0.05], [1.0, None]) is None
    assert loglog_slope([0.1, 0.05, 0.025], [0.0, -1.0, 2.0]) is None


def test_singular_explicit_space_restricts_families():
    cfg = ExperimentConfig("singular", space=SpaceKind.quasi_trefftz(1), levels=2,
                           all_spaces=False)
    res = run_singular(cfg)
    assert list(res["tables"]) == ["quasi-trefftz"]
    errs = [r.dg_error for r in res["tables"]["quasi-trefftz"]]
    assert all(e is not None for e in errs)


def test_singular_rows_do_not_depend_on_an_earlier_run():
    # the basis trace tables live with each solution: a second run in the same process
    # gives the same rows to the bit
    cfg = ExperimentConfig("singular", space=SpaceKind.trefftz(1), levels=3)
    assert run_singular(cfg) == run_singular(cfg)


def test_singular_rows_do_not_depend_on_the_other_families():
    # every family marches on each level's shared mesh and is scored in one norm walk:
    # its rows are, to the bit, those of a run of that family alone
    both = run_singular(ExperimentConfig("singular", space=SpaceKind.trefftz(2), levels=3))
    assert list(both["tables"]) == ["trefftz", "quasi-trefftz", "full", "planewave"]
    for family, rows in both["tables"].items():
        alone = run_singular(ExperimentConfig("singular", space=SpaceKind(family, 2),
                                              levels=3, all_spaces=False))
        assert list(alone["tables"]) == [family]
        assert alone["tables"][family] == rows
        assert all(r.dg_error is not None for r in rows)


def test_verify_basis_report_shape():
    rep = verify_basis(p_max=2, dims=(1, 2))
    assert rep["all_pass"]
    assert {(e["d"], e["p"]) for e in rep["entries"]} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for e in rep["entries"]:
        assert e["dim"] == e["expected_dim"] == math.comb(2 * e["p"] + e["d"], e["d"])
        assert e["trefftz_residual"] <= 1e-13
        assert e["trace_reconstruction_error"] <= 1e-12


def test_verify_basis_dump_serializes(tmp_path):
    rep = verify_basis(p_max=1, dims=(1,), dump_basis=True)
    assert "bases" in rep and "d1_p1" in rep["bases"]
    json.dumps(rep)  # must be JSON-ready


def test_csv_columns_exact(tmp_path):
    cfg = ExperimentConfig("conv-h", space=SpaceKind.trefftz(1), levels=2,
                           constant_data=True)
    rows = run_conv_h(cfg)
    out = tmp_path / "rows.csv"
    write_rows_csv(rows, out)
    with open(out) as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == CSV_COLUMNS == ("level", "h_x", "h_t", "n_dofs",
                                            "dg_error", "rate", "cond2")


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    assert main(["conv-h", "--levels", "1", "--out", str(tmp_path / "x.csv")]) == 3
    assert main(["conv-h", "--space", "planewave", "--p", "0",
                 "--out", str(tmp_path / "y.csv")]) == 3


@pytest.mark.parametrize("args, message", [
    (["verify-basis", "--p", "0"], "p must be 1, 2 or 3 for verify-basis"),
    (["verify-basis", "--p", "4"], "p must be 1, 2 or 3 for verify-basis"),
    (["conditioning", "--space", "full", "--levels", "2"],
     "space must be trefftz for conditioning"),
    (["verify-basis", "--space", "full", "--p", "1"], "space must be trefftz for verify-basis"),
    (["conditioning", "--kappa", "0", "--levels", "2"], "conditioning does not read --kappa"),
    (["singular", "--kappa", "3", "--levels", "2"], "singular does not read --kappa"),
    (["verify-basis", "--kappa", "3", "--p", "1"], "verify-basis does not read --kappa"),
    (["conv-h", "--constant-data", "--kappa", "3", "--levels", "2"],
     "conv-h --constant-data does not read --kappa"),
    (["conditioning", "--seed-choice", "a", "--levels", "2"],
     "conditioning does not read --seed-choice"),
    (["verify-basis", "--seed-choice", "b", "--p", "1"], "seed choice must be a for verify-basis"),
    (["conv-h", "--space", "full", "--p", "1", "--levels", "2", "--seed-choice", "b"],
     "conv-h --space full does not read --seed-choice"),
    (["conv-p", "--space", "quasi-trefftz", "--levels", "2", "--seed-choice", "a"],
     "conv-p --space quasi-trefftz does not read --seed-choice"),
    (["singular", "--space", "planewave", "--levels", "2", "--seed-choice", "b"],
     "singular --space planewave does not read --seed-choice"),
    (["verify-basis", "--quad-n", "8", "--p", "1"], "verify-basis does not read --quad-n"),
    (["verify-basis", "--levels", "2", "--p", "1"], "verify-basis does not read --levels"),
    (["conv-p", "--p", "2", "--levels", "1"], "conv-p does not read --p"),
    (["conv-p", "--global-oracle", "--levels", "1"], "conv-p does not read --global-oracle"),
    (["singular", "--global-oracle", "--levels", "2"], "singular does not read --global-oracle"),
    (["singular", "--constant-data", "--levels", "2"], "singular does not read --constant-data"),
    (["conditioning", "--constant-data", "--levels", "2"],
     "conditioning does not read --constant-data"),
    (["conv-h", "--dump-basis", "--levels", "2"], "conv-h does not read --dump-basis"),
    (["conv-h", "--p", "1", "--levels", "4", "--global-oracle"],
     "--global-oracle is capped at 5000 unknowns and level 3 has 19200: trefftz p = 1 "
     "allows at most --levels 3"),
    (["conv-h", "--levels", "2", "--out", "{tmp}/missing/x.csv"],
     "--out directory {tmp}/missing does not exist"),
    (["conv-h", "--p", "1", "--levels", "2", "--out", "{tmp}"], "--out {tmp} is a directory"),
    (["singular", "--p", "1", "--levels", "2", "--out", "{tmp}"], "--out {tmp} is a directory"),
    (["conv-h", "--p", "1", "--levels", "2", "--out", "{tmp}/r.json"],
     "--out {tmp}/r.json ends in .json: conv-h takes a CSV path"),
    (["singular", "--p", "1", "--levels", "2", "--out", "{tmp}/s.json"],
     "--out {tmp}/s.json ends in .json: singular takes a CSV path"),
    (["conv-h", "--quad-n", "0", "--levels", "2"], "quad_n must be in [1, 64]"),
    (["singular", "--quad-n", "65", "--levels", "2"], "quad_n must be in [1, 64]"),
    (["conv-p", "--levels", "32"],
     "degree 32 needs 66 Gauss nodes, more than 64: at most --levels 31 without --quad-n"),
    (["conv-h", "--p", "32", "--levels", "2"],
     "degree 32 needs 66 Gauss nodes, more than 64: at most --p 31 without --quad-n"),
    (["conv-h", "--kappa", "nan", "--levels", "2"], "kappa must be finite, not nan"),
    (["conv-p", "--kappa", "inf", "--levels", "2"], "kappa must be finite, not inf"),
])
def test_cli_rejects_unsupported_experiment_settings(tmp_path, capsys, args, message):
    # "{tmp}" stands for tmp_path; an --out in args wins over the default one before it
    args = [a.format(tmp=tmp_path) for a in args]
    assert main(["--out", str(tmp_path / "x.json")] + args) == 3
    message = message.format(tmp=tmp_path)
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_unknown_experiment_exits_3(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_cli_default_out_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["conv-h", "--levels", "2"]) == 0
    assert main(["verify-basis", "--p", "1"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conv_h.csv", "conv_h.json",
                                                          "verify_basis.json"]


def test_cli_prints_each_file_written(tmp_path, capsys):
    assert main(["conditioning", "--p", "1", "--levels", "2",
                 "--out", str(tmp_path / "cond.csv")]) == 0
    names = ["cond_choice_a.csv", "cond_choice_b.csv", "cond.json"]
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / n}" for n in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_cli_verify_basis(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-basis", "--p", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]


def test_cli_conv_h_runs_and_is_deterministic(tmp_path):
    args = ["conv-h", "--p", "1", "--levels", "2", "--quad-n", "12"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.with_suffix(".json").read_text())["error_slope"] is not None
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[1]["rate"]) > 0.5


def test_cli_global_oracle_leaves_outputs_unchanged(tmp_path):
    args = ["conv-h", "--p", "1", "--levels", "2"]
    plain, checked = tmp_path / "plain.csv", tmp_path / "checked.csv"
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--global-oracle", "--out", str(checked)]) == 0
    for suffix in (".csv", ".json"):
        assert plain.with_suffix(suffix).read_bytes() == checked.with_suffix(suffix).read_bytes()
    assert "global_oracle" not in json.loads(checked.with_suffix(".json").read_text())["params"]


def test_cli_global_oracle_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    import schrodg.experiments

    solve_global = schrodg.experiments.solve_global
    for delta in (1e-3, float("nan")):  # a NaN in the oracle is a mismatch too

        def perturbed(*args, **kwargs):
            ref = solve_global(*args, **kwargs)
            ref.coeffs[0] += delta
            return ref

        monkeypatch.setattr(schrodg.experiments, "solve_global", perturbed)
        assert main(["conv-h", "--p", "1", "--levels", "2", "--global-oracle",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "marching/global mismatch" in capsys.readouterr().err


def test_cli_conv_p(tmp_path):
    # ill_conditioned_p lists the degrees whose cond2 exceeds 1e12: p = 4 has 1.9e10 and
    # p = 5 has 4.5e13
    for levels, flagged in ((2, []), (5, [5])):
        out = tmp_path / f"p{levels}.csv"
        assert main(["conv-p", "--levels", str(levels), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["level"]) for r in rows] == list(range(1, levels + 1))
        errors = [float(r["dg_error"]) for r in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["ill_conditioned_p"] == flagged
        assert flagged == [int(r["level"]) for r in rows if float(r["cond2"]) > 1e12]


def test_cli_conditioning_writes_both_choices(tmp_path):
    out = tmp_path / "cond.csv"
    assert main(["conditioning", "--p", "1", "--levels", "2", "--out", str(out)]) == 0
    assert (tmp_path / "cond_choice_a.csv").exists()
    assert (tmp_path / "cond_choice_b.csv").exists()
    summary = json.loads(out.with_suffix(".json").read_text())
    assert set(summary["slopes"]) == {"a", "b"}


def test_cli_singular_writes_per_space(tmp_path):
    out = tmp_path / "sing.csv"
    assert main(["singular", "--p", "1", "--levels", "2", "--out", str(out)]) == 0
    for family in ("trefftz", "quasi-trefftz", "full", "planewave"):
        assert (tmp_path / f"sing_{family}.csv").exists()


def test_cli_singular_plane_wave_breakdown_leaves_empty_cells(tmp_path, monkeypatch):
    import schrodg.experiments
    from schrodg.assembly import SlabSolveError

    args = ["singular", "--p", "1", "--levels", "3"]
    plain, broken = tmp_path / "plain", tmp_path / "broken"
    plain.mkdir()
    broken.mkdir()
    assert main(args + ["--out", str(plain / "s.csv")]) == 0
    march = schrodg.experiments.march

    def breaks_down(mesh, space, *rest, **kwargs):
        if space.family == "planewave" and mesh.nx > 2:  # level j has 2 * 2^j elements
            raise SlabSolveError(0, 1e16)
        return march(mesh, space, *rest, **kwargs)

    monkeypatch.setattr(schrodg.experiments, "march", breaks_down)
    assert main(args + ["--out", str(broken / "s.csv")]) == 0
    with open(broken / "s_planewave.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["dg_error"] != ""
    assert [(r["dg_error"], r["rate"]) for r in rows[1:]] == [("", "")] * 2
    for family in ("trefftz", "quasi-trefftz", "full"):
        name = f"s_{family}.csv"
        assert (broken / name).read_bytes() == (plain / name).read_bytes()


def test_cli_nan_initial_datum_exits_2(tmp_path, capsys, monkeypatch):
    import schrodg.experiments
    from schrodg.assembly import BoundaryData

    def nan_initial(sol):
        return BoundaryData(psi0=lambda x: np.full(np.shape(x), np.nan, dtype=complex),
                            g_D=lambda x, t: sol.value(x, t))

    monkeypatch.setattr(schrodg.experiments, "solution_data", nan_initial)
    assert main(["conv-h", "--levels", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert "slab 0: non-finite" in capsys.readouterr().err


def test_cli_nan_dirichlet_datum_exits_2(tmp_path, capsys, monkeypatch):
    import schrodg.experiments
    from schrodg.assembly import BoundaryData

    def nan_after_half(sol):
        return BoundaryData(psi0=lambda x: sol.value(x, 0.0),
                            g_D=lambda x, t: np.where(t > 0.5, np.nan, sol.value(x, t)))

    monkeypatch.setattr(schrodg.experiments, "solution_data", nan_after_half)
    assert main(["conv-h", "--levels", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert "slab 5: non-finite" in capsys.readouterr().err  # h_t = 0.1


@pytest.mark.parametrize("kappa", ["1e154", "1e160", "-1e200", "1.7976931348623157e308"])
@pytest.mark.parametrize("experiment", ["conv-h", "conv-p"])
def test_cli_huge_kappa_exits_2_naming_slab_0(tmp_path, capsys, experiment, kappa):
    # kappa^2 overflows to inf (a float power would raise OverflowError), so the data
    # are not finite and the first slab's right-hand side fails
    assert main([experiment, "--levels", "2", f"--kappa={kappa}",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "slab 0: non-finite right-hand side" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment, level", [("conv-h", 0), ("conv-p", 1)])
def test_cli_overflowing_dg_error_exits_2_naming_level_and_space(tmp_path, capsys,
                                                                 experiment, level):
    # the data and the solution are finite at kappa = 700, but the norm's sum of squares
    # overflows; conv-p's level is its degree
    assert main([experiment, "--levels", "2", "--kappa=700",
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"schrodg: solver failure: level {level}, trefftz p = 1: dg_error is inf, " \
                  "not finite\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_linalg_error_exits_2(tmp_path, capsys, monkeypatch):
    import schrodg.experiments

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("LU did not converge")

    monkeypatch.setattr(schrodg.experiments, "march", broken)
    assert main(["conv-h", "--levels", "2", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "solver failure" in err and "Traceback" not in err


def test_cli_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    import schrodg.cli

    def out_of_memory(config):
        raise MemoryError()

    monkeypatch.setattr(schrodg.cli, "run_conv_h", out_of_memory)
    assert main(["conv-h", "--levels", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "schrodg: solver failure: out of memory\n"


def test_conv_p_assembles_each_first_slab_once(monkeypatch):
    # cond2 comes from the slab operator that march assembled and factored
    import schrodg.assembly
    from schrodg.assembly import slab_operator
    from schrodg.mesh import SpaceTimeDomain, build_cartesian_mesh

    calls = []
    slab_matrix = schrodg.assembly._slab_matrix

    def counting(mesh, basis, n_form):
        calls.append(basis.kind)
        return slab_matrix(mesh, basis, n_form)

    monkeypatch.setattr(schrodg.assembly, "_slab_matrix", counting)
    rows = run_conv_p(ExperimentConfig("conv-p", levels=3))
    assert calls == [SpaceKind.trefftz(p) for p in (1, 2, 3)]
    monkeypatch.undo()
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 10, 10)
    assert [r.cond2 for r in rows] == [slab_operator(mesh, SpaceKind.trefftz(p)).cond2
                                       for p in (1, 2, 3)]


def test_plane_wave_conv_p_takes_each_cond2_once(tmp_path, monkeypatch):
    # one SVD per operator, for the CSV's cond2 column: march's plane-wave screen takes none
    import schrodg.assembly
    from schrodg.assembly import slab_operator
    from schrodg.mesh import SpaceTimeDomain, build_cartesian_mesh

    calls = []
    cond2 = schrodg.assembly.cond2

    def counting(a):
        calls.append(a.shape)
        return cond2(a)

    monkeypatch.setattr(schrodg.assembly, "cond2", counting)
    out = tmp_path / "pw.csv"
    assert main(["conv-p", "--space", "planewave", "--levels", "3", "--out", str(out)]) == 0
    assert len(calls) == 3
    monkeypatch.undo()
    # the same bytes as a cond2 taken afresh from a newly assembled operator
    mesh = build_cartesian_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), 10, 10)
    with open(out, newline="") as fh:
        cells = [row["cond2"] for row in csv.DictReader(fh)]
    assert cells == [format(slab_operator(mesh, SpaceKind("planewave", p)).cond2, ".16g")
                     for p in (1, 2, 3)]
