import json
import os

import numpy as np
import pytest

from mfgcontrols import cli
from mfgcontrols.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
UNIFORM_CFG = os.path.join(CONFIG_DIR, "uniform.cfg")
BUMP_CFG = os.path.join(CONFIG_DIR, "bump.cfg")
# what solve writes into a run directory; gamma = f(m) is derived when it is read
RUN_FILES = ["P.csv", "log.csv", "m.csv", "manifest.json", "u.csv", "w.csv"]


def write_cfg(path, **overrides):
    base = {
        "dimension": 1, "nx": 16, "nt": 8, "horizon": 1.0,
        "q": 2.0, "r": 2.0, "s": 2.0, "kappa_phi": 1.0,
        "theta": 1.0, "c": 1.0, "phi": 1.0, "A": 0.0,
        "m0": "uniform", "uT": "uniform", "price_dim": 1,
    }
    base.update(overrides)
    with open(path, "w") as fh:
        for k, v in base.items():
            fh.write(f"{k} = {v}\n")
    return str(path)


def test_classify_canonical(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg")
    assert main(["classify", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case_label"] == "2B"
    assert out["p"] == pytest.approx(2.0)
    assert out["sigma"] == pytest.approx(4.0 / 3.0)


def test_classify_hypothesis_violation(tmp_path, capsys):
    m0_csv = tmp_path / "m0.csv"
    vals = np.ones(16)
    vals[5] = 0.0
    with open(m0_csv, "w") as fh:
        fh.write("x_index,value\n")
        for i, v in enumerate(vals):
            fh.write(f"{i},{v}\n")
    cfg = write_cfg(tmp_path / "c.cfg", m0="m0.csv")
    assert main(["classify", cfg]) == 2
    err = capsys.readouterr().err
    assert "H4" in err


def test_classify_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense without equals\n")
    assert main(["classify", str(bad)]) == 1
    assert main(["classify", str(tmp_path / "nope.cfg")]) == 1


def test_solve_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", UNIFORM_CFG, "--out", str(out), "--tol", "1e-6", "--max-iter", "20000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert abs(payload["duality_gap"]) <= 1e-4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver"] == "pd"
    assert manifest["case_info"]["case_label"] == "2B"
    assert abs(manifest["residual_report"]["duality_gap"]) <= 1e-4
    assert payload["verdict"] == manifest["verdict"]
    assert sorted(os.listdir(out)) == RUN_FILES
    assert not (out / "gamma.csv").exists()

    assert main(["verify", "--solution", str(out), "--tol", "1e-3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "duality_gap", "hj_violation", "fp_residual", "price_residual",
        "feedback_residual", "complementarity", "mass_drift", "m_min",
    }


def test_solve_picard_uniform(tmp_path, capsys):
    out = tmp_path / "runp"
    rc = main(["solve", UNIFORM_CFG, "--method", "picard", "--out", str(out), "--tol", "1e-10"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["iterations"] <= 3


def test_solve_max_iter_truncation(tmp_path, capsys):
    out = tmp_path / "trunc"
    rc = main(["solve", BUMP_CFG, "--out", str(out), "--tol", "1e-9", "--max-iter", "1"])
    assert rc == 3
    assert (out / "m.csv").exists()
    assert (out / "manifest.json").exists()


def test_verify_corrupted_price(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", UNIFORM_CFG, "--out", str(out), "--tol", "1e-8", "--max-iter", "30000"]) == 0
    capsys.readouterr()
    # overwrite the price path with ones
    lines = (out / "P.csv").read_text().splitlines()
    head, rows = lines[0], lines[1:]
    with open(out / "P.csv", "w") as fh:
        fh.write(head + "\n")
        for row in rows:
            fh.write(row.split(",")[0] + ",1\n")
    rc = main(["verify", "--solution", str(out), "--tol", "1e-3"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert report["price_residual"] == pytest.approx(1.0, abs=1e-6)  # T * |1 - 0|


def test_verify_missing_artifact(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", UNIFORM_CFG, "--out", str(out), "--tol", "1e-4", "--max-iter", "20000"]) == 0
    capsys.readouterr()
    os.remove(out / "m.csv")
    assert main(["verify", "--solution", str(out)]) == 1


def test_diagnose_uniform_zeros(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", UNIFORM_CFG, "--out", str(out), "--tol", "1e-8", "--max-iter", "30000"]) == 0
    capsys.readouterr()
    rc = main(["diagnose", "--solution", str(out), "--shifts", "0.02,0.04"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert all(abs(v) <= 1e-8 for v in rec["time_shift_sums"].values())
    assert (out / "diagnostics.csv").exists()
    assert (out / "regularity.json").exists()


def test_diagnose_refuses_diffusion(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", A=0.05)
    out = tmp_path / "runA"
    assert main(["solve", cfg, "--out", str(out), "--tol", "1e-6", "--max-iter", "30000"]) == 0
    capsys.readouterr()
    rc = main(["diagnose", "--solution", str(out), "--shifts", "0.02"])
    assert rc == 1
    assert capsys.readouterr().err == "error: time diagnostics require zero diffusion (A = 0)\n"
    assert not (out / "diagnostics.csv").exists()


def test_diagnose_space_shifts_only_with_diffusion(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", A=0.05)
    out = tmp_path / "runA"
    assert main(["solve", cfg, "--out", str(out), "--tol", "1e-6", "--max-iter", "30000"]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--solution", str(out), "--shifts", ""]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["time_shift_sums"] == {} and len(rec["space_shift_sums"]) == 3
    kinds = [line.split(",")[0] for line in (out / "diagnostics.csv").read_text().splitlines()[1:]]
    assert kinds == ["space"] * 3


def test_solve_has_no_seed_option(tmp_path, capsys):
    assert main(["solve", UNIFORM_CFG, "--out", str(tmp_path / "run"), "--seed", "3"]) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cfg, tol", [(UNIFORM_CFG, "1e-6"), (BUMP_CFG, "1e-3")], ids=["uniform", "bump"])
def test_solve_reproducible_byte_identical(tmp_path, capsys, cfg, tol):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", cfg, "--out", str(out1), "--tol", tol]) == 0
    assert main(["solve", cfg, "--out", str(out2), "--tol", tol]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out2)) == RUN_FILES
    assert not (out1 / "gamma.csv").exists()
    for name in ("u.csv", "m.csv", "w.csv", "P.csv", "log.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_verify_ignores_stale_gamma_csv(uniform_run, capsys):
    # a gamma.csv left by an older writer is not read: gamma = f(m) is derived from m.csv
    assert main(["verify", "--solution", str(uniform_run)]) == 0
    clean = capsys.readouterr().out
    lines = (uniform_run / "m.csv").read_text().splitlines()
    tampered = [lines[0]] + [row.rsplit(",", 1)[0] + ",7.0" for row in lines[1:]]
    (uniform_run / "gamma.csv").write_text("\n".join(tampered) + "\n")
    assert main(["verify", "--solution", str(uniform_run)]) == 0
    assert capsys.readouterr().out == clean


def test_probe_uniqueness_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg")
    rc = main(["probe-uniqueness", cfg, "--n-inits", "2", "--tol", "1e-7", "--max-iter", "20000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_distance"] <= 1e-3
    assert payload["P_distance"] <= 1e-3


def test_csv_roundtrip_exact(tmp_path):
    from mfgcontrols.config import load_spec
    from mfgcontrols import io as sio
    from mfgcontrols.varsolve import SolverOptions, solve_primal_dual

    spec = load_spec(UNIFORM_CFG)
    sol, log = solve_primal_dual(spec, SolverOptions(max_iter=3000, tol_gap=1e-4))
    sio.write_solution(str(tmp_path), sol, log=log)
    back = sio.read_solution(str(tmp_path), spec)
    assert np.array_equal(back.u, sol.u)
    assert np.array_equal(back.m, sol.m)
    assert np.array_equal(back.w, sol.w)
    assert np.array_equal(back.P, sol.P)
    assert np.array_equal(back.gamma, sol.gamma)


def test_csv_roundtrip_exact_2d(tmp_path):
    from mfgcontrols import io as sio
    from mfgcontrols.grid import Grid
    from mfgcontrols.model import ProblemSpec
    from mfgcontrols.verify import Solution

    g = Grid(d=2, nx=5, nt=3, T=1.0)
    spec = ProblemSpec(grid=g, q=2, r=2, s=2, m0=np.ones((5, 5)), k=2)
    rng = np.random.default_rng(7)
    m = np.abs(rng.standard_normal(g.scalar_shape)) + 0.1
    sol = Solution(grid=g, u=rng.standard_normal(g.scalar_shape), m=m,
                   w=rng.standard_normal(g.vector_shape),
                   P=rng.standard_normal((g.nt + 1, 2)),
                   gamma=spec.coupling_f(m))
    sio.write_solution(str(tmp_path), sol)
    back = sio.read_solution(str(tmp_path), spec)
    for name in ("u", "m", "w", "P", "gamma"):
        assert np.array_equal(getattr(back, name), getattr(sol, name)), name


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.strip() and "\n" not in err.strip() and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    ["--method", "picard", "--max-iter", "0"],
    ["--max-iter", "0"],
    ["--tol=-1e-3"],
    ["--method", "picard", "--tol=-1e-3", "--max-iter", "3"],
])
def test_solve_invalid_option_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "bad"
    assert main(["solve", BUMP_CFG, "--out", str(out), *argv]) == 1
    _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", BUMP_CFG, "--out", "RUN", "--tol", "-1e-3"],
    ["bogus"],
    ["solve"],
])
def test_usage_error_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main([str(out) if a == "RUN" else a for a in argv]) == 1
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_parser_is_built_once_and_reusable(tmp_path, capsys):
    # the parser is cached per process: a second --help still exits 0 and a second
    # bad argument still exits 1, with the same output each time
    assert cli.build_parser() is cli.build_parser()
    for argv, code, stream in ((["--help"], 0, "out"), (["solve", BUMP_CFG, "--tol", "x"], 1, "err")):
        outputs = []
        for _ in range(2):
            assert main(argv) == code
            outputs.append(getattr(capsys.readouterr(), stream))
        assert "usage:" in outputs[0] and outputs[0] == outputs[1]


def test_probe_invalid_n_inits_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg")
    assert main(["probe-uniqueness", cfg, "--n-inits", "0"]) == 1
    assert "n_inits" in _one_line_error(capsys)


def test_solve_non_psd_diffusion_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", A=-0.01)
    assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "H3" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # a warning would print a second stderr line outside pytest
@pytest.mark.parametrize("command", ["classify", "solve", "probe-uniqueness"])
def test_overflowing_c_exits_2_naming_it(tmp_path, capsys, command):
    # d c / hx^r overflows on nx = 64: refused at admission, before any sweep or run directory
    cfg = write_cfg(tmp_path / "c.cfg", nx=64, c=1e305)
    out = tmp_path / "run"
    assert main([command, cfg] + (["--out", str(out)] if command == "solve" else [])) == 2
    assert _one_line_error(capsys).startswith("H2_hamiltonian violated: c overflows")
    assert not out.exists()


@pytest.fixture
def uniform_run(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", UNIFORM_CFG, "--out", str(out), "--tol", "1e-4", "--max-iter", "20000"]) == 0
    capsys.readouterr()
    return out


def test_diagnose_invalid_shifts_exits_1(uniform_run, capsys):
    # a NaN shift is out of range (|eps| < T/4 fails), not a traceback from the interpolation
    for shifts, named in (("0.02,abc", "--shifts"), ("nan", "eps"), ("0.02,nan", "eps")):
        assert main(["diagnose", "--solution", str(uniform_run), "--shifts", shifts]) == 1
        assert named in _one_line_error(capsys)


@pytest.mark.parametrize("tol", ["-1", "-1e-3", "nan"])
def test_verify_invalid_tol_exits_1(uniform_run, capsys, tol):
    # no verdict holds at a negative or NaN tolerance: an input error, as for solve, not a false verdict
    assert main(["verify", "--solution", str(uniform_run), f"--tol={tol}"]) == 1
    assert "tol" in _one_line_error(capsys)


@pytest.mark.filterwarnings("error")  # a warning would print a second stderr line outside pytest
@pytest.mark.parametrize("cut", ["rows", "mid_row", "abc", "nan", "header"])
def test_verify_truncated_w_csv(uniform_run, capsys, cut):
    lines = (uniform_run / "w.csv").read_text().splitlines()
    if cut == "header":
        lines = lines[:1]
    elif cut in ("rows", "mid_row"):
        lines = lines[:-5] + (["3,4"] if cut == "mid_row" else [])
    else:  # a non-numeric or non-finite last value
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + cut
    (uniform_run / "w.csv").write_text("\n".join(lines) + "\n")
    assert main(["verify", "--solution", str(uniform_run)]) == 1
    assert "w.csv" in _one_line_error(capsys)


def _write_node_csv(path, values):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("x_index,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


def test_csv_backed_run_verifies_on_its_own(tmp_path, capsys):
    x = np.arange(16) / 16
    _write_node_csv(tmp_path / "theta.csv", 1.0 + 0.5 * np.sin(2 * np.pi * x))
    _write_node_csv(tmp_path / "data" / "m0.csv", 1.0 + 0.3 * np.cos(2 * np.pi * x))
    cfg = write_cfg(tmp_path / "c.cfg", theta="theta.csv", m0="data/m0.csv")
    out = tmp_path / "runs" / "t"
    assert main(["solve", cfg, "--out", str(out), "--tol", "1e-6"]) == 0
    assert (out / "theta.csv").read_bytes() == (tmp_path / "theta.csv").read_bytes()
    assert (out / "data" / "m0.csv").read_bytes() == (tmp_path / "data" / "m0.csv").read_bytes()
    os.remove(tmp_path / "theta.csv")
    os.remove(tmp_path / "data" / "m0.csv")
    capsys.readouterr()
    assert main(["verify", "--solution", str(out)]) == 0


def test_absolute_csv_path_is_read_in_place(tmp_path, capsys):
    # solve copies only relative CSV paths; an absolute one stays where it is, and the run
    # directory, which names it in its manifest, still verifies
    x = np.arange(16) / 16
    theta_csv = tmp_path / "data" / "theta.csv"
    _write_node_csv(theta_csv, 1.0 + 0.5 * np.sin(2 * np.pi * x))
    (tmp_path / "cfg").mkdir()
    cfg = write_cfg(tmp_path / "cfg" / "c.cfg", theta=str(theta_csv))
    out = tmp_path / "run"
    assert main(["solve", cfg, "--out", str(out), "--tol", "1e-6"]) == 0
    assert sorted(os.listdir(out)) == RUN_FILES
    assert json.loads((out / "manifest.json").read_text())["config"]["theta"] == str(theta_csv)
    capsys.readouterr()
    assert main(["verify", "--solution", str(out), "--tol", "1e-6"]) == 0


@pytest.mark.filterwarnings("error")  # a warning would print a second stderr line outside pytest
@pytest.mark.parametrize("command", ["classify", "solve"])
@pytest.mark.parametrize("body", ["0,1\n1,1,3\n2,1\n3,1\n", "", "0,1\n1,abc\n2,1\n3,1\n",
                                  "3,4\n2,3\n1,2\n0,1\n", "0,1,5\n1,1,5\n2,1,5\n3,1,5\n"],
                         ids=["ragged", "header_only", "non_numeric", "reversed_rows", "extra_column"])
def test_malformed_coefficient_csv_exits_1(tmp_path, capsys, command, body):
    (tmp_path / "theta.csv").write_text("x_index,value\n" + body)
    cfg = write_cfg(tmp_path / "c.cfg", nx=4, nt=4, theta="theta.csv")
    out = tmp_path / "run"
    argv = [command, cfg] + (["--out", str(out)] if command == "solve" else [])
    assert main(argv) == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: ") and "theta.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["m.csv", "../theta.csv"])
def test_solve_rejects_csv_path_it_cannot_copy(tmp_path, capsys, name):
    cfg_dir = tmp_path / "cfg"
    _write_node_csv(cfg_dir / name, np.ones(16))
    cfg = write_cfg(cfg_dir / "c.cfg", theta=name)
    out = tmp_path / "run"
    assert main(["solve", cfg, "--out", str(out)]) == 1
    assert "config error" in _one_line_error(capsys)
    assert not out.exists()


def test_solve_no_convergence_exits_3(tmp_path, capsys, monkeypatch):
    from mfgcontrols import cli
    from mfgcontrols.errors import NoConvergence

    def fail(spec, opts):
        raise NoConvergence("quadratic kinetic prox residual 1.000e-03")

    monkeypatch.setattr(cli, "solve_primal_dual", fail)
    assert main(["solve", UNIFORM_CFG, "--out", str(tmp_path / "run")]) == 3
    assert _one_line_error(capsys).startswith("non-convergence: ")


def test_solve_picard_cfl_refusal_exits_3(tmp_path, capsys):
    # |D u_T| ~ 6e9: the value sweep would need far more than MAX_SUBSTEPS per interval
    cfg = write_cfg(tmp_path / "c.cfg", nt=4, uT="cosine 1 1e9")
    out = tmp_path / "run"
    assert main(["solve", cfg, "--method", "picard", "--out", str(out)]) == 3
    assert _one_line_error(capsys).startswith("non-convergence: explicit value sweep needs ht <= ")
    assert not out.exists()


def test_solve_diverged_exits_3(tmp_path, capsys, monkeypatch):
    from mfgcontrols import varsolve

    def nan_prox(mbar, wbar, *args):
        return np.full_like(mbar, np.nan), np.full_like(wbar, np.nan)

    monkeypatch.setattr(varsolve, "prox_kinetic_congestion", nan_prox)
    assert main(["solve", UNIFORM_CFG, "--out", str(tmp_path / "run")]) == 3
    assert _one_line_error(capsys).startswith("non-convergence: ")


def test_solve_then_verify_at_the_solve_tolerance(tmp_path, capsys):
    # converged means the verifier's verdict at --tol, so the run verifies on its own at that --tol
    out = tmp_path / "run"
    assert main(["solve", UNIFORM_CFG, "--out", str(out), "--tol", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]
    assert main(["verify", "--solution", str(out), "--tol", "1e-3"]) == 0


@pytest.mark.parametrize("command", ["classify", "solve"])
@pytest.mark.parametrize("key", ["m0", "uT"])
def test_empty_expression_exits_1(tmp_path, capsys, command, key):
    cfg = write_cfg(tmp_path / "c.cfg", **{key: ""})
    argv = [command, cfg] + (["--out", str(tmp_path / "run")] if command == "solve" else [])
    assert main(argv) == 1
    assert key in _one_line_error(capsys)


@pytest.mark.parametrize("command", ["classify", "solve"])
@pytest.mark.parametrize("key", ["m0", "uT"])
@pytest.mark.parametrize("expression", ["constant abc", "gaussian_bump 0.3 x", "cosine one 1.0"])
def test_non_numeric_expression_exits_1(tmp_path, capsys, command, key, expression):
    cfg = write_cfg(tmp_path / "c.cfg", **{key: expression})
    out = tmp_path / "run"
    argv = [command, cfg] + (["--out", str(out)] if command == "solve" else [])
    assert main(argv) == 1
    assert _one_line_error(capsys).startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "diagnose"])
@pytest.mark.parametrize("text", ["{", "{}", "[]", '{"config": {"nx": 16}}'])
def test_malformed_manifest_exits_1(uniform_run, capsys, command, text):
    (uniform_run / "manifest.json").write_text(text)
    assert main([command, "--solution", str(uniform_run)]) == 1
    assert _one_line_error(capsys).startswith("input error: ")


@pytest.mark.parametrize("command", ["verify", "diagnose"])
@pytest.mark.parametrize("key", ["theta", "c", "phi", "A", "m0", "uT"])
def test_manifest_missing_key_exits_1(uniform_run, capsys, command, key):
    # a default would verify a different instance than the one solved
    path = uniform_run / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["config"][key]
    path.write_text(json.dumps(manifest))
    assert main([command, "--solution", str(uniform_run)]) == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: ") and f"'{key}'" in err


@pytest.mark.parametrize("command", ["verify", "diagnose"])
@pytest.mark.parametrize("value", ["", "  "])
def test_manifest_blank_value_exits_1(uniform_run, capsys, command, value):
    path = uniform_run / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["m0"] = value
    path.write_text(json.dumps(manifest))
    assert main([command, "--solution", str(uniform_run)]) == 1
    err = _one_line_error(capsys)
    assert err.startswith("config error: ") and "'m0'" in err


@pytest.mark.parametrize("command", ["verify", "diagnose"])
@pytest.mark.parametrize("extra", ["0", "0.5", None], ids=["zeros", "halves", "none"])
def test_price_column_count_exits_1(uniform_run, capsys, command, extra):
    # price_dim = 1 needs exactly one value column; an extra or a missing one is refused
    lines = (uniform_run / "P.csv").read_text().splitlines()
    if extra is None:
        lines = [line.split(",")[0] for line in lines]
    else:
        lines = [lines[0] + ",value_1"] + [line + "," + extra for line in lines[1:]]
    (uniform_run / "P.csv").write_text("\n".join(lines) + "\n")
    assert main([command, "--solution", str(uniform_run)]) == 1
    err = _one_line_error(capsys)
    assert err.startswith("input error: ") and "P.csv" in err


@pytest.mark.parametrize("name", ["u.csv", "P.csv"])
def test_field_csv_extra_column_exits_1(uniform_run, capsys, name):
    # a duplicated value column is refused, not read past
    path = uniform_run / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line + "," + line.rsplit(",", 1)[1] for line in lines) + "\n")
    assert main(["verify", "--solution", str(uniform_run), "--tol", "1e-3"]) == 1
    err = _one_line_error(capsys)
    assert err.startswith("input error: ") and name in err


def _spoil_line_3(path, case):
    """Line 3 of a CSV file (the header is line 1) made ragged, non-numeric or NaN, or swapped with line 4."""
    lines = path.read_text().splitlines()
    if case == "swapped":  # each row keeps its own index columns
        lines[2], lines[3] = lines[3], lines[2]
    else:
        head = lines[2] if case == "ragged" else lines[2].rsplit(",", 1)[0]
        lines[2] = head + {"ragged": ",3", "non_numeric": ",abc", "nan": ",nan"}[case]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.filterwarnings("error")  # a warning would print a second stderr line outside pytest
@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("case", ["ragged", "non_numeric", "nan", "swapped"])
def test_malformed_csv_names_its_file_line(tmp_path, capsys, command, case):
    # a config CSV and a run-directory file number a bad row by the same file line
    if command == "classify":
        _write_node_csv(tmp_path / "theta.csv", np.ones(4))
        path = tmp_path / "theta.csv"
        argv = ["classify", write_cfg(tmp_path / "c.cfg", nx=4, nt=4, theta="theta.csv")]
    else:
        out = tmp_path / "run"
        assert main(["solve", write_cfg(tmp_path / "c.cfg"), "--out", str(out), "--tol", "1e-3"]) == 0
        capsys.readouterr()
        path, argv = out / "u.csv", ["verify", "--solution", str(out)]
    _spoil_line_3(path, case)
    assert main(argv) == 1
    err = _one_line_error(capsys)
    assert path.name in err and "line 3" in err



@pytest.mark.parametrize("name", ["w.csv", "P.csv"])
def test_field_csv_rows_out_of_lattice_order_exit_1(uniform_run, capsys, name):
    # two rows swapped, each keeping its own index columns, are refused rather than read by position
    path = uniform_run / name
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--solution", str(uniform_run), "--tol", "1e-3"]) == 1
    err = _one_line_error(capsys)
    assert err.startswith("input error: ") and name in err and "line 2" in err


def test_solve_out_is_a_file_exits_1(tmp_path, capsys, monkeypatch):
    # refused before the solve starts, and the file is left as it was
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before --out was checked")

    monkeypatch.setattr(cli, "solve_primal_dual", no_solve)
    out = tmp_path / "run"
    out.write_text("not a directory\n")
    for target in (out, out / "sub"):
        assert main(["solve", UNIFORM_CFG, "--out", str(target), "--tol", "1e-3"]) == 1
        assert _one_line_error(capsys).startswith("input error: ")
    assert out.read_text() == "not a directory\n"
    assert os.listdir(tmp_path) == ["run"]


@pytest.mark.parametrize("case,prefix", [("directory", "input error: "), ("undecodable", "config error: ")],
                         ids=["directory", "undecodable"])
def test_classify_unreadable_config_exits_1(tmp_path, capsys, case, prefix):
    cfg = tmp_path / "c.cfg"
    if case == "directory":
        cfg.mkdir()
    else:
        with open(UNIFORM_CFG, "rb") as fh:  # and a comment whose bytes are not UTF-8
            cfg.write_bytes(fh.read() + b"# \xff\xfe\n")
    assert main(["classify", str(cfg)]) == 1
    assert _one_line_error(capsys).startswith(prefix)


@pytest.mark.parametrize("name", ["m.csv", "manifest.json"])
def test_verify_artifact_is_a_directory_exits_1(uniform_run, capsys, name):
    os.remove(uniform_run / name)
    os.mkdir(uniform_run / name)
    assert main(["verify", "--solution", str(uniform_run)]) == 1
    assert _one_line_error(capsys).startswith("input error: ")
