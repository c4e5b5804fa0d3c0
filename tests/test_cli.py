import json

import numpy as np
import pytest

from affproj import mmup
from affproj.cli import main, random_family
from affproj.linalg import norm
from affproj.oracle import direct_projection, stack
from affproj.solver import LastQ, StoppingRule, run_alg2, run_map

EXP2_HEADER = ("iter,phase,set_index,step_norm,residual_max,"
               "residual_per_set_1,residual_per_set_2,dist_oracle")


def test_run_writes_trace_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["run", "--experiment", "2", "--alg", "alg2", "--q", "3",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == EXP2_HEADER
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        assert cells[1] in ("set-projection", "m1-projection",
                            "hyperplane-projection")
        assert cells[2] in ("", "1", "2")   # set indices are 1-based
        float(cells[3]), float(cells[4])
    assert "constraint residual:" in capsys.readouterr().out


def test_trace_csv_values_come_from_the_trace_points(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--random", "dim=12,k=2,seed=0", "--alg", "alg2", "--q", "2",
                 "--oracle", "--output", str(out)]) == 0
    sets, x0, _ = random_family(12, 2, [2, 2], 0)
    r = run_alg2(sets, x0, policy=LastQ(2), stop=StoppingRule(1e-10, 10000))
    oracle_point = direct_projection(x0, stack(sets))
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(r.trace)
    for line, rec in zip(lines[1:], r.trace):
        cells = [float(c) for c in line.split(",")[4:]]
        residuals = [s.residual(rec.point) for s in sets]
        assert cells == [max(residuals)] + residuals + [norm(rec.point - oracle_point)]


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["run", "--experiment", "2", "--alg", "alg2", "--q", "3",
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_with_monitors_and_oracle(capsys):
    rc = main(["run", "--experiment", "1", "--alg", "alg2", "--q", "3",
               "--monitors", "--oracle"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fejer worst margin:" in text
    assert "distance to oracle projection:" in text


def test_bench_counts_match_library(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--experiment", "2", "--config", "map",
               "--config", "alg2:1", "--thresholds", "1e-2,1e-8",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,q,threshold,v_projections"

    prob, _ = mmup.experiment2()
    x0 = prob.flatten(prob.x0)
    stop = StoppingRule(1e-10, 10000)
    runs = {"map": run_map(prob.sets, x0, stop=stop),
            "alg2": run_alg2(prob.sets, x0, policy=LastQ(1), stop=stop)}
    expect = {}
    for name, r in runs.items():
        for t in (1e-2, 1e-8):
            expect[(name, t)] = mmup.v_projections_to_threshold(prob, r, t)
    assert len(lines) == 5
    for line in lines[1:]:
        alg, q, t, count = line.split(",")
        assert expect[(alg, float(t))] == (None if count == "" else int(count))


def test_bench_requires_experiment(capsys):
    rc = main(["bench", "--random", "dim=10,k=2,seed=0", "--config", "map"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _experiment1_doc():
    """Experiment 1 in the JSON form load_problem_json reads."""
    prob, pencil = mmup.experiment1()
    (pair,) = prob.targets.pairs
    return {"M": pencil.m.tolist(), "D": pencil.d.tolist(), "K": pencil.k.tolist(),
            "targets": [{"mu_re": pair.mu.real, "mu_im": pair.mu.imag,
                         "y_re": pair.y.real.tolist(), "y_im": pair.y.imag.tolist()}]}


def test_bench_reads_a_problem_file(tmp_path):
    """Experiment 1 written as JSON benches like --experiment 1."""
    path = tmp_path / "exp1.json"
    path.write_text(json.dumps(_experiment1_doc()))
    outs = []
    for source in (["--experiment", "1"], ["--problem", str(path)]):
        out = tmp_path / f"bench{len(outs)}.csv"
        assert main(["bench", *source, "--config", "map", "--config", "alg1:3",
                     "--config", "alg2:3", "--output", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 3 * 5


def test_bench_rejects_unknown_algorithm():
    assert main(["bench", "--experiment", "2", "--config", "sketchy:3"]) == 2


def test_oracle_prints_feasible_point(capsys):
    rc = main(["oracle", "--random", "dim=10,k=2,seed=3"])
    assert rc == 0
    p = np.array([float(line) for line in capsys.readouterr().out.split()])
    assert p.shape == (10,)
    sets, _, _ = random_family(10, 2, [2, 2], 3)
    for s in sets:
        assert s.residual(p) <= 1e-8


def test_verify_reports_ok(capsys):
    rc = main(["verify", "--random", "dim=10,k=2,seed=1", "--alg", "alg1"])
    assert rc == 0
    assert "status: ok" in capsys.readouterr().out


@pytest.mark.parametrize("alg", ["alg1", "alg2"])
def test_verify_certifies_the_full_window(capsys, alg):
    """alg2's span condition is measured from its lifted start: from x0 its
    worst residual would be ||x0 - lift||, and verify would fail."""
    rc = main(["verify", "--random", "dim=40,k=4,seed=97,codims=4:4:4:4", "--alg", alg])
    out = capsys.readouterr().out
    assert rc == 0 and "status: ok" in out
    worst = float(out.split("span-condition residual: worst ")[1].split()[0])
    assert worst <= 1e-8


def test_verify_map_on_experiment(capsys):
    rc = main(["verify", "--experiment", "1", "--alg", "map"])
    assert rc == 0
    assert "status: ok" in capsys.readouterr().out


def test_random_spec_with_explicit_codims(capsys):
    rc = main(["run", "--random", "dim=10,k=2,seed=5,codims=2:3", "--alg", "alg1"])
    assert rc == 0
    assert "converged: True" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run"],                                            # no problem source
    ["run", "--experiment", "1", "--random", "dim=4,k=2,seed=0"],
    ["run", "--random", "dim=10,k=2,seed=0", "--q", "0"],   # no LastQ(0) window
    ["run", "--random", "dim=4,k=2,codims=3:3,seed=0"],  # over-budget codims
    ["run", "--random", "dim=10,k=2"],                   # missing seed is fine...
])
def test_invalid_configurations(argv):
    rc = main(argv)
    # the last spec is actually valid (seed defaults to 0)
    expected = 0 if argv[-1] == "dim=10,k=2" else 2
    assert rc == expected


@pytest.mark.parametrize("argv", [
    ["run", "--random", "dim=10,k=0"],
    ["run", "--random", "dim=10,k=2,seed=1", "--alg", "alg1", "--stop-tol", "nan"],
    ["run", "--random", "dim=10,k=2,seed=1", "--max-iter", "-5"],
])
def test_out_of_range_values_are_reported_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_problem_file():
    assert main(["run", "--problem", "/nonexistent/prob.json"]) == 2


@pytest.mark.parametrize("key", ["K", "y_re"])
def test_problem_file_without_a_key_is_a_reported_error(tmp_path, capsys, key):
    doc = _experiment1_doc()
    (doc if key == "K" else doc["targets"][0]).pop(key)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--problem", str(path)]) == 2
    assert f"error: problem file {path} has no key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("where,value,named", [
    ("K", np.nan, "pencil matrix k"), ("M", np.inf, "pencil matrix m"),
    ("y_re", np.nan, "target eigenvector y"), ("mu_re", np.inf, "target eigenvalue mu"),
    ("mu_im", -np.inf, "target eigenvalue mu"),
])
def test_problem_file_with_non_finite_data_is_a_reported_error(tmp_path, capsys, where, value,
                                                               named):
    doc = _experiment1_doc()
    if where in ("K", "M"):
        doc[where][0][0] = value
    elif where == "y_re":
        doc["targets"][0][where][1] = value
    else:
        doc["targets"][0][where] = value
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, as JSON readers accept them
    assert main(["run", "--problem", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {named}" in err
    assert "SVD" not in err
