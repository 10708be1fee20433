import json
import re

import numpy as np
import pytest

import sdot.cli
from sdot.cli import main
from sdot.config import ConfigError, load_config
from sdot.potential import BrenierPotential, PowerCellStats
from sdot.render import build_scene, scene_to_svg
from oracle import loop_generated_rows


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "domain": {"kind": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "target": {"generator": "grid", "k": 3, "extent": 0.8},
        "solver": {"mode": "exact-2d", "tolerance": 1e-6},
        "seed": 12,
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


CLUSTER_TARGET = {
    "generator": "clusters",
    "centers": [[-5.0, 0.0], [5.0, 0.0]],
    "per_cluster": 15,
    "radius": 0.5,
}

DUMBBELL_TARGET = {
    "generator": "dumbbell",
    "bell_radius": 0.3,
    "bar_width": 0.1,
    "separation": 1.2,
    "count": 30,
}


def cut_cells(text):
    """stats.json with only its first 5 cell masses and cells."""
    data = json.loads(text)
    return json.dumps({**data, "cell_measures": data["cell_measures"][:5],
                       "cells": data["cells"][:5]})


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"domain": }')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_both_target_sources_rejected(self, tmp_path):
        path = write_config(tmp_path, target={"generator": "grid", "k": 2,
                                              "file": "x.csv"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_target_file_rejected(self, tmp_path):
        path = write_config(tmp_path, target={"file": "missing.csv"})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("overrides, field", [
        ({"solver": {"tolerance": "abc"}}, "solver.tolerance"),
        ({"solver": {"max_iterations": None}}, "solver.max_iterations"),
        ({"solver": {"damping": [1]}}, "solver.damping"),
        ({"render": {"size": "big"}}, "render.size"),
        ({"mass_tolerance": "x"}, "mass_tolerance"),
        ({"render": {"show_targets": "no"}}, "render.show_targets"),
        ({"target": "generator"}, "target"),
        ({"domain": ["kind"]}, "domain"),
        ({"solver": "fast"}, "solver"),
        ({"render": [1]}, "render"),
        ({"solver": {"max_iterations": 2.7}}, "solver.max_iterations"),
        ({"solver": {"max_iterations": True}}, "solver.max_iterations"),
        ({"solver": {"tolerance": "1e-6"}}, "solver.tolerance"),
        ({"render": {"size": True}}, "render.size"),
        ({"seed": 3.9}, "seed"),
    ], ids=["tolerance", "max-iterations", "damping", "size", "mass-tolerance",
            "show-targets", "target-section", "domain-section", "solver-section",
            "render-section", "fractional-count", "bool-count", "numeric-string",
            "bool-size", "fractional-seed"])
    def test_malformed_field_names_field(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, **overrides)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"target": {"generator": "grid", "k": "abc"}}, "target.k"),
        ({"target": {"generator": "grid", "k": 3, "extent": "x"}}, "target.extent"),
        ({"target": {"generator": "grid", "k": 3, "seed": "x"}}, "target.seed"),
        ({"target": {**CLUSTER_TARGET, "centers": "abc"}}, "target.centers"),
        ({"domain": {"kind": "box", "bounds": "abc"}}, "domain.bounds"),
        ({"domain": {"kind": "disk", "center": ["a", 0], "radius": 1.0}}, "domain.center"),
        ({"domain": {"kind": "polygon", "vertices": [[0, 0], "x"]}}, "domain.vertices"),
        ({"target": {**CLUSTER_TARGET, "per_cluster": 20.7}}, "target.per_cluster"),
        ({"target": {**DUMBBELL_TARGET, "count": True}}, "target.count"),
        ({"domain": {"kind": "box", "bounds": [["-1", True], [-1, 1]]}}, "domain.bounds"),
        ({"domain": {"kind": "disk", "center": [0, False], "radius": 1.0}}, "domain.center"),
        ({"domain": {"kind": "polygon", "vertices": [[0, 0], [1, "0"], [0, 1]]}},
         "domain.vertices"),
        ({"target": {**CLUSTER_TARGET, "centers": [[-5, 0], [5, True]]}}, "target.centers"),
    ], ids=["k", "extent", "target-seed", "centers", "bounds", "center", "vertices",
            "fractional-per-cluster", "bool-count", "string-bool-bounds", "bool-center",
            "string-vertex", "bool-centers"])
    def test_malformed_domain_or_target_names_field(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, **overrides)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: expected ")
        assert not (tmp_path / "out").exists()

    def test_zero_min_step_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, solver={"mode": "exact-2d", "min_step": 0})
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: solver: min_step")

    @pytest.mark.parametrize("solver, field", [
        ({"max_iterations": -5}, "max_iterations"),
        ({"mode": "monte-carlo", "mc_samples": 0}, "mc_samples"),
    ])
    def test_count_out_of_range_exit_one(self, tmp_path, capsys, solver, field):
        path = write_config(tmp_path, solver=solver)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: solver: {field} must be")

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDOT_OUTPUT_DIR", str(tmp_path / "env_out"))
        config = load_config(write_config(tmp_path))
        assert config.output_dir == str(tmp_path / "env_out")


class TestSolveCommand:
    def test_grid_solve_exit_zero(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["final_residual"] <= 1e-6
        assert (out / "heights.json").exists()
        assert (out / "stats.json").exists()

    def test_duplicate_target_exit_one(self, tmp_path, capsys):
        target_file = tmp_path / "dup.csv"
        target_file.write_text("0,0\n0,0\n")
        path = write_config(tmp_path, target={"file": "dup.csv"})
        assert main(["solve", str(path)]) == 1
        assert "coincide" in capsys.readouterr().err

    def test_max_iterations_exit_two(self, tmp_path):
        path = write_config(tmp_path, target={"generator": "grid", "k": 5},
                            solver={"mode": "exact-2d", "max_iterations": 1})
        assert main(["solve", str(path)]) == 2

    @pytest.mark.parametrize("overrides, reason, flag", [
        ({"target": {"generator": "grid", "k": 5},
          "solver": {"mode": "exact-2d", "max_iterations": 1}},
         "max iterations", "hit_max_iterations"),
        ({"domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
          "target": {**CLUSTER_TARGET, "per_cluster": 20},
          "solver": {"mode": "exact-2d", "min_step": 0.99}, "seed": 11},
         "step underflow", "step_underflow"),
    ], ids=["max-iterations", "step-underflow"])
    def test_exit_two_names_stopping_criterion(self, tmp_path, capsys, overrides,
                                               reason, flag):
        path = write_config(tmp_path, **overrides)
        assert main(["solve", str(path)]) == 2
        assert f"did not converge ({reason})" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report[flag] is True and report["converged"] is False

    def test_dumbbell_generator(self, tmp_path):
        path = write_config(tmp_path, target=DUMBBELL_TARGET)
        assert main(["solve", str(path)]) == 0
        out = tmp_path / "out"
        assert json.loads((out / "report.json").read_text())["converged"] is True
        labels = json.loads((out / "target.json").read_text())["labels"]
        assert len(labels) == 30 and set(labels) == {0, 1, 2}

    def test_polygon_domain(self, tmp_path):
        path = write_config(
            tmp_path,
            domain={"kind": "polygon",
                    "vertices": [[-1.0, -1.0], [1.5, -1.0], [1.5, 1.0], [-1.0, 1.0]]},
            target={"generator": "grid", "k": 2, "extent": 0.5})
        assert main(["solve", str(path)]) == 0

    def test_seed_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, target=CLUSTER_TARGET)
        assert main(["solve", str(path), "--seed", "99"]) == 0
        t1 = json.loads((tmp_path / "out" / "target.json").read_text())
        assert main(["solve", str(path)]) == 0
        t2 = json.loads((tmp_path / "out" / "target.json").read_text())
        assert t1["points"] != t2["points"]


class TestGenerateCommand:
    def test_requires_solve_first(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["generate", str(path), "--count", "5"]) == 1
        assert "solve" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"heights": [0.0, ', '{}', '[1, 2]'],
                             ids=["truncated", "no-key", "not-an-object"])
    def test_corrupt_heights_exit_one(self, tmp_path, capsys, text):
        path = write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        capsys.readouterr()
        heights = tmp_path / "out" / "heights.json"
        heights.write_text(text)
        assert main(["generate", str(path), "--count", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {heights} ")
        assert "sdot solve" in err and "Traceback" not in err

    def test_generated_rows(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        assert main(["generate", str(path), "--count", "200"]) == 0
        lines = (tmp_path / "out" / "generated.csv").read_text().strip().splitlines()
        assert lines[0] == "x0,x1,target_index,y0,y1"
        assert len(lines) == 201
        config = json.loads(path.read_text())
        target = json.loads((tmp_path / "out" / "target.json").read_text())
        points = np.asarray(target["points"])
        for line in lines[1:]:
            toks = line.split(",")
            idx = int(toks[2])
            y = np.array([float(toks[3]), float(toks[4])])
            # generated output is supported exactly on the target points
            assert np.array_equal(y, points[idx])

    def test_generate_after_monte_carlo_solve(self, tmp_path):
        # monte-carlo solves write no stats.json; generation must still work
        path = write_config(tmp_path, target={"generator": "grid", "k": 2, "extent": 0.5},
                            solver={"mode": "monte-carlo", "mc_samples": 50000})
        assert main(["solve", str(path)]) == 0
        assert not (tmp_path / "out" / "stats.json").exists()
        assert main(["generate", str(path), "--count", "50"]) == 0

    def test_render_and_probe_after_monte_carlo_solve(self, tmp_path, capsys):
        # no stats.json by design: the error names the mode, not a missing artifact
        path = write_config(tmp_path, solver={"mode": "monte-carlo", "mc_samples": 20000})
        assert main(["solve", str(path)]) == 0
        for args in (["render"], ["probe", "--from=-0.5,0", "--to=0.5,0"]):
            capsys.readouterr()
            assert main([args[0], str(path), *args[1:]]) == 1
            err = capsys.readouterr().err
            assert "exact-2d" in err and "solver.mode" in err
            assert "Traceback" not in err and "missing artifact" not in err

    @pytest.mark.parametrize("dim, overrides", [
        (2, {}),
        (3, {"domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
             "target": {"file": "target3d.csv"},
             "solver": {"mode": "monte-carlo", "mc_samples": 20000}}),
    ], ids=["grid-2d", "ball-3d-monte-carlo"])
    def test_rows_match_loop_writer(self, tmp_path, monkeypatch, dim, overrides):
        monkeypatch.setattr(sdot.cli, "_GENERATE_BLOCK", 1000)  # three blocks
        (tmp_path / "target3d.csv").write_text(
            "0.5,0,0\n-0.5,0,0\n0,0.5,0\n0,-0.5,0\n0,0,0.5\n0,0,-0.6\n")
        path = write_config(tmp_path, **overrides)
        assert main(["solve", str(path)]) == 0
        assert main(["generate", str(path), "--count", "2049"]) == 0
        out = tmp_path / "out"
        target = json.loads((out / "target.json").read_text())
        heights = json.loads((out / "heights.json").read_text())["heights"]
        measure = sdot.validate_target(np.asarray(target["points"]),
                                       np.asarray(target["weights"]))
        potential = BrenierPotential(measure, np.asarray(heights))
        assert measure.dimension == dim

        text = (out / "generated.csv").read_text()
        # repr round-trips, so the file gives back the exact samples
        samples = np.array([[float(t) for t in line.split(",")[:dim]]
                            for line in text.splitlines()[1:]])
        assert samples.shape == (2049, dim)
        idx = np.array([potential.assign_cell(x) for x in samples])
        assert text == loop_generated_rows(samples, idx, measure.points)

    def test_mode_histogram_close_to_weights(self, tmp_path):
        path = write_config(tmp_path)
        main(["solve", str(path)])
        assert main(["generate", str(path), "--count", "100000"]) == 0
        lines = (tmp_path / "out" / "generated.csv").read_text().strip().splitlines()[1:]
        idx = np.array([int(l.split(",")[2]) for l in lines])
        freq = np.bincount(idx, minlength=9) / len(idx)
        assert np.abs(freq - 1 / 9).max() <= 5e-3


class TestProbeCommand:
    def test_probe_across_cluster_gap(self, tmp_path):
        path = write_config(tmp_path,
                            domain={"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
                            target=CLUSTER_TARGET, theta=3.0)
        assert main(["solve", str(path)]) == 0
        assert main(["probe", str(path), "--from=-0.8,0.02", "--to=0.8,0.02",
                     "--steps", "2000"]) == 0
        lines = (tmp_path / "out" / "probe.csv").read_text().strip().splitlines()
        assert lines[0] == "t,from_cell,to_cell,jump,is_singular"
        singular = [l for l in lines[1:] if l.endswith(",1")]
        assert len(singular) >= 1

    def test_probe_outside_domain_fails(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["solve", str(path)])
        assert main(["probe", str(path), "--from=-5,0", "--to=0,0"]) == 1


@pytest.fixture(scope="module")
def solved_grid_config(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("solved")
    path = write_config(tmp_path)
    assert main(["solve", str(path)]) == 0
    return path


@pytest.mark.parametrize("args", [
    ["probe", "--from=-0.5,0", "--to=0.5,0", "--steps", "1"],
    ["probe", "--from", "0,0,0", "--to", "0.5,0"],
    ["compare-oracle", "--samples", "abc"],
    ["compare-oracle", "--samples", "50", "--seeds", "0"],
], ids=["probe-steps", "probe-dimension", "oracle-samples", "oracle-seeds"])
def test_bad_input_exit_one(solved_grid_config, capsys, args):
    assert main([args[0], str(solved_grid_config), *args[1:]]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["generate", "x", "--count", "abc"],
    ["solve"],
    ["bogus"],
], ids=["bad-int", "missing-config", "unknown-command"])
def test_usage_error_exit_one(capsys, argv):
    # exit code 2 means the solver did not converge, so argparse's 2 is not used
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert any(line.startswith("error:")
               for line in capsys.readouterr().err.splitlines())


class TestRenderCommand:
    def test_cluster_render_two_colors_and_chain(self, tmp_path):
        path = write_config(tmp_path,
                            domain={"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
                            target=CLUSTER_TARGET, theta=3.0)
        assert main(["solve", str(path)]) == 0
        assert main(["render", str(path)]) == 0
        svg = (tmp_path / "out" / "diagram.svg").read_text()
        fills = set(re.findall(r'<polygon[^>]*fill="(#[0-9a-f]{6})"', svg))
        assert len(fills) == 2  # one color per cluster
        assert "#d62728" in svg  # singular chain stroked

    def test_single_cell_render(self, tmp_path):
        path = write_config(tmp_path, target={"generator": "grid", "k": 1})
        main(["solve", str(path)])
        assert main(["render", str(path)]) == 0
        svg = (tmp_path / "out" / "diagram.svg").read_text()
        assert svg.count("<polygon") == 2  # one cell plus the domain outline

    def test_render_requires_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["render", str(path)]) == 1

    @pytest.mark.parametrize("name, mangle", [
        ("stats.json", lambda text: text[:100]),
        ("target.json", lambda text: json.dumps({**json.loads(text), "labels": [0, 1]})),
        ("stats.json", cut_cells),
    ], ids=["truncated-stats", "short-labels", "stats-of-fewer-cells"])
    def test_corrupt_artifact_exit_one(self, tmp_path, capsys, name, mangle):
        path = write_config(tmp_path, target=CLUSTER_TARGET)
        assert main(["solve", str(path)]) == 0
        capsys.readouterr()
        artifact = tmp_path / "out" / name
        artifact.write_text(mangle(artifact.read_text()))
        assert main(["render", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {artifact} ")
        assert "sdot solve" in err and "Traceback" not in err
        assert main(["probe", str(path), "--from=-0.5,0", "--to=0.5,0"]) == 1
        assert capsys.readouterr().err.startswith(f"error: corrupt artifact {artifact} ")

    def test_render_probe_marks_each_crossing(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        assert main(["render", str(path), "--probe=-0.9,0.1:0.9,0.1"]) == 0
        assert main(["probe", str(path), "--from=-0.9,0.1", "--to=0.9,0.1"]) == 0
        svg = (tmp_path / "out" / "diagram.svg").read_text()
        crossings = (tmp_path / "out" / "probe.csv").read_text().splitlines()[1:]
        assert len(crossings) == 2  # two column boundaries of the 3 x 3 grid
        assert svg.count('stroke-dasharray="6,4"') == 1
        assert svg.count('r="3.5"') == len(crossings)

    def test_scene_round_trip_from_json(self, tmp_path):
        path = write_config(tmp_path)
        main(["solve", str(path)])
        main(["render", str(path)])
        first = (tmp_path / "out" / "diagram.svg").read_bytes()
        # re-ingest the stats JSON and rebuild the scene by hand
        stats = PowerCellStats.from_json_dict(
            json.loads((tmp_path / "out" / "stats.json").read_text()))
        target = json.loads((tmp_path / "out" / "target.json").read_text())
        from sdot.singularity import default_theta, detect_singular_facets

        measure = sdot.validate_target(np.asarray(target["points"]),
                                       np.asarray(target["weights"]))
        graph = detect_singular_facets(stats, measure,
                                       default_theta(stats, measure))
        dom = sdot.box_domain([[-1.0, 1.0], [-1.0, 1.0]])
        scene = build_scene(dom.clip_polygon().vertices, stats, measure.points,
                            graph=graph)
        again = scene_to_svg(scene, size=640).encode()
        assert again == first


class TestCompareOracleCommand:
    def test_report_written(self, tmp_path):
        path = write_config(tmp_path)
        main(["solve", str(path)])
        assert main(["compare-oracle", str(path), "--samples", "50,200",
                     "--seeds", "3"]) == 0
        report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
        assert report["ladder"] == [50, 200]
        assert len(report["runs"]) == 6
        assert set(report["median_gaps"]) == {"50", "200"}


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            path = write_config(tmp_path, name=f"{name}.json",
                                target=CLUSTER_TARGET,
                                output_dir=str(outdir))
            assert main(["solve", str(path)]) == 0
            assert main(["render", str(path)]) == 0
            outs.append(outdir)
        for artifact in ("report.json", "heights.json", "stats.json",
                         "target.json", "diagram.svg"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, artifact
