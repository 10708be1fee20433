import json
import re

import numpy as np
import pytest

from sdot.cli import main
from sdot.config import ConfigError, load_config
from sdot.potential import PowerCellStats
from sdot.render import build_scene, scene_to_svg


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

    def test_scene_round_trip_from_json(self, tmp_path):
        path = write_config(tmp_path)
        main(["solve", str(path)])
        main(["render", str(path)])
        first = (tmp_path / "out" / "diagram.svg").read_bytes()
        # re-ingest the stats JSON and rebuild the scene by hand
        stats = PowerCellStats.from_json_dict(
            json.loads((tmp_path / "out" / "stats.json").read_text()))
        target = json.loads((tmp_path / "out" / "target.json").read_text())
        import sdot
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
