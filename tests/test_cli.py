import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairstats
from pairstats import cli, errors
from pairstats._fileio import float_list, parse_mapping, parse_matrix
from pairstats.cli import main
from pairstats.loop_detector import (
    format_response,
    parse_response,
    response_matrix,
    uniform_weights,
)
from pairstats.model import (
    EffectiveSource,
    format_distribution,
    joint_distribution,
    parse_distribution,
)
from pairstats.pipeline import ExperimentConfig, format_config
from pairstats.reconstruction import ClickHistogram, format_histogram, parse_histogram


def read_map(path):
    """Header and contamination matrix of a ``map --out`` file."""
    types = {"which": int, "M": float, "eta": float_list, "rate": float_list}
    return parse_matrix(path.read_text(), "map", types)


def write_cfg(path, **overrides):
    base = dict(
        source=EffectiveSource(N=0.3, eta=1.0, eta_prime=1.0, M=1.0),
        pulses=100_000,
        seed=11,
        calibration_pulses=100_000,
        calibration_N=1e-3,
        n_max=8,
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    path.write_text(format_config(cfg))
    return cfg


class TestModelCommand:
    def test_writes_expected_distribution(self, tmp_path, capsys):
        out = tmp_path / "rho.txt"
        code = main(
            [
                "model",
                "--N", "1", "--eta", "1", "--eta-prime", "1",
                "--M", "1", "--n-max", "8", "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "tail_mass=" in printed and "config:" in printed
        dist = parse_distribution(out.read_text())
        assert dist.probs[1, 1] == pytest.approx(0.25, abs=1e-14)

    def test_near_vacuum(self, tmp_path):
        out = tmp_path / "rho.txt"
        assert main(
            [
                "model",
                "--N", "1e-12", "--eta", "0.5", "--eta-prime", "0.5",
                "--M", "2", "--n-max", "4", "--out", str(out),
            ]
        ) == 0
        assert parse_distribution(out.read_text()).probs[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_invalid_eta_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "model",
                "--N", "1", "--eta", "1.5", "--eta-prime", "1",
                "--M", "1", "--n-max", "4", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 3
        assert "error: ValidationError" in capsys.readouterr().err

    def test_n_max_beyond_cap_exits_3(self, tmp_path, capsys):
        # refused before any allocation: 30000 would need a 6.7 GiB grid
        code = main(
            [
                "model",
                "--N", "1", "--eta", "1", "--eta-prime", "1",
                "--M", "1", "--n-max", "30000", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 3
        assert "error: ValidationError: n_max must lie in [0, 4096]" in capsys.readouterr().err

    def test_tail_bound_exits_4(self, tmp_path, capsys):
        code = main(
            [
                "model",
                "--N", "3", "--eta", "1", "--eta-prime", "1",
                "--M", "1", "--n-max", "3", "--tail-bound", "1e-9",
                "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 4
        assert "error: TruncationError" in capsys.readouterr().err


class TestMapCommand:
    def test_single_lossless_cell(self, tmp_path):
        out = tmp_path / "map.txt"
        assert main(
            [
                "map", "--which", "2", "--M", "1",
                "--eta-grid", "1.0", "--rate-grid", "0.01",
                "--out", str(out),
            ]
        ) == 0
        header, eps = read_map(out)
        assert header["eta"].tolist() == [1.0] and header["rate"].tolist() == [0.01]
        assert eps.shape == (1, 1)
        value = eps[0, 0]
        roots = np.roots([0.01, 2 * 0.01 - 1.0, 0.01])
        N = min(r.real for r in roots if r.real > 0)
        assert value == pytest.approx(N / (N + 1.0), rel=1e-6)

    def test_monotone_grid(self, tmp_path):
        out = tmp_path / "map.txt"
        assert main(
            [
                "map", "--which", "2", "--M", "1",
                "--eta-grid", "lin:0.4:1.0:3", "--rate-grid", "log:1e-5:1e-3:3",
                "--out", str(out),
            ]
        ) == 0
        _, eps = read_map(out)
        assert eps.shape == (3, 3)
        assert np.all(np.diff(eps, axis=0) <= 1e-12)
        assert np.all(np.diff(eps, axis=1) >= -1e-12)

    def test_low_rate_four_photon_cells(self, tmp_path):
        out = tmp_path / "map.txt"
        assert main(
            [
                "map", "--which", "4", "--M", "1",
                "--eta-grid", "0.5", "--rate-grid", "log:1e-14:1e-8:7",
                "--out", str(out),
            ]
        ) == 0
        _, eps = read_map(out)
        assert eps.shape == (1, 7)
        row = eps[0]
        assert np.all(np.isfinite(row)) and np.all(row > 0.0)

    def test_empty_grid_usage_error(self, tmp_path):
        self.test_bad_grid_usage_error(tmp_path, "")

    @pytest.mark.parametrize("spec", ["lin:1:2", "log:1e-5:1e-2:0", "1,x"])
    def test_bad_grid_usage_error(self, tmp_path, spec):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "map", "--which", "2", "--M", "1",
                    "--eta-grid", spec, "--rate-grid", "1e-4",
                    "--out", str(tmp_path / "m.txt"),
                ]
            )
        assert exc.value.code == 2

    def test_config_echo_one_line_per_option(self, tmp_path, capsys):
        assert main(
            [
                "map", "--which", "2", "--eta-grid", "0.5",
                "--rate-grid", "log:1e-5:1e-2:7", "--out", str(tmp_path / "m.txt"),
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        echo = lines[: next(i for i, ln in enumerate(lines) if ln.startswith("cells="))]
        assert echo and all(ln.startswith("config: ") for ln in echo)
        (rate,) = [ln for ln in echo if ln.startswith("config: rate_grid=")]
        assert np.array_equal(float_list(rate.split("=", 1)[1]), np.geomspace(1e-5, 1e-2, 7))


class TestSimulateReconstructChain:
    def test_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path)
        hist_path = tmp_path / "hist.txt"
        resp_dir = tmp_path / "resp"
        assert main(
            [
                "simulate", "--config", str(cfg_path), "--out", str(hist_path),
                "--responses-dir", str(resp_dir),
            ]
        ) == 0
        hist = parse_histogram(hist_path.read_text())
        assert int(hist.f.sum()) == 100_000

        rho_path = tmp_path / "rho.txt"
        report_path = tmp_path / "report.txt"
        assert main(
            [
                "reconstruct",
                "--hist", str(hist_path),
                "--resp-a", str(resp_dir / "response_a.txt"),
                "--resp-b", str(resp_dir / "response_b.txt"),
                "--n-max", "8",
                "--tol", "1e-12",
                "--rho-out", str(rho_path),
                "--report-out", str(report_path),
            ]
        ) == 0
        rho = parse_distribution(rho_path.read_text())
        assert rho.probs.sum() == pytest.approx(1.0, abs=1e-12)
        report = parse_mapping(report_path.read_text(), "report")
        assert list(report) == [
            "em_converged", "em_iterations", "em_log_likelihood", "em_ll_gap_bound", "em_edge_mass"
        ]

        # reconstruct prints the record that --report-out writes
        assert capsys.readouterr().out.endswith(report_path.read_text())

        # analyze accepts the rho the reconstructor wrote
        assert main(["analyze", "--rho", str(rho_path)]) == 0
        printed = capsys.readouterr().out
        assert "M_hat=" in printed and "eta_hat=" in printed

    def test_dimension_error_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path, n_max=2)
        hist_path = tmp_path / "hist.txt"
        resp_dir = tmp_path / "resp"
        main(
            [
                "simulate", "--config", str(cfg_path), "--out", str(hist_path),
                "--responses-dir", str(resp_dir),
            ]
        )
        code = main(
            [
                "reconstruct",
                "--hist", str(hist_path),
                "--resp-a", str(resp_dir / "response_a.txt"),
                "--resp-b", str(resp_dir / "response_b.txt"),
                "--n-max", "8",
                "--rho-out", str(tmp_path / "rho.txt"),
            ]
        )
        assert code == 3
        assert "error: ValidationError" in capsys.readouterr().err

    def test_unconverged_warns_but_exits_0(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path)
        hist_path = tmp_path / "hist.txt"
        resp_dir = tmp_path / "resp"
        main(
            [
                "simulate", "--config", str(cfg_path), "--out", str(hist_path),
                "--responses-dir", str(resp_dir),
            ]
        )
        code = main(
            [
                "reconstruct",
                "--hist", str(hist_path),
                "--resp-a", str(resp_dir / "response_a.txt"),
                "--resp-b", str(resp_dir / "response_b.txt"),
                "--n-max", "8",
                "--tol", "0",
                "--max-iter", "3",
                "--rho-out", str(tmp_path / "rho.txt"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: not converged" in captured.err
        lines = captured.out.splitlines()
        assert "em_converged=False" in lines and "em_iterations=3" in lines
        assert not any(ln.startswith("converged=") for ln in lines)


class TestPipelineCommand:
    def test_full_run_and_determinism(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path, pulses=50_000, calibration_pulses=1_000_000)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
        printed = capsys.readouterr().out
        assert "M_hat=" in printed
        names = {p.name for p in out1.iterdir()}
        assert names == {p.name for p in out2.iterdir()}
        for name in names - {"timings.txt"}:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unconverged_run_is_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path, pulses=50_000, calibration_pulses=1_000_000, em_max_iter=3)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "em_converged=False" in lines and "em_iterations=3" in lines
        assert not any(ln.startswith("converged=") for ln in lines)
        assert "warning: not converged after 3 iterations" in captured.err
        summary = (out / "summary.txt").read_text()
        assert "em_converged=False\n" in summary
        assert "em_iterations=3\n" in summary
        assert "em_ll_gap_bound=" in summary

    def test_prints_stage_timings(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path, pulses=50_000, calibration_pulses=1_000_000)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        stored = (out / "timings.txt").read_text().splitlines()
        end = lines.index(f"out_dir={out}")
        assert stored and lines[end - len(stored) : end] == stored
        assert lines[end - len(stored) - 1].startswith("eta_hat=")
        assert all(0.0 < float(ln.split("=", 1)[1]) < math.inf for ln in stored)

    def test_failed_stage_is_reported(self, tmp_path, capsys):
        # numpy cannot sample this source's pair numbers, so collection fails
        # while the low-intensity calibration completes
        cfg_path = tmp_path / "cfg.txt"
        src = EffectiveSource(N=1e17, eta=0.5, eta_prime=0.5, M=1000.0)
        out = tmp_path / "run"
        write_cfg(cfg_path, source=src, pulses=50_000, calibration_pulses=50_000)
        assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert "failed: collection: ValidationError: pair numbers" in captured.err
        printed = captured.out.splitlines()
        assert any(ln.startswith("calibration_pulses_per_s=") for ln in printed)
        assert not any(ln.startswith("collection_pulses_per_s=") for ln in printed)
        assert {p.name for p in out.iterdir()} == {
            "config.txt",
            "response_a.txt",
            "response_b.txt",
            "summary.txt",
            "timings.txt",
        }
        assert "failed_collection=ValidationError: " in (out / "summary.txt").read_text()

    def test_rho_file_feeds_analyze(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path, pulses=50_000, calibration_pulses=1_000_000)
        out = tmp_path / "run"
        main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["analyze", "--rho", str(out / "rho.txt")]) == 0


ERROR_KINDS = [
    kind
    for kind in vars(errors).values()
    if isinstance(kind, type) and issubclass(kind, errors.PairStatsError)
]
VALIDATION_KINDS = (errors.ValidationError, errors.ClassicalRegimeError, errors.PhysicalityError)


class TestExitCodes:
    def test_every_error_kind_listed(self):
        assert len(ERROR_KINDS) == 8 and errors.PairStatsError in ERROR_KINDS

    @pytest.mark.parametrize("kind", ERROR_KINDS, ids=lambda kind: kind.__name__)
    def test_error_kind_exit_code(self, monkeypatch, tmp_path, capsys, kind):
        exc = kind("boom", 0.5) if kind is errors.TruncationError else kind("boom")

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_analyze", fail)
        code = main(["analyze", "--rho", str(tmp_path / "rho.txt")])
        assert code == (3 if kind in VALIDATION_KINDS else 4)
        assert capsys.readouterr().err.splitlines() == [f"error: {kind.__name__}: boom"]

    @pytest.mark.parametrize(
        "args, code",
        [
            ([], 0),
            (["--bogus", "1"], 2),
            (["--eta", "2"], 3),
            (["--tail-bound", "1e-3"], 4),
        ],
        ids=["ok", "usage", "validation", "numerical"],
    )
    def test_module_entry_point(self, tmp_path, args, code):
        src = str(Path(pairstats.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        command = [
            sys.executable, "-m", "pairstats.cli", "model",
            "--N", "1", "--eta", "1", "--eta-prime", "1", "--n-max", "8",
            "--out", str(tmp_path / "rho.txt"), *args,
        ]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "option", [["--max-iter", "0"], ["--tol", "nan"]], ids=["max-iter-0", "tol-nan"]
    )
    def test_bad_em_argument_exits_3(self, tmp_path, capsys, option):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path, pulses=1_000)
        hist_path = tmp_path / "hist.txt"
        resp_dir = tmp_path / "resp"
        main(
            [
                "simulate", "--config", str(cfg_path), "--out", str(hist_path),
                "--responses-dir", str(resp_dir),
            ]
        )
        code = main(
            [
                "reconstruct",
                "--hist", str(hist_path),
                "--resp-a", str(resp_dir / "response_a.txt"),
                "--resp-b", str(resp_dir / "response_b.txt"),
                "--n-max", "8",
                "--rho-out", str(tmp_path / "rho.txt"),
                *option,
            ]
        )
        assert code == 3
        assert "error: ValidationError" in capsys.readouterr().err
        assert not (tmp_path / "rho.txt").exists()

    def test_response_files_parse_back(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        write_cfg(cfg_path)
        resp_dir = tmp_path / "resp"
        main(
            [
                "simulate", "--config", str(cfg_path),
                "--out", str(tmp_path / "h.txt"), "--responses-dir", str(resp_dir),
            ]
        )
        resp = parse_response((resp_dir / "response_a.txt").read_text())
        assert resp.B == 8


def write_inputs(tmp_path):
    """Valid rho, histogram, response and config files for one small source."""
    src = EffectiveSource(N=0.3, eta=0.5, eta_prime=0.5, M=1.0)
    f = np.array([[700, 60, 5], [50, 120, 15], [4, 16, 30]])
    texts = {
        "rho": format_distribution(joint_distribution(src, 4)),
        "hist": format_histogram(ClickHistogram(f=f, pulses=1_000)),
        "resp": format_response(response_matrix(uniform_weights(2), 4)),
        "config": format_config(ExperimentConfig(source=src, pulses=1_000)),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text)


def command(kind, tmp_path):
    out = str(tmp_path / "out.txt")
    if kind == "rho":
        return ["analyze", "--rho", str(tmp_path / "rho.txt"), "--out", out]
    if kind == "config":
        return ["simulate", "--config", str(tmp_path / "config.txt"), "--out", out]
    return [
        "reconstruct",
        "--hist", str(tmp_path / "hist.txt"),
        "--resp-a", str(tmp_path / "resp.txt"),
        "--resp-b", str(tmp_path / "resp.txt"),
        "--n-max", "4",
        "--rho-out", out,
    ]


def drop_first_header_key(text):
    if not text.startswith("#"):
        return text.split("\n", 1)[1]
    header, rest = text.split("\n", 1)
    return "# " + " ".join(header[2:].split()[1:]) + "\n" + rest


def bad_first_header_value(text):
    """Prefix the first key's value (n_max, pulses, B or N) with text no number has."""
    key = text.lstrip("# ").split("=", 1)[0]
    return text.replace(f"{key}=", f"{key}=1e6x", 1)


def non_numeric_entry(text):
    if not text.startswith("#"):
        return text.replace("weights_a=", "weights_a=abc,", 1)
    header, first, rest = text.split("\n", 2)
    return f"{header}\nabc,{first.split(',', 1)[1]}\n{rest}"


class TestMalformedInput:
    @pytest.mark.parametrize("kind", ["rho", "hist", "resp", "config"])
    @pytest.mark.parametrize(
        "edit", [drop_first_header_key, bad_first_header_value, non_numeric_entry]
    )
    def test_exits_3_with_one_line(self, tmp_path, capsys, kind, edit):
        write_inputs(tmp_path)
        assert main(command(kind, tmp_path)) == 0
        (tmp_path / "out.txt").unlink()
        capsys.readouterr()
        path = tmp_path / f"{kind}.txt"
        path.write_text(edit(path.read_text()))
        assert main(command(kind, tmp_path)) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValidationError: ")
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("count", ["inf", "1e300"])
    def test_unrepresentable_count_exits_3(self, tmp_path, capsys, count):
        write_inputs(tmp_path)
        path = tmp_path / "hist.txt"
        path.write_text(non_numeric_entry(path.read_text()).replace("abc", count))
        assert main(command("hist", tmp_path)) == 3
        err = capsys.readouterr().err
        assert "counts" in err and "histogram is empty" not in err

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        write_inputs(tmp_path)
        path = tmp_path / "config.txt"
        path.write_text(path.read_text() + "pulse=5\n")
        assert main(command("config", tmp_path)) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: ValidationError: config has unknown keys ['pulse']"]
        assert not (tmp_path / "out.txt").exists()

    def test_non_ascii_file_exits_3(self, tmp_path, capsys):
        write_inputs(tmp_path)
        (tmp_path / "rho.txt").write_bytes(b"# n_max=0 tail_mass=0\n1\xb5\n")
        assert main(command("rho", tmp_path)) == 3
        assert capsys.readouterr().err.startswith("error: UnicodeDecodeError: ")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--rho", str(tmp_path / "missing.txt")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: FileNotFoundError: ")
