import csv
import inspect
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from anchored import cli, verify
from anchored.cli import main
from anchored.diagnostics import (
    BOUNDS,
    PeagPotentialFold,
    bound_check,
    eag_varying_limit_lower_bound,
)
from anchored.errors import InputError
from anchored.figures import make_figure
from anchored.instances import (
    GENERATORS,
    desk_bilinear,
    desk_huber,
    desk_least_squares,
    gen_bilinear,
    gen_least_squares,
    gen_minimax_huber,
    gen_scalar_identity,
    start_point,
    unit_columns,
)
from anchored.operators import counted
from anchored.rng import SplitMix64
from anchored.schedules import SCHEDULES
from anchored.schemes import (
    COMPATIBLE_SCHEDULES,
    SCHEMES,
    RunTrace,
    run,
    solver_for,
)
from anchored.svgplot import svg_loglog
from anchored.traceio import (
    CSV_COLUMNS,
    format_column,
    read_trace_csv,
    write_trace_csv,
)


class TestGenerators:
    def test_least_squares_regeneration_is_bit_exact(self):
        a = gen_least_squares(20, 10, seed=7, noise_var=0.1)
        b = gen_least_squares(20, 10, seed=7, noise_var=0.1)
        assert np.array_equal(a.meta["P"], b.meta["P"])
        assert np.array_equal(a.meta["b"], b.meta["b"])

    def test_least_squares_solution_is_a_zero(self):
        inst = desk_least_squares()
        g = inst.operator(inst.solution)
        assert np.linalg.norm(g) <= 1e-8 * inst.operator.lipschitz * (
            1.0 + np.linalg.norm(inst.solution))

    def test_noise_free_square_system_solves_exactly(self):
        inst = gen_least_squares(12, 12, seed=3, noise_var=0.0)
        assert np.linalg.norm(inst.operator(inst.solution)) <= 1e-8

    def test_huber_origin_is_exact_zero(self):
        inst = gen_minimax_huber(12, 9, seed=5)
        assert np.all(inst.operator(np.zeros(21)) == 0.0)

    def test_huber_lipschitz_is_twice_coupling_norm(self):
        inst = gen_minimax_huber(12, 9, seed=5)
        assert inst.operator.lipschitz == pytest.approx(
            2.0 * inst.meta["k_norm"], rel=1e-12)

    def test_bilinear_solution_is_zero(self):
        inst = desk_bilinear()
        assert np.all(inst.operator(inst.solution) == 0.0)

    def test_start_points_are_deterministic(self):
        a = start_point(desk_least_squares())
        b = start_point(desk_least_squares())
        assert np.array_equal(a, b)
        assert start_point(gen_scalar_identity()).tolist() == [1.0]

    def test_unit_columns_divides_in_place(self):
        m = SplitMix64(3).normal_matrix(9, 5)
        copy = m.copy()
        assert unit_columns(m) is m
        assert m.tobytes() == (copy / np.linalg.norm(copy, axis=0)).tobytes()
        m[:, 2] = 0.0
        with pytest.raises(InputError):
            unit_columns(m)

    def test_rows_declare_the_keys_their_generators_read(self):
        for name, row in GENERATORS.items():
            params = inspect.signature(row.build).parameters
            assert set(params) == set(row.keys), name
            for key, default in row.keys.items():
                if params[key].default is not inspect.Parameter.empty:
                    assert params[key].default == default, (name, key)

    def test_rejects_bad_dims(self):
        with pytest.raises(InputError):
            gen_least_squares(0, 3, seed=1)


class TestTraceCsv:
    def test_round_trip_full_precision(self, tmp_path):
        inst = desk_least_squares()
        trace = run(solver_for(inst.operator, "halpern", "halpern_fast"),
                    start_point(inst), 25)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert list(loaded) == list(CSV_COLUMNS)
        assert np.array_equal(loaded["k"], trace.k)
        assert np.array_equal(loaded["norm_g_y"], trace.norm_g_y,
                              equal_nan=True)
        assert np.array_equal(loaded["norm_dy"], trace.norm_dy,
                              equal_nan=True)

    def test_past_extra_residual_column(self, tmp_path):
        # peag tracks no |G y_k|; its residual is |G z_k|, the last column
        inst = desk_huber()
        trace = run(solver_for(inst.operator, "peag", "peag"),
                    start_point(inst), 25)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert CSV_COLUMNS[-1] == "norm_g_z"
        assert np.all(np.isnan(loaded["norm_g_y"]))
        assert np.all(np.isfinite(loaded["norm_g_z"]))
        assert np.array_equal(loaded["norm_g_z"], trace.norm_g_z)

    @staticmethod
    def _per_cell_reference(trace, path):
        """The cell-by-cell writer the column-wise one replaced."""
        def fmt(x):
            if x is None or (isinstance(x, float) and math.isnan(x)):
                return ""
            return format(float(x), ".17g")

        lyap, bound = trace.lyapunov, trace.bound
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for i in range(len(trace)):
                writer.writerow([
                    int(trace.k[i]), fmt(trace.norm_g_y[i]),
                    fmt(trace.norm_g_x[i]), fmt(trace.norm_dx[i]),
                    fmt(trace.norm_yx[i]), fmt(trace.norm_dy[i]),
                    fmt(lyap[i]) if lyap is not None and i < len(lyap) else "",
                    fmt(bound[i]) if bound is not None and i < len(bound)
                    else "",
                    fmt(trace.norm_g_z[i])])

    def test_column_writer_matches_per_cell_writer(self, tmp_path):
        # short, absent and long lyapunov/bound columns; NaN, +-inf, -0.0
        # and subnormal cells
        n = 6
        cells = np.array([1.0, np.nan, np.inf, -np.inf, -0.0, 5e-324])
        trace = RunTrace(
            meta={}, k=np.arange(n), norm_g_y=cells, norm_g_x=np.full(n, np.nan),
            norm_g_z=cells[::-1].copy(), norm_dx=np.linspace(0.1, 1.0, n),
            norm_yx=1.0 / 3.0 ** np.arange(n), norm_dy=np.full(n, 1e300),
            lyapunov=np.array([2.0, np.nan, 0.1]),
            bound=np.array([np.inf, 1.0 / 7.0]))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_trace_csv(trace, new)
        self._per_cell_reference(trace, ref)
        assert new.read_bytes() == ref.read_bytes()
        for lyap, bound in ((None, None), (np.arange(n + 3.0), np.ones(n))):
            trace.lyapunov = lyap
            trace.bound = bound
            write_trace_csv(trace, new)
            self._per_cell_reference(trace, ref)
            assert new.read_bytes() == ref.read_bytes()

    def test_lf_line_endings_and_header(self, tmp_path):
        inst = gen_scalar_identity()
        trace = run(solver_for(inst.operator, "halpern", "halpern_fast"),
                    start_point(inst), 1)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n")[0].decode() == ",".join(CSV_COLUMNS)


class TestSvg:
    def test_wellformed_and_polyline_count(self, tmp_path):
        path = tmp_path / "p.svg"
        ks = np.arange(50)
        svg_loglog(path, [("a", ks, 1.0 / (ks + 1.0)),
                          ("b", ks, 2.0 / (ks + 1.0) ** 2)],
                   guide_slope=-1.0)
        root = ET.parse(path).getroot()
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 3  # two curves plus the guide

    def test_rejects_all_nonpositive_curve(self, tmp_path):
        with pytest.raises(ValueError):
            svg_loglog(tmp_path / "p.svg", [("a", [0, 1], [0.0, -1.0])])


class TestFigures:
    def test_exam_pipelines_write_outputs(self, tmp_path):
        for which, labels in (("exam1", ("nesterov_slow", "nesterov_omega")),
                              ("exam2", ("nag_eag", "nag_peag"))):
            csv_paths, svg_path, slopes = make_figure(which, "small",
                                                      str(tmp_path))
            assert all(os.path.exists(p) for p in csv_paths)
            root = ET.parse(svg_path).getroot()
            polys = [e for e in root.iter() if e.tag.endswith("polyline")]
            assert len(polys) == 3
            assert set(slopes) == set(labels)


class TestCli:
    def _scalar_config(self, tmp_path, iters=2):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nscheme = halpern\nschedule = halpern_fast\n"
            f"iters = {iters}\n\n[instance]\ngenerator = scalar_identity\n")
        return cfg

    def test_run_scalar_demo_residual_column(self, tmp_path, capsys):
        cfg = self._scalar_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        loaded = read_trace_csv(tmp_path / "trace.csv")
        assert loaded["norm_g_y"].tolist() == pytest.approx(
            [1.0, 0.0, 1.0 / 3.0], abs=1e-16)
        assert (tmp_path / "report.txt").exists()

    def test_run_zero_iterations_writes_single_row(self, tmp_path):
        cfg = self._scalar_config(tmp_path, iters=0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        loaded = read_trace_csv(tmp_path / "trace.csv")
        assert len(loaded["k"]) == 1

    def test_run_is_byte_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nscheme = nag_eag\nschedule = nag_eag\niters = 40\n\n"
            "[instance]\ngenerator = minimax_huber\nm = 20\nn = 15\nseed = 7\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_run_rejects_unknown_schedule(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nscheme = halpern\nschedule = bogus\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_run_missing_config_errors(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_run_divergent_scheme_exits_nonzero(self, tmp_path):
        # gamma = 50 is far above 2/L: the gradient step of the
        # corrected scheme is expansive and blows up
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nscheme = nesterov\nschedule = nesterov_omega\n"
            "iters = 500\n\n[schedule]\ngamma = 50\n\n"
            "[instance]\ngenerator = least_squares\nn = 30\np = 20\n"
            "seed = 7\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        report = (tmp_path / "report.txt").read_text()
        assert "error" in report
        loaded = read_trace_csv(tmp_path / "trace.csv")
        assert len(loaded["k"]) < 501

    def test_verify_equivalence_suite_passes(self, capsys):
        assert main(["verify", "--suite", "equivalence", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_peag_potential_streams_at_stride_zero(self, tmp_path,
                                                   monkeypatch):
        # 2K+2 evaluations: K steps, the warm-up at z_0 and G y_k at every
        # index for the potential; the column equals the potential of the
        # points of an untracked run, with G evaluated at each y_k after it
        K = 50
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[run]\nscheme = peag\nschedule = peag\niters = {K}\n\n"
            "[instance]\ngenerator = minimax_huber\nm = 40\nn = 40\n"
            "seed = 7\n\n[trace]\nlyapunov = on\n")
        build, counters = cli._build_instance, []

        def counted_instance(config, seed=None):
            inst = build(config, seed)
            op, counter = counted(inst.operator)
            counters.append(counter)
            return replace(inst, operator=op)

        monkeypatch.setattr(cli, "_build_instance", counted_instance)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert counters[0].count == 2 * K + 2

        inst = gen_minimax_huber(40, 40, seed=7)
        op = inst.operator
        points = []
        run(solver_for(op, "peag", "peag"), start_point(inst), K,
            observers=(points.append,))
        potential = PeagPotentialFold(op.lipschitz, 1.0, inst.solution)
        for point in points:
            potential(replace(point, g_x=op(point.y)))
        expected = list(format_column(potential.series()))
        with open(tmp_path / "trace.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["lyapunov_main"] for r in rows] == expected

    def test_pair_without_potential_is_noted(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nscheme = nesterov\nschedule = nesterov_slow\niters = 5\n"
            "\n[instance]\ngenerator = least_squares\nn = 20\np = 10\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "lyapunov: none, nesterov/nesterov_slow" in report
        loaded = read_trace_csv(tmp_path / "trace.csv")
        assert np.all(np.isnan(loaded["lyapunov_main"]))

    def test_equivalence_fails_on_a_diverged_pair(self):
        # the fast anchored rule on the merely monotone Huber operator
        # diverges in both forms; agreeing up to the blow-up is no pass
        row = next(r for r in verify.CHECKS if r.name
                   == "halpern<->two-corr nesterov [prox bilinear]")
        [result] = verify.run_checks([replace(row, instance="huber")])
        assert not result.ok and not result.skipped
        assert result.detail.startswith("run error: ")

    def test_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "halpern" in out and "nag_peag" in out

    def test_closed_pipe_exits_one_quietly(self, monkeypatch, capsys):
        # ``anchored list-schemes | head``: the reader has gone away
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["list-schemes"]) == 1
        assert capsys.readouterr().err == ""

    def test_figure_command(self, tmp_path, capsys):
        assert main(["figure", "--which", "exam2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "exam2.svg").exists()

    def test_figure_seed_zero_is_honoured(self, tmp_path):
        out0, out7 = tmp_path / "s0", tmp_path / "s7"
        for seed, out in (("0", out0), ("7", out7)):
            assert main(["figure", "--which", "exam2", "--seed", seed,
                         "--out", str(out)]) == 0
        names = sorted(p.name for p in out0.glob("*.csv"))
        assert names
        for name in names:
            assert (out0 / name).read_bytes() != (out7 / name).read_bytes()

    @pytest.mark.parametrize("section,key,value", [
        ("run", "iters", "abc"),
        ("instance", "n", "1.5"),
        ("instance", "noise_var", "lots"),
        ("instance", "seed", "x"),
        ("schedule", "gamma", "fast"),
        # a retired key: exits through the unknown-key rule
        ("trace", "snapshot_stride", "every"),
    ])
    def test_run_malformed_number_exits_two(self, tmp_path, capsys, section,
                                            key, value):
        cfg = {"run": {"scheme": "halpern", "schedule": "halpern_fast",
                       "iters": "2"},
               "instance": {"generator": "least_squares", "n": "20",
                            "p": "10"}}
        cfg.setdefault(section, {})[key] = value
        path = tmp_path / "cfg.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for name, items in cfg.items()))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err and value in err

    @pytest.mark.parametrize("section,key,value,schedule", [
        ("schedule", "gamma", "-1", "nesterov_omega"),
        ("schedule", "gamma", "0", "nesterov_omega"),
        ("schedule", "gamma", "nan", "nesterov_omega"),
        ("schedule", "gamma", "nan", "nesterov_fast"),
        # a retired key: exits through the unknown-key rule
        ("trace", "snapshot_stride", "-1", "nesterov_omega"),
        ("instance", "noise_var", "-1", "nesterov_omega"),
        ("instance", "noise_var", "nan", "nesterov_omega"),
    ])
    def test_run_out_of_range_number_exits_two(self, tmp_path, capsys,
                                               section, key, value, schedule):
        cfg = {"run": {"scheme": "nesterov", "schedule": schedule,
                       "iters": "3"},
               "instance": {"generator": "least_squares", "n": "20",
                            "p": "10"}}
        cfg.setdefault(section, {})[key] = value
        path = tmp_path / "cfg.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for name, items in cfg.items()))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("scheme,schedule,key,value", [
        # sqrt(1 + sigma) used to be taken before sigma was checked
        ("nag_peag", "nag_peag", "sigma", "-2"),
        # NaN passed every range check; inf sigma gave zero stepsizes
        ("halpern", "halpern_omega", "omega", "nan"),
        ("nesterov", "nesterov_omega", "omega", "nan"),
        ("nesterov", "nesterov_omega", "omega", "inf"),
        ("peag", "peag", "sigma", "nan"),
        ("peag", "peag", "sigma", "inf"),
        ("nag_peag", "nag_peag", "sigma", "inf"),
        ("eag", "eag_varying", "eta0", "nan"),
        ("comono_eag", "comono_eag", "rho", "nan"),
    ])
    def test_run_bad_schedule_constant_exits_two(self, tmp_path, capsys,
                                                 scheme, schedule, key,
                                                 value):
        # each generator gets only the keys it reads
        if scheme in ("halpern", "nesterov"):
            instance = "generator = least_squares\nn = 8\np = 6\n"
        else:
            generator = "bilinear" if "comono" in scheme else "minimax_huber"
            instance = f"generator = {generator}\nm = 12\nn = 8\n"
        out = tmp_path / "out"
        err = self._exits_two(
            tmp_path, capsys,
            f"[run]\nscheme = {scheme}\nschedule = {schedule}\niters = 5\n\n"
            f"[schedule]\n{key} = {value}\n\n[instance]\n{instance}", out)
        assert key in err and value in err
        assert not out.exists()

    def test_run_unread_schedule_key_exits_two(self, tmp_path, capsys):
        # nesterov_fast reads only gamma: the others used to be ignored
        out = tmp_path / "out"
        err = self._exits_two(
            tmp_path, capsys,
            "[run]\nscheme = nesterov\nschedule = nesterov_fast\n"
            "iters = 5\n\n[schedule]\nomega = 4\nsigma = 2\n\n"
            "[instance]\ngenerator = least_squares\nn = 20\np = 10\n",
            out)
        assert "nesterov_fast" in err and "omega" in err and "sigma" in err
        assert not out.exists()

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "anchored",
                               "list-schemes"], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("schemes:")

    def test_run_comono_without_rho_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nscheme = comono_eag\nschedule = comono_eag\niters = 5\n\n"
            "[instance]\ngenerator = bilinear\nm = 6\nn = 4\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "rho" in capsys.readouterr().err

    def _exits_two(self, tmp_path, capsys, text, out=None):
        """The config ``text`` exits 2 before a run: its one-line error."""
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        out = out or tmp_path
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "report.txt").exists()
        return err

    @pytest.mark.parametrize("text,names", [
        ("[run]\nscheme = halpern\n\n[tracing]\nlyapunov = on\n",
         ("[tracing]",)),
        ("[DEFAULT]\niters = 5\n\n[run]\nscheme = halpern\n",
         ("[DEFAULT]",)),
        ("[run]\nscheme = halpern\niter = 5\n", ("[run]", "iter")),
        ("[instance]\ngenerator = least_squares\nnoise = 0.1\n",
         ("[instance]", "noise")),
        ("[trace]\nsnapshot_stride = 1\n", ("[trace]", "snapshot_stride")),
        # mu is fixed by the omega rule; the key was never read by a run
        ("[run]\nscheme = nesterov\nschedule = nesterov_omega\n\n"
         "[schedule]\nmu = 0.25\n", ("[schedule]", "mu")),
    ])
    def test_unknown_section_or_key_exits_two(self, tmp_path, capsys, text,
                                              names):
        err = self._exits_two(tmp_path, capsys, text)
        assert "unknown config" in err
        assert all(name in err for name in names)

    @pytest.mark.parametrize("key", ["lyapunov", "track_x_residual"])
    def test_switch_must_be_on_or_off(self, tmp_path, capsys, key):
        err = self._exits_two(tmp_path, capsys,
                              f"[run]\niters = 2\n\n[trace]\n{key} = maybe\n")
        assert f"{key} = maybe" in err

    @pytest.mark.parametrize("value,tracked", [
        ("on", True), ("Yes", True), ("1", True), ("true", True),
        ("off", False), ("no", False), ("0", False), ("FALSE", False),
    ])
    def test_switch_spellings(self, tmp_path, value, tracked):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\nscheme = nesterov\nschedule = nesterov_slow\n"
            "iters = 3\n\n[instance]\ngenerator = least_squares\nn = 20\n"
            f"p = 10\n\n[trace]\ntrack_x_residual = {value}\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        loaded = read_trace_csv(tmp_path / "trace.csv")
        filled = not np.any(np.isnan(loaded["norm_g_x"]))
        assert filled == tracked

    @pytest.mark.parametrize("scheme,schedule,generator", [
        ("halpern", "halpern_fast", "minimax_huber"),
        ("halpern", "halpern_slow", "bilinear"),
        ("nesterov", "nesterov_omega", "minimax_huber"),
    ])
    def test_class_mismatch_exits_two(self, tmp_path, capsys, scheme,
                                      schedule, generator):
        # the anchored and corrected schemes need a co-coercive operator;
        # halpern_fast on minimax_huber used to diverge at step 218
        err = self._exits_two(
            tmp_path, capsys,
            f"[run]\nscheme = {scheme}\nschedule = {schedule}\n"
            "iters = 5000\n\n"
            f"[instance]\ngenerator = {generator}\nm = 40\nn = 30\n")
        assert scheme in err and generator in err and "co-coercive" in err

    def test_percent_in_a_value_is_literal(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[run]\niters = 3\n\n[output]\ndir = {tmp_path}/a%x\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "a%x" / "trace.csv").exists()

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        err = self._exits_two(tmp_path, capsys, "scheme = halpern\n")
        assert "malformed config" in err

    def _ls_config(self, tmp_path, run_seed=None, instance_seed=None):
        cfg = tmp_path / "cfg.ini"
        run_part = f"seed = {run_seed}\n" if run_seed is not None else ""
        inst_part = f"seed = {instance_seed}\n" \
            if instance_seed is not None else ""
        cfg.write_text(
            "[run]\nscheme = halpern\nschedule = halpern_fast\niters = 5\n"
            + run_part + "\n[instance]\ngenerator = least_squares\n"
            "n = 20\np = 10\n" + inst_part)
        return cfg

    def test_run_seed_key_sets_instance_seed(self, tmp_path):
        cfg = self._ls_config(tmp_path, run_seed=3)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "seed=3" in (tmp_path / "report.txt").read_text()

    def test_seed_flag_wins_over_run_seed(self, tmp_path):
        cfg = self._ls_config(tmp_path, run_seed=3)
        assert main(["run", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        assert "seed=5" in (tmp_path / "report.txt").read_text()

    def test_agreeing_seed_keys_accepted(self, tmp_path):
        cfg = self._ls_config(tmp_path, run_seed=4, instance_seed=4)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "seed=4" in (tmp_path / "report.txt").read_text()

    def test_conflicting_seed_keys_exit_two(self, tmp_path, capsys):
        cfg = self._ls_config(tmp_path, run_seed=3, instance_seed=4)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err

    def test_incompatible_schedule_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[run]\nscheme = halpern\nschedule = eag_constant\niters = 5\n\n"
            "[instance]\ngenerator = least_squares\nn = 20\np = 10\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "eag_constant" in err and "halpern" in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("generator,key,value", [
        ("least_squares", "m", "999"),
        ("scalar_identity", "n", "500"),
        ("scalar_identity", "noise_var", "-1"),
        ("scalar_identity", "seed", "3"),
        ("bilinear", "noise_var", "0.1"),
    ])
    def test_unread_instance_key_exits_two(self, tmp_path, capsys, generator,
                                           key, value):
        # each generator reads only the keys of its row; these used to be
        # ignored
        err = self._exits_two(
            tmp_path, capsys,
            f"[run]\nscheme = eag\nschedule = nag_eag\niters = 5\n\n"
            f"[instance]\ngenerator = {generator}\n{key} = {value}\n")
        assert generator in err and key in err

    @pytest.mark.parametrize("scheme,rho,generator", [
        ("comono_eag", "0.001", "minimax_huber"),
        ("nag_comono", "0.001", "bilinear"),
    ])
    def test_comono_rho_above_the_declared_modulus_exits_two(
            self, tmp_path, capsys, scheme, rho, generator):
        # both operators declare rho = 0 at most: monotone, not co-coercive
        err = self._exits_two(
            tmp_path, capsys,
            f"[run]\nscheme = {scheme}\nschedule = {scheme}\niters = 5\n\n"
            f"[schedule]\nrho = {rho}\n\n"
            f"[instance]\ngenerator = {generator}\nm = 20\nn = 15\n")
        assert scheme in err and generator in err and rho in err

    def test_comono_rho_within_a_cocoercive_modulus_runs(self, tmp_path):
        # a 1/L-co-coercive operator is rho-co-monotone up to rho = 1/L
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nscheme = comono_eag\nschedule = comono_eag\n"
                       "iters = 5\n\n[schedule]\nrho = 0.5\n\n"
                       "[instance]\ngenerator = scalar_identity\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestVaryingStepRate:
    def test_certified_limit_is_below_the_computed_stepsizes(self):
        from anchored.schedules import schedule_stream
        eta_star = eag_varying_limit_lower_bound(0.5, 1.0)
        assert eta_star == pytest.approx(0.38629, abs=1e-5)
        stream = schedule_stream("eag_varying", 1.0, eta0=0.5)
        etas = [next(stream).eta for _ in range(5000)]
        assert eta_star < min(etas)

    def test_limit_bound_rejects_large_eta0(self):
        with pytest.raises(InputError):
            eag_varying_limit_lower_bound(0.9, 1.0)

    def test_check_passes_and_fails_under_a_smaller_constant(self):
        hub = desk_huber()
        L, y0 = hub.operator.lipschitz, start_point(hub)
        d0 = float(np.linalg.norm(y0 - hub.solution))
        eta0 = 0.5 / L
        trace = run(solver_for(hub.operator, "eag", "eag_varying", eta0=eta0),
                    y0, 2000)
        case = verify.Case(hub.operator, y0, hub.solution, hub.meta, L, d0)
        ok, detail = verify._rate(case, trace)
        assert ok
        assert "worst_ratio=0.304" in detail
        # negative control: a bound four times too small must fail
        bad = bound_check(trace, "eag_varying", L, d0 / 2, eta0=eta0)
        assert not bad.ok


class TestBoundColumn:
    def test_cli_bound_is_bound_check_theory(self, tmp_path):
        # the CSV bound column and bound_check read one table; comono is
        # compared from k = 1 on, its k = 0 entry is inf
        ls = gen_least_squares(30, 12, seed=7, noise_var=0.1)
        hub = gen_minimax_huber(20, 15, seed=7)
        bil = gen_bilinear(15, 10, seed=7)
        bounded = {kind: row.bound for kind, row in SCHEDULES.items()
                   if row.bound is not None}
        for kind, bound in bounded.items():
            scheme = next(s for s, kinds in COMPATIBLE_SCHEDULES.items()
                          if kind in kinds)
            if kind.startswith(("halpern", "nesterov")):
                inst, kw, keys = ls, {}, "n = 30\np = 12\n"
            elif "comono" in kind:
                inst, kw = bil, {"rho": -1.0 / (4.0 * bil.operator.lipschitz)}
                keys = "m = 15\nn = 10\n"
            elif kind == "eag_varying":
                inst, kw = hub, {"eta0": 0.5 / hub.operator.lipschitz}
                keys = "m = 20\nn = 15\n"
            else:
                inst, kw, keys = hub, {}, "m = 20\nn = 15\n"
            cfg = tmp_path / "cfg.ini"
            cfg.write_text(
                f"[run]\nscheme = {scheme}\nschedule = {kind}\niters = 40\n"
                f"\n[instance]\ngenerator = {inst.meta['generator']}\n{keys}"
                "\n[schedule]\n"
                + "".join(f"{k} = {v:.17g}\n" for k, v in kw.items()))
            assert main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / kind)]) == 0
            csv_path = tmp_path / kind / "trace.csv"
            column = read_trace_csv(csv_path)["bound_value"]
            op, y0 = inst.operator, start_point(inst)
            trace = run(solver_for(op, scheme, kind, **kw), y0, 40)
            d0 = float(np.linalg.norm(y0 - inst.solution))
            report = bound_check(trace, bound, op.lipschitz, d0,
                                 rho=kw.get("rho"), sigma=1.0,
                                 eta=1.0 / (8.0 * op.lipschitz),
                                 eta0=kw.get("eta0"))
            first = 1 if bound == "comono" else 0
            assert np.array_equal(column[first:], report.theory), kind
        assert bounded["nag_comono"] == "comono"
        assert bounded["nag_peag"] == "peag_probe"
        assert bounded["eag_constant"] == "eag_constant"
        assert bounded["eag_varying"] == "eag_varying"

    @staticmethod
    def _unevaluated(schedules):
        """(kind, scheme) pairs whose bound reads a point the scheme skips."""
        return [(kind, scheme) for kind, row in schedules.items()
                if row.bound is not None
                for scheme, s in SCHEMES.items() if kind in s.schedules
                and BOUNDS[row.bound].column[-1] not in s.evaluates]

    def test_bounds_read_points_the_schemes_evaluate(self):
        # a bound on |G y_k| needs a scheme that evaluates G at y_k
        assert self._unevaluated(SCHEDULES) == []

    def test_bound_on_an_unevaluated_point_is_caught(self):
        # control: nag_peag evaluates G only at z, so eag's |G y_k| bound
        # would read an empty column
        wrong = dict(SCHEDULES,
                     nag_peag=SCHEDULES["nag_peag"]._replace(bound="eag"))
        assert self._unevaluated(wrong) == [("nag_peag", "nag_peag")]
