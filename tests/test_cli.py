import hashlib
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_liouville import cli, embeddable_interval, profile_from_metric
from ricci_liouville.cli import main
from ricci_liouville.fileio import write_atomic

from helpers import arc_length_resample, child_env, log_uniform, reference_sweep_csv


def run_cli(args):
    return main([str(a) for a in args])


def write_profile_csv(path, s, x, y, header="s,x,y"):
    rows = [header] + [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(s, x, y)]
    path.write_text("\r\n".join(rows) + "\r\n")


@pytest.fixture(scope="module")
def trumpet_csv(tmp_path_factory, ref_params):
    lo, hi = embeddable_interval(ref_params)
    prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), tol=1e-10, n=4001)
    s, x, y = arc_length_resample(prof.u, prof.x, prof.y, 4001)
    path = tmp_path_factory.mktemp("profiles") / "trumpet.csv"
    write_profile_csv(path, s, x, y)
    return path


@pytest.fixture(scope="module")
def sphere_csv(tmp_path_factory):
    s = np.linspace(0.3, math.pi - 0.3, 4001)
    path = tmp_path_factory.mktemp("profiles") / "sphere.csv"
    write_profile_csv(path, s, -np.cos(s), np.sin(s))
    return path


WATCHED_MODULES = ("numpy", "elliptic", "metric", "verify", "revolution", "pmc")


def modules_loaded_by(code):
    """Run ``code`` (which sets ``rc``) in a fresh interpreter.

    Returns rc and the set of WATCHED_MODULES it loaded, by short name:
    "numpy", or the ricci_liouville submodule name.
    """
    probe = code + (
        "import json, sys\n"
        f"names = {WATCHED_MODULES!r}\n"
        "full = {n: n if n == 'numpy' else 'ricci_liouville.' + n for n in names}\n"
        "print(json.dumps([rc, [n for n in names if full[n] in sys.modules]]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, env=child_env(), capture_output=True, text=True,
    ).stdout
    rc, loaded = json.loads(out.splitlines()[-1])
    return rc, set(loaded)


class TestDerive:
    def test_reference_constants(self, tmp_path, capsys):
        rc = run_cli(
            ["derive", "--b", 0.40824829, "--c1", 1, "--c2", -1.8333333,
             "--outdir", tmp_path]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k2"] == pytest.approx(1.0 / 13.0, abs=1e-6)
        assert payload["lambda_plus"] == pytest.approx(6.0, abs=1e-5)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "derive"
        assert manifest["parameters"]["c1"] == 1.0

    def test_invalid_c1_message_and_exit(self, tmp_path, capsys):
        rc = run_cli(["derive", "--c1", 0, "--c2", 1, "--outdir", tmp_path])
        assert rc == 2
        assert "c1 must be positive" in capsys.readouterr().err

    def test_unrepresentable_constants_exit_two(self, tmp_path, capsys):
        rc = run_cli(["derive", "--c1", 1, "--c2=-1e8", "--outdir", tmp_path])
        assert rc == 2
        assert "factorization" in capsys.readouterr().err

    def test_missing_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["derive", "--c1", 1, "--outdir", tmp_path])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "b, c1, c2, named",
        [("1e-200", "1", "0", "b = 1e-200"), ("1e-170", "1", "1", "b = 1e-170"),
         ("1e-160", "1e-10", "0", "discriminant")],
    )
    @pytest.mark.parametrize("command", ["derive", "verify", "mesh"])
    def test_underflowing_b_exits_two_without_outputs(
        self, tmp_path, capsys, command, b, c1, c2, named
    ):
        args = {"derive": ["derive"], "verify": VERIFY_ARGS, "mesh": MESH_ARGS + ["--format", "ply"]}
        argv = args[command] + ["--b", b, "--c1", c1, "--c2", c2, "--outdir", tmp_path / "out"]
        assert run_cli(argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_b(self, tmp_path, capsys):
        rc = run_cli(["derive", "--c1", 1, "--c2", -1.8333333333333333,
                      "--outdir", tmp_path])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b"] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-15)


VERIFY_ARGS = [
    "verify", "--b", 0.4082482904638631, "--c1", 1, "--c2", -1.8333333333333333,
    "--u-lo", -0.4, "--u-hi", 0.4, "--h", 0.02, "--levels", 2,
]


class TestVerify:
    def test_positive_verdict_and_outputs(self, tmp_path):
        rc = run_cli(VERIFY_ARGS + ["--outdir", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] is True
        assert summary["max_residual"] < 1e-3
        assert 1.8 <= summary["order"] <= 2.2
        csv_lines = (tmp_path / "residuals.csv").read_bytes().decode().strip().split("\r\n")
        assert csv_lines[0] == "u,v,lambda,K,residual"
        assert len(csv_lines) == 1 + 41 * 41

    def test_byte_identical_reruns(self, tmp_path):
        run_cli(VERIFY_ARGS + ["--outdir", tmp_path / "a"])
        run_cli(VERIFY_ARGS + ["--outdir", tmp_path / "b"])
        for name in ("residuals.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_h_must_divide_range(self, tmp_path, capsys):
        # the spacing is compared relative to h, so a range of 1e-9 is checked too
        for lo, hi, h in ((-0.4, 0.4, 0.03), (0.0, 1e-9, 1.3e-10)):
            rc = run_cli(
                ["verify", "--c1", 1, "--c2", -1.8333333333333333, "--u-lo", lo, "--u-hi", hi,
                 "--h", h, "--outdir", tmp_path / str(h)]
            )
            assert rc == 2
            assert f"h = {h} does not evenly divide the u range" in capsys.readouterr().err
            assert not (tmp_path / str(h)).exists()

    def test_grid_outside_domain_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(
            ["verify", "--c1", 1, "--c2", -1.8333333333333333,
             "--u-lo", -1.2, "--u-hi", 1.2, "--h", 0.1, "--outdir", tmp_path]
        )
        assert rc == 2

    # REF on [-0.4, 0.4] x [0, 0.12] at h = 0.02, refined twice
    PINNED_ARGS = [
        "verify", "--c1", 1, "--c2", -1.8333333333333333, "--u-lo", -0.4, "--u-hi", 0.4,
        "--v-lo", 0, "--v-hi", 0.12, "--h", 0.02, "--levels", 3,
    ]
    # sha256 of the outputs written when verify sampled each level through its own grid
    PINNED_SHA256 = {
        "residuals.csv": "5e9223e6e2a08b61d04aa79f0554b5d8870f83fc38b9400ca340bb2c8ed6c6a0",
        "summary.json": "b1549c64f41e98c37f790ba1742187e2d8570555a1f6189f755b0ac02841b24c",
    }

    def test_outputs_are_pinned(self, tmp_path):
        assert run_cli(self.PINNED_ARGS + ["--outdir", tmp_path]) == 0
        for name, digest in self.PINNED_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_nested_levels_evaluate_each_node_once(self, tmp_path, monkeypatch):
        # 41, 81 and 161 nodes along u: 41 + 40 + 80 evaluated
        from ricci_liouville import metric

        points = []

        def counted(u, k):
            points.append(np.size(u))
            return jacobi_sn_cn_dn(u, k)

        jacobi_sn_cn_dn = metric.jacobi_sn_cn_dn
        monkeypatch.setattr(metric, "jacobi_sn_cn_dn", counted)
        assert run_cli(self.PINNED_ARGS + ["--outdir", tmp_path]) == 0
        assert points == [41, 40, 80]

    def test_negative_verdict_exits_one_with_outputs(self, tmp_path):
        # wide grid near the domain boundary: residual above the floor
        rc = run_cli(
            ["verify", "--b", 1.0, "--c1", 4, "--c2", -2,
             "--u-lo", -0.5, "--u-hi", 0.5, "--h", 0.01, "--levels", 2,
             "--outdir", tmp_path]
        )
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] is False
        assert (tmp_path / "residuals.csv").exists()

    def test_curvature_breach_writes_a_violated_summary(self, tmp_path, capsys):
        # the grid ends 2e-9 short of the pole, where K rounds to -2 b^2: a
        # negative verdict, so exit 1 with summary.json and the manifest alone
        rc = run_cli(
            ["verify", "--c1", 1, "--c2", -1.8333333333333333, "--u-lo", 0.4886063864141169,
             "--u-hi", 1.0886063864141169, "--h", 0.1, "--levels", 2, "--outdir", tmp_path]
        )
        assert (rc, *capsys.readouterr()) == (1, "", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "summary.json"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {
            "max_residual": None, "order": None, "h": pytest.approx(0.1), "c1_fit": None,
            "c2_fit": None, "max_affine_residual": None, "verdict": False,
        }
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["summary.json"]
        assert manifest["summary"] == {"max_residual": None, "order": None, "verdict": False}


MESH_ARGS = [
    "mesh", "--b", 0.4082482904638631, "--c1", 1, "--c2", -1.8333333333333333,
    "--u-lo", -0.3, "--u-hi", 0.3, "--nu", 31,
    "--v-lo", 0, "--v-hi", 6.283185307179586, "--nv", 24,
]


def with_value(args, flag, value):
    """A copy of ``args`` with the value after ``flag`` replaced."""
    i = args.index(flag) + 1
    return args[:i] + [value] + args[i + 1:]


def refuse(what):
    """A stand-in for a function that a run must stop before calling."""
    def stand_in(*_, **__):
        raise AssertionError(f"{what} on a run with a bad flag")
    return stand_in


class TestMesh:
    def test_obj_output(self, tmp_path):
        rc = run_cli(MESH_ARGS + ["--format", "obj", "--outdir", tmp_path])
        assert rc == 0
        text = (tmp_path / "surface.obj").read_text()
        assert text.count("\nv ") + text.startswith("v ") == 31 * 24
        assert len([l for l in text.splitlines() if l.startswith("f ")]) == 2 * 30 * 24
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"]["closed"] is True

    def test_ply_output(self, tmp_path):
        rc = run_cli(MESH_ARGS + ["--format", "ply", "--outdir", tmp_path])
        assert rc == 0
        blob = (tmp_path / "surface.ply").read_bytes()
        assert blob.startswith(b"ply\nformat binary_little_endian 1.0\n")

    # REF over u in [-0.3, 0.3] at 31 x 24, on a closed and an open sweep
    PINNED_ARGS = [
        "mesh", "--c1", 1, "--c2", -1.8333333333333333, "--u-lo", -0.3, "--u-hi", 0.3,
        "--nu", 31, "--nv", 24,
    ]
    # sha256 of the files: the PLY bytes are those written while the mesh
    # stored its vertex and uv grids, the OBJ vn records the profile's normal
    PINNED_SHA256 = {
        ("0", "6.283185307179586", "ply"):
            "8d6144550aea8df06a2d476ffc66df0b1275f9759aaca95ea3585caa4ff8a9e3",
        ("0", "6.283185307179586", "obj"):
            "47be26ef8e361e189d164e7ff4efa52b29095a854436d47a5eb524689d4de8c4",
        ("0.5", "2.5", "ply"):
            "831d8625cee3ac1afc1a044073b70b31b6a90f658db43fe94b7e8d21013f3aa6",
        ("0.5", "2.5", "obj"):
            "2ce1e64032a0637cf433da4d5fe68823e98b5f0d722ed647060989964072c4a6",
    }

    @pytest.mark.parametrize("v_lo, v_hi, fmt", list(PINNED_SHA256),
                             ids=["closed-ply", "closed-obj", "open-ply", "open-obj"])
    def test_outputs_are_pinned(self, tmp_path, v_lo, v_hi, fmt):
        argv = self.PINNED_ARGS + ["--v-lo", v_lo, "--v-hi", v_hi, "--format", fmt]
        assert run_cli(argv + ["--outdir", tmp_path]) == 0
        blob = (tmp_path / f"surface.{fmt}").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_SHA256[v_lo, v_hi, fmt]

    def test_byte_identical_reruns(self, tmp_path):
        run_cli(MESH_ARGS + ["--format", "obj", "--outdir", tmp_path / "a"])
        run_cli(MESH_ARGS + ["--format", "obj", "--outdir", tmp_path / "b"])
        assert (tmp_path / "a" / "surface.obj").read_bytes() == (
            tmp_path / "b" / "surface.obj"
        ).read_bytes()

    def test_interval_beyond_embeddable_rejected(self, tmp_path):
        rc = run_cli(
            ["mesh", "--b", 0.4082482904638631, "--c1", 1,
             "--c2", -1.8333333333333333, "--u-lo", -0.6, "--u-hi", 0.6,
             "--nu", 11, "--v-lo", 0, "--v-hi", 3.14, "--nv", 8,
             "--format", "obj", "--outdir", tmp_path]
        )
        assert rc == 2

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path):
        rc = run_cli(MESH_ARGS + ["--format", "obj", "--nv", 2,
                                  "--outdir", tmp_path])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    def test_nonconvergence_exits_three(self, tmp_path, capsys):
        rc = run_cli(MESH_ARGS + ["--format", "obj", "--tol", 1e-30,
                                  "--outdir", tmp_path])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_unreachable_tolerance_fails_fast(self, tmp_path, capsys):
        # 1e-300 is below eps^2 of the profile's length: a usage error once
        # the first quadrature level fails, naming the flag
        start = time.perf_counter()
        rc = run_cli(
            ["mesh", "--c1", 1, "--c2", -1.8333333333333333, "--u-lo", -0.4, "--u-hi", 0.4,
             "--nu", 801, "--v-lo", 0, "--v-hi", 6.283185307179586, "--nv", 16,
             "--format", "ply", "--tol", 1e-300, "--outdir", tmp_path]
        )
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --tol 1e-300 is below eps^2 times the profile length bound 2.35254: "
            "no float64 quadrature can meet it\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(MESH_ARGS + ["--format", "stl", "--outdir", tmp_path])
        assert exc.value.code == 2
        assert "invalid choice: 'stl'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestClassify:
    def test_roundtrip_profile_in_family(self, trumpet_csv, tmp_path):
        rc = run_cli(
            ["classify", "--profile", trumpet_csv, "--resample-n", 51,
             "--outdir", tmp_path]
        )
        assert rc == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["verdict"] == "in family"
        assert 1.8 <= verdict["order"] <= 2.2
        assert verdict["c1_fit"] == pytest.approx(1.0, abs=1e-2)

    def test_sphere_rejected(self, sphere_csv, tmp_path):
        rc = run_cli(
            ["classify", "--profile", sphere_csv, "--resample-n", 51,
             "--outdir", tmp_path]
        )
        assert rc == 1
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["verdict"].startswith("rejected: K >= -2 b^2")

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage,nonsense\r\n")
        rc = run_cli(
            ["classify", "--profile", bad, "--resample-n", 51, "--outdir", tmp_path]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("s,x,y\r\n0,0,1\r\n1,a,1\r\n",
             "cannot parse profile CSV {path}: could not convert string to float: 'a'"),
            ("s,x,y\r\n", "profile CSV needs at least 4 samples"),
            ("s,x,y\r\n0,0,1\r\n1,1,1\r\n2,2,1\r\n", "profile CSV needs at least 4 samples"),
            ("s,x,y\r\n0,0,1\r\n1,1\r\n2,2,1\r\n3,3,1\r\n",
             "cannot parse profile CSV {path}: line 3 has 2 cells, the header has 3"),
            ("s,x,y\r\n0,0,1,9\r\n1,1,1,9\r\n2,2,1,9\r\n3,3,1,9\r\n",
             "cannot parse profile CSV {path}: line 2 has 4 cells, the header has 3"),
            ("", "cannot parse profile CSV {path}: the file is empty"),
        ],
        ids=["unparseable", "header-only", "three-rows", "ragged", "four-cells", "empty"],
    )
    def test_unreadable_profile(self, tmp_path, capsys, text, message):
        path = tmp_path / "profile.csv"
        path.write_text(text)
        out = tmp_path / "out"
        rc = run_cli(["classify", "--profile", path, "--resample-n", 51, "--outdir", out])
        assert (rc, *capsys.readouterr()) == (2, "", f"error: {message.format(path=path)}\n")
        assert not out.exists()

    def test_profile_spacing_square_must_be_normal(self, tmp_path, capsys):
        # 30 samples over s in [0, 1e-170]: the arc-length check would divide by
        # a subnormal step squared, so the run stops before np.gradient
        s = np.linspace(0.0, 1e-170, 30)
        path = tmp_path / "tiny.csv"
        write_profile_csv(path, s, s, np.ones_like(s))
        out = tmp_path / "out"
        rc = run_cli(["classify", "--profile", path, "--resample-n", 25, "--outdir", out])
        assert (rc, *capsys.readouterr()) == (
            2, "", "error: the arc-length check needs a spacing whose square is at least "
            f"{sys.float_info.min!r}, got spacing {float(np.diff(s).min())!r}\n",
        )
        assert not out.exists()

    def test_smallest_resample_n_runs(self, trumpet_csv, tmp_path):
        # 25 samples leave the 7 of the 1-d stencil at stride 4
        rc = run_cli(
            ["classify", "--profile", trumpet_csv, "--resample-n", 25, "--outdir", tmp_path]
        )
        assert rc == 0
        assert json.loads((tmp_path / "verdict.json").read_text())["verdict"] == "in family"

    def test_non_arc_length_rejected(self, ref_params, tmp_path, capsys):
        prof = profile_from_metric(ref_params, (-0.3, 0.3), n=201)
        path = tmp_path / "u_param.csv"
        write_profile_csv(path, prof.u, prof.x, prof.y)
        rc = run_cli(
            ["classify", "--profile", path, "--resample-n", 51, "--outdir", tmp_path]
        )
        assert rc == 2
        assert "arc-length" in capsys.readouterr().err

    def test_u_profile_header_rejected(self, ref_params, tmp_path, capsys):
        # classify reads only arc-length s,x,y
        lo, hi = embeddable_interval(ref_params)
        path = tmp_path / "u_profile.csv"
        prof = profile_from_metric(ref_params, (0.8 * lo, 0.8 * hi), n=401)
        write_profile_csv(path, prof.u, prof.x, prof.y, header="u,x,y")
        rc = run_cli(["classify", "--profile", path, "--resample-n", 51, "--outdir", tmp_path])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "") and list(tmp_path.iterdir()) == [path]
        assert err.startswith("error: profile CSV must have header s,x,y (arc length), got ['u'")
        assert err.endswith("a u-profile (u,x,y) must first be resampled by arc length\n")


class TestSweep:
    def test_small_sweep_rows(self, tmp_path):
        rc = run_cli(
            ["sweep", "--b-values", "1.0", "--c1-values", "1.0,4.0",
             "--c2-values", "0.0", "--u-lo", -0.5, "--u-hi", 0.5,
             "--h-levels", "0.02,0.01", "--outdir", tmp_path]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "c1,c2,b,residual,order,status"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[5] == "ok"
            assert 1.8 <= float(cells[4]) <= 2.2

    def test_empty_range_header_only(self, tmp_path):
        rc = run_cli(
            ["sweep", "--b-values", "", "--c1-values", "1.0",
             "--c2-values", "0.0", "--outdir", tmp_path]
        )
        assert rc == 0
        assert (tmp_path / "sweep.csv").read_bytes() == b"c1,c2,b,residual,order,status\r\n"

    def test_domain_violation_flagged_not_fatal(self, tmp_path):
        # b = 3 shrinks the domain below the grid half-width 0.5
        rc = run_cli(
            ["sweep", "--b-values", "3.0,1.0", "--c1-values", "4.0",
             "--c2-values", "0.0", "--u-lo", -0.5, "--u-hi", 0.5,
             "--h-levels", "0.02,0.01", "--outdir", tmp_path]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_bytes().decode().strip().split("\r\n")
        assert len(lines) == 3
        statuses = [l.split(",")[5] for l in lines[1:]]
        assert any(s.startswith('"domain') or s.startswith("domain") for s in statuses)
        assert any(s == "ok" for s in statuses)

    def test_underflowing_b_is_a_domain_row(self, tmp_path):
        rc = run_cli(
            ["sweep", "--b-values", "1e-200,0.5", "--c1-values", "1",
             "--c2-values", "0", "--outdir", tmp_path]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_bytes().decode().strip().split("\r\n")
        assert len(lines) == 3
        assert lines[1].startswith("1,0,9.9999999999999998e-201,,,domain: b = 1e-200 is too small")
        assert lines[2].startswith("1,0,0.5,") and lines[2].endswith(",ok")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"] == {"rows": 2, "ok": 1}


    def test_underflowing_residual_is_a_numerical_row(self, tmp_path):
        # at b = 0.001 every level's residual sits below RESIDUAL_UNDERFLOW
        rc = run_cli(
            ["sweep", "--b-values=0.001,0.5", "--c1-values=1", "--c2-values=0",
             "--outdir", tmp_path]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_bytes().decode().split("\r\n")
        assert lines[1] == (
            "1,0,0.001,,,numerical: fewer than 2 levels with residual above the "
            "underflow floor 1e-13"
        )
        assert lines[2].startswith("1,0,0.5,") and lines[2].endswith(",ok")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["summary"] == {"rows": 2, "ok": 1}

    @pytest.mark.parametrize("levels", ["0.01,0.01", "0.01", "0.3,0.35"])
    def test_h_levels_need_two_distinct_grids(self, tmp_path, capsys, levels):
        # 0.3 and 0.35 both round to a 4-point grid on [-0.5, 0.5]
        rc = run_cli(
            ["sweep", "--b-values", "1.0", "--c1-values", "1.0", "--c2-values", "0.0",
             f"--h-levels={levels}", "--outdir", tmp_path]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            "error: --h-levels needs at least two spacings that give distinct grids for "
            f"the order fit, got {levels!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "levels, value, nodes",
        [("0.5,0.25", "0.5", 3), ("0.3,0.1", "0.3", 4), ("2.0,0.5", "2.0", 1),
         ("0.1,0.3", "0.3", 4)],
        ids=["0.5,0.25", "0.3,0.1", "2.0,0.5", "0.1,0.3"],
    )
    def test_h_levels_need_five_nodes(self, tmp_path, capsys, monkeypatch, levels, value, nodes):
        # a level too coarse for the residual stencil is a usage error, found
        # before any row is evaluated
        monkeypatch.setattr("ricci_liouville.verify.refinement_rows", refuse("refinement_rows"))
        rc = run_cli(
            ["sweep", "--b-values", "1.0", "--c1-values", "1.0", "--c2-values", "0.0",
             f"--h-levels={levels}", "--outdir", tmp_path]
        )
        assert (rc, *capsys.readouterr()) == (
            2, "", f"error: --h-levels value {value} gives {nodes} nodes; "
            "the residual stencil needs at least 5\n",
        )
        assert list(tmp_path.iterdir()) == []


def sweep_csv(argv):
    """sweep.csv of one in-process sweep run that must exit 0."""
    with tempfile.TemporaryDirectory() as out:
        assert run_cli(argv + ["--outdir", out]) == 0
        return (Path(out) / "sweep.csv").read_bytes()


def sweep_argv(b_values, c1_values, c2_values, u_lo, u_hi, h_levels):
    return [
        "sweep", "--b-values=" + ",".join(map(repr, b_values)),
        "--c1-values=" + ",".join(map(repr, c1_values)),
        "--c2-values=" + ",".join(map(repr, c2_values)),
        f"--u-lo={u_lo!r}", f"--u-hi={u_hi!r}", "--h-levels=" + ",".join(map(repr, h_levels)),
    ]


# the row cases the per-triple oracle distinguishes: K >= -2 b^2 at some level,
# past the pole, failed derived constants, invalid parameters and underflow (a
# level too coarse for the stencil is a usage error, not a row)
ORACLE_SWEEPS = {
    "default": (cli._SWEEP_DEFAULT_B, cli._SWEEP_DEFAULT_C1, cli._SWEEP_DEFAULT_C2,
                -0.5, 0.5, cli._SWEEP_DEFAULT_H),
    "curvature": ((1.0, 0.9, 0.5), (1.0, 1e-6), (0.0, 1.0), -1.10243939, 1.10243939,
                  (0.1, 0.05, 0.025)),
    "near pole": ((0.05, 0.3, 1.0), (1e-4, 1.0, 1e4), (-50.0, 0.0, 50.0), -0.9, 0.9,
                  (0.1, 0.05, 0.025)),
    "invalid": ((3.0, 1.0, 1e-200, 0.5, 0.001), (4.0, -1.0, 1.0), (0.0, 5.0, -1e4), -0.5,
                0.5, (0.02, 0.01)),
}


def grid_sizes(u_lo, u_hi, h_levels):
    return [int(round((u_hi - u_lo) / h)) + 1 for h in h_levels]


class TestBatchedSweep:
    """The batched sweep against one refinement study per triple, byte for byte."""

    # sha256 of the default sweep.csv written one triple at a time
    DEFAULT_SHA256 = "32ed0b6d971a0545a72c3e6762caa6fd81523fe6f6a6bb84166f8e5459dab51e"

    def test_default_sweep_csv_is_pinned(self):
        csv = sweep_csv(["sweep"])
        assert hashlib.sha256(csv).hexdigest() == self.DEFAULT_SHA256

    def test_nested_levels_evaluate_each_node_once(self, monkeypatch):
        # the default levels 51, 101, 201 halve the spacing: 51 + 50 + 100 nodes per triple
        from ricci_liouville import metric

        points = []

        def counted(u, k):
            points.append(np.size(u))
            return jacobi_sn_cn_dn(u, k)

        jacobi_sn_cn_dn = metric.jacobi_sn_cn_dn
        monkeypatch.setattr(metric, "jacobi_sn_cn_dn", counted)
        sweep_csv(["sweep"])
        assert points == [27 * 51, 27 * 50, 27 * 100]

    @pytest.mark.parametrize("case", ORACLE_SWEEPS)
    def test_fixed_sweeps_match_the_oracle(self, case):
        b, c1, c2, u_lo, u_hi, h_levels = ORACLE_SWEEPS[case]
        want = reference_sweep_csv(b, c1, c2, u_lo, u_hi, grid_sizes(u_lo, u_hi, h_levels))
        assert sweep_csv(sweep_argv(b, c1, c2, u_lo, u_hi, h_levels)) == want

    def test_fixed_sweeps_cover_every_row_status(self):
        statuses = set()
        for b, c1, c2, u_lo, u_hi, h_levels in ORACLE_SWEEPS.values():
            csv = reference_sweep_csv(b, c1, c2, u_lo, u_hi, grid_sizes(u_lo, u_hi, h_levels))
            statuses |= {line.split(b",", 5)[5] for line in csv.split(b"\r\n")[1:-1]}
        for marker in (b"ok", b"K >= -2 b^2", b"not inside the metric domain",
                       b"factorization", b"c1 must be positive", b"b = 1e-200 is too small",
                       b"numerical: fewer than 2 levels"):
            assert any(marker in s for s in statuses), marker

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.lists(log_uniform(1e-3, 10.0), min_size=1, max_size=3),
        c1=st.lists(log_uniform(1e-4, 1e4), min_size=1, max_size=2),
        c2=st.lists(
            st.one_of(st.just(0.0), log_uniform(1e-4, 1e4), log_uniform(1e-4, 1e4).map(
                lambda x: -x)), min_size=1, max_size=2,
        ),
        u_lo=st.floats(0.05, 1.5).map(lambda x: -x),
        u_hi=st.floats(0.05, 1.5),
        sizes=st.lists(st.sampled_from([5, 6, 9, 17, 33]), min_size=2, max_size=3,
                       unique=True),
    )
    def test_batched_rows_match_the_oracle(self, b, c1, c2, u_lo, u_hi, sizes):
        h_levels = [(u_hi - u_lo) / (n - 1) for n in sizes]
        assert grid_sizes(u_lo, u_hi, h_levels) == sizes
        want = reference_sweep_csv(b, c1, c2, u_lo, u_hi, sizes)
        assert sweep_csv(sweep_argv(b, c1, c2, u_lo, u_hi, h_levels)) == want


class TestPmcCommand:
    def test_report_written(self, tmp_path, capsys):
        rc = run_cli(
            ["pmc", "--c1", 1, "--u-lo", -0.4, "--u-hi", 0.4, "--n", 401,
             "--outdir", tmp_path]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "pmc_report.json").read_text())
        assert payload["H_norm"] == pytest.approx(2.0 / math.sqrt(6.0), abs=1e-12)
        assert payload["K_min"] == pytest.approx(-13.0 / 36.0, abs=1e-10)
        assert payload["verdict"] == "hypotheses satisfied at sampled resolution"

    def test_curvature_breach_writes_a_violated_report(self, tmp_path, capsys):
        # the interval ends sit next to the poles, where K rounds to -2 b^2:
        # a negative verdict, so exit 1 with the report and the manifest
        u_max = 1.0886063884141168
        for i, u in enumerate([1.0886063864141169, (1.0 - 1e-6) * u_max]):
            outdir = tmp_path / str(i)
            rc = run_cli(
                ["pmc", "--c1", 1, "--u-lo", -u, "--u-hi", u, "--n", 101, "--outdir", outdir]
            )
            out, err = capsys.readouterr()
            report = (outdir / "pmc_report.json").read_text()
            assert (rc, out, err) == (1, report, "")
            payload = json.loads(report)
            assert payload["verdict"] == "hypotheses violated at sampled resolution"
            assert payload["ricci_max_residual"] is None
            manifest = json.loads((outdir / "manifest.json").read_text())
            assert manifest["outputs"] == ["pmc_report.json"]
            assert manifest["summary"] == {"verdict": payload["verdict"]}

    @pytest.mark.parametrize("u_hi", [1e-200, 1e-160], ids=["zero-square", "subnormal-square"])
    def test_spacing_too_fine_is_too_small_for_the_stencil(self, tmp_path, capsys, u_hi):
        # h * h below the smallest normal float: no residual is formed, so no
        # warning leaks, and the report says why
        rc = run_cli(["pmc", "--c1", 1, "--u-lo", 0, "--u-hi", u_hi, "--n", 5,
                      "--outdir", tmp_path])
        out, err = capsys.readouterr()
        report = (tmp_path / "pmc_report.json").read_text()
        assert (rc, out, err) == (1, report, "")
        payload = json.loads(report)
        assert payload["ricci_max_residual"] is None
        assert payload["verdict"] == (
            "curvature bound holds; interval too small for the residual stencil"
        )

    def test_branch_point_rejected(self, tmp_path, capsys):
        rc = run_cli(
            ["pmc", "--c1", 1.5, "--u-lo", -0.1, "--u-hi", 0.1, "--n", 11,
             "--outdir", tmp_path]
        )
        assert rc == 2


    @pytest.mark.parametrize(
        "interval, n, message",
        [
            ((-0.1, 0.1), 4, "--n must be at least 5 for the residual stencil, got 4"),
            ((-0.1, 0.1), 1, "--n must be at least 5 for the residual stencil, got 1"),
            ((0.1, 0.1), 11, "--u-lo must be below --u-hi, got 0.1 and 0.1"),
            ((0.2, 0.1), 11, "--u-lo must be below --u-hi, got 0.2 and 0.1"),
            (("nan", 0.1), 11, "--u-lo must be finite, got nan"),
        ],
    )
    def test_no_stencil_is_a_usage_error(self, tmp_path, capsys, interval, n, message):
        rc = run_cli(
            ["pmc", "--c1", 1, "--u-lo", interval[0], "--u-hi", interval[1], "--n", n,
             "--outdir", tmp_path]
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestImportGraph:
    def test_derive_loads_neither_scipy_nor_the_process_pool(self, tmp_path):
        code = (
            "import sys\n"
            "from ricci_liouville.cli import main\n"
            f"rc = main(['derive', '--c1', '1', '--c2', '0', '--outdir', {str(tmp_path)!r}])\n"
            "heavy = sorted(m for m in sys.modules if m == 'scipy'"
            " or m.startswith('scipy.') or m == 'concurrent.futures.process')\n"
            "print(rc, heavy)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, env=child_env(),
            capture_output=True, text=True,
        ).stdout
        assert out.splitlines()[-1] == "0 []"


    def test_no_subcommand_loads_scipy(self, trumpet_csv, tmp_path):
        outdir = tmp_path / "out"
        commands = [
            ["derive", "--c1", "1", "--c2", "0"],
            ["pmc", "--c1", "1", "--u-lo", "-0.4", "--u-hi", "0.4", "--n", "41"],
            [str(a) for a in VERIFY_ARGS],
            [str(a) for a in MESH_ARGS] + ["--format", "obj"],
            ["classify", "--profile", str(trumpet_csv), "--resample-n", "51"],
            ["sweep", "--b-values", "1.0", "--c1-values", "1.0,4.0", "--c2-values", "0.0",
             "--h-levels", "0.02,0.01"],
        ]
        code = (
            "import sys\n"
            "from ricci_liouville.cli import main\n"
            f"rcs = [main(a + ['--outdir', {str(outdir)!r} + '/' + a[0]]) for a in {commands!r}]\n"
            "heavy = sorted(m for m in sys.modules if m == 'scipy'"
            " or m.startswith('scipy.') or m == 'concurrent.futures.process')\n"
            "print(rcs, heavy)\n"
        )
        # a stale pool variable in the environment must start no process pool
        out = subprocess.run(
            [sys.executable, "-c", code], check=True,
            env=child_env(RICCI_LIOUVILLE_THREADS="2"),
            capture_output=True, text=True,
        ).stdout
        assert out.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["derive", "--c1", "1", "--c2", "0"], {"numpy"}),
            (["--help"], {"numpy"}),
            (["--version"], {"numpy"}),
            ([str(a) for a in VERIFY_ARGS], {"revolution", "pmc"}),
            (["sweep", "--b-values", "1.0", "--c1-values", "1.0", "--c2-values", "0.0",
              "--h-levels", "0.02,0.01"], {"revolution", "pmc"}),
            ([str(a) for a in MESH_ARGS] + ["--format", "obj"], {"verify", "pmc"}),
            (["pmc", "--c1", "1", "--u-lo", "-0.4", "--u-hi", "0.4", "--n", "41"],
             {"revolution"}),
            (["classify", "--resample-n", "51"], {"pmc"}),
        ],
        ids=["derive", "help", "version", "verify", "sweep", "mesh", "pmc", "classify"],
    )
    def test_subcommand_loads_only_what_it_runs(self, trumpet_csv, tmp_path, argv, absent):
        # each case starts a fresh interpreter, so earlier imports cannot hide a load
        if argv[0] == "classify":
            argv = argv + ["--profile", str(trumpet_csv)]
        if not argv[0].startswith("--"):
            argv = argv + ["--outdir", str(tmp_path)]
        rc, loaded = modules_loaded_by(
            "from ricci_liouville.cli import main\n"
            "try:\n"
            f"    rc = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
        )
        assert rc == 0
        assert not absent & loaded

    def test_bare_package_import_loads_no_submodule(self):
        _, loaded = modules_loaded_by("import ricci_liouville\nrc = 0\n")
        assert loaded == set()

    def test_dunder_probes_load_no_submodule(self):
        rc, loaded = modules_loaded_by(
            "import ricci_liouville as rl\n"
            "rc = [rl.__version__, rl.__file__ is not None, hasattr(rl, '__wrapped__')]\n"
        )
        assert rc == ["0.1.0", True, False]
        assert loaded == set()

    def test_all_loads_every_submodule_and_lists_each_name_once(self):
        rc, loaded = modules_loaded_by(
            "import ricci_liouville as rl\n"
            "rc = [len(rl.__all__), len(set(rl.__all__))]\n"
        )
        assert rc[0] == rc[1]
        assert loaded == set(WATCHED_MODULES)

    def test_mesh_reads_the_writer_at_call_time(self, tmp_path, monkeypatch):
        # bench/tracer.py wraps library functions by rebinding module attributes
        import ricci_liouville.revolution as revolution

        calls = []

        def fake_obj(mesh):
            calls.append(mesh)
            return "# replaced\n"

        monkeypatch.setattr(revolution, "mesh_to_obj", fake_obj)
        assert run_cli(MESH_ARGS + ["--format", "obj", "--outdir", tmp_path]) == 0
        assert len(calls) == 1
        assert (tmp_path / "surface.obj").read_text() == "# replaced\n"


SWEEP_ARGS = ["sweep", "--b-values", "1.0", "--c1-values", "1.0", "--c2-values", "0.0"]
PMC_ARGS = ["pmc", "--c1", 1, "--u-lo", -0.4, "--u-hi", 0.4, "--n", 41]


def every_command(profile):
    """argv (without --outdir) of one run per subcommand, by subcommand name."""
    return {
        "derive": ["derive", "--c1", 1, "--c2", 0],
        "verify": VERIFY_ARGS,
        "mesh": MESH_ARGS + ["--format", "obj"],
        "classify": ["classify", "--profile", profile, "--resample-n", 51],
        "sweep": SWEEP_ARGS,
        "pmc": PMC_ARGS,
    }


class TestManifest:
    def test_every_command_writes_manifest(self, tmp_path, capsys, trumpet_csv):
        b, c2 = 0.4082482904638631, -1.8333333333333333
        # every flag except --outdir, defaults resolved; then outputs and summary keys
        expected = {
            "derive": (
                {"b": cli.DEFAULT_B, "c1": 1.0, "c2": 0.0},
                [],
                {"b", "c1", "c2", "disc", "s", "k", "k2", "lambda_plus", "lambda_minus",
                 "u_max"},
            ),
            "verify": (
                {"b": b, "c1": 1.0, "c2": c2, "u_lo": -0.4, "u_hi": 0.4, "v_lo": -0.4,
                 "v_hi": 0.4, "h": 0.02, "levels": 2},
                ["residuals.csv", "summary.json"],
                {"max_residual", "order", "verdict"},
            ),
            "mesh": (
                {"b": b, "c1": 1.0, "c2": c2, "u_lo": -0.3, "u_hi": 0.3, "nu": 31,
                 "v_lo": 0.0, "v_hi": 6.283185307179586, "nv": 24, "format": "obj",
                 "tol": 1e-10},
                ["surface.obj"],
                {"vertices", "faces", "closed"},
            ),
            "classify": (
                {"b": cli.DEFAULT_B, "profile": str(trumpet_csv), "resample_n": 51},
                ["verdict.json"],
                {"verdict", "max_residual", "order", "h", "c1_fit", "c2_fit",
                 "max_affine_residual"},
            ),
            "sweep": (
                {"b_values": [1.0], "c1_values": [1.0], "c2_values": [0.0], "u_lo": -0.5,
                 "u_hi": 0.5, "h_levels": [0.02, 0.01, 0.005]},
                ["sweep.csv"],
                {"rows", "ok"},
            ),
            "pmc": (
                {"c1": 1.0, "u_lo": -0.4, "u_hi": 0.4, "n": 41},
                ["pmc_report.json"],
                {"verdict"},
            ),
        }
        for command, argv in every_command(trumpet_csv).items():
            outdir = tmp_path / command
            assert run_cli(argv + ["--outdir", outdir]) == 0, command
            manifest = json.loads((outdir / "manifest.json").read_text())
            assert set(manifest) == {
                "command", "parameters", "version", "timestamp", "outputs", "summary",
            }
            parameters, outputs, summary_keys = expected[command]
            assert manifest["command"] == command
            assert manifest["parameters"] == parameters, command
            assert manifest["outputs"] == outputs, command
            assert set(manifest["summary"]) == summary_keys, command
            assert sorted(p.name for p in outdir.iterdir()) == sorted(outputs + ["manifest.json"])

    @pytest.mark.parametrize(
        "command", ["derive", "verify", "mesh", "classify", "sweep", "pmc"]
    )
    def test_unwritable_outdir_exits_two(self, tmp_path, capsys, trumpet_csv, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = run_cli(every_command(trumpet_csv)[command] + ["--outdir", blocker / "out"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""  # derive and pmc print their result only once it is written
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [blocker]

    def test_source_date_epoch_makes_manifest_deterministic(self, tmp_path):
        env = child_env(SOURCE_DATE_EPOCH="1700000000")
        for sub in ("a", "b"):
            subprocess.run(
                [sys.executable, "-m", "ricci_liouville.cli", "derive",
                 "--c1", "1", "--c2", "0", "--outdir", str(tmp_path / sub)],
                check=True,
                env=env,
                stdout=subprocess.DEVNULL,
            )
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    @pytest.mark.parametrize("epoch", ["abc", "99999999999999999", "1e9"])
    @pytest.mark.parametrize("command", ["derive", "verify"])
    def test_bad_source_date_epoch_exits_two_before_any_output(
        self, tmp_path, capsys, monkeypatch, command, epoch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        args = {"derive": ["derive", "--c1", 1, "--c2", 0], "verify": VERIFY_ARGS}
        assert run_cli(args[command] + ["--outdir", tmp_path / "out"]) == 2
        assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_source_date_epoch_uses_the_clock(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "")
        assert run_cli(["derive", "--c1", 1, "--c2", 0, "--outdir", tmp_path]) == 0
        stamp = json.loads((tmp_path / "manifest.json").read_text())["timestamp"]
        assert not stamp.startswith("1970-")


class TestWriteAtomic:
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_data_is_written_as_binary(self, tmp_path, kind):
        data = b"ply\n\x00\xff\r\n"
        write_atomic(tmp_path / "out.bin", kind(data))
        assert (tmp_path / "out.bin").read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_text_keeps_its_line_endings(self, tmp_path):
        write_atomic(tmp_path / "out.csv", "a,b\r\n1,2\n")
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\r\n1,2\n"


class TestInputValidation:
    SWEEP = ["sweep", "--b-values", "1.0", "--c1-values", "1.0", "--c2-values", "0.0"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10", "-1"])
    def test_mesh_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, monkeypatch, tol):
        monkeypatch.setattr(
            "ricci_liouville.revolution.profile_from_metric", refuse("integrated the profile")
        )
        rc = run_cli(MESH_ARGS + ["--format", "obj", f"--tol={tol}", "--outdir", tmp_path])
        assert (rc, *capsys.readouterr()) == (
            2, "", f"error: --tol must be finite and positive, got {float(tol)!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("levels", ["nan,0.05", "0.02,inf", "0.02,0", "-0.01,0.02"])
    def test_sweep_h_levels_must_be_finite_and_positive(self, tmp_path, capsys, levels):
        rc = run_cli(self.SWEEP + [f"--h-levels={levels}", "--outdir", tmp_path])
        assert rc == 2
        assert "--h-levels must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_verify_h_must_be_finite(self, tmp_path, capsys):
        rc = run_cli(["verify", "--c1", 1, "--c2", 0, "--u-lo", -0.1, "--u-hi", 0.1,
                      "--h", "nan", "--outdir", tmp_path])
        assert rc == 2
        assert "--h must be finite and positive, got nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "column, token", [("x", "nan"), ("x", "inf"), ("s", "nan"), ("y", "nan")]
    )
    def test_classify_non_finite_sample(self, tmp_path, capsys, column, token):
        s = np.linspace(0.0, 1.0, 21)
        cols = {"s": s, "x": 0.8 * s, "y": 1.0 + 0.6 * s}
        cols[column][1] = float(token)
        path = tmp_path / "profile.csv"
        write_profile_csv(path, cols["s"], cols["x"], cols["y"])
        out = tmp_path / "out"
        rc = run_cli(["classify", "--profile", path, "--resample-n", 51, "--outdir", out])
        assert rc == 2
        assert f"profile column {column} is not finite at sample 1" in capsys.readouterr().err
        assert not out.exists()

    VERIFY = ["verify", "--c1", 1, "--c2", 0, "--h", 0.01]

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--u-lo", -0.1, "--u-hi", "inf"], "--u-hi must be finite, got inf"),
            (["--u-lo", "nan", "--u-hi", 0.1], "--u-lo must be finite, got nan"),
            (["--u-lo=-inf", "--u-hi", 0.1], "--u-lo must be finite, got -inf"),
            (["--u-lo", -0.1, "--u-hi", 0.1, "--v-hi", "inf"], "--v-hi must be finite, got inf"),
            (["--u-lo", -0.1, "--u-hi", 0.1, "--v-lo", "nan"], "--v-lo must be finite, got nan"),
            (["--u-lo=-1e308", "--u-hi", "1e308"], "the u range [-1e+308, 1e+308] is too wide"),
        ],
    )
    def test_verify_range_must_be_finite(self, tmp_path, capsys, bounds, message):
        rc = run_cli(self.VERIFY + bounds + ["--outdir", tmp_path])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--u-hi", "inf"], "--u-hi must be finite, got inf"),
            (["--u-lo", "nan"], "--u-lo must be finite, got nan"),
            (["--u-lo=-1e308", "--u-hi", "1e308"], "the u range [-1e+308, 1e+308] is too wide"),
            (["--h-levels", "1e-320"], "--h-levels value = 1e-320 is too small for the u range"),
        ],
    )
    def test_sweep_range_must_be_finite(self, tmp_path, capsys, bounds, message):
        rc = run_cli(self.SWEEP + bounds + ["--outdir", tmp_path])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_verify_h_too_small_for_range(self, tmp_path, capsys):
        rc = run_cli(["verify", "--c1", 1, "--c2", 0, "--u-lo", -0.1, "--u-hi", 0.1,
                      "--h", "1e-320", "--outdir", tmp_path])
        assert rc == 2
        assert "--h = 1e-320 is too small for the u range" in capsys.readouterr().err

    REF_VERIFY = ["verify", "--c1", 1, "--c2", -1.8333333333333333]

    def run_verify_usage_error(self, tmp_path, capsys, args):
        rc = run_cli(self.REF_VERIFY + args + ["--outdir", tmp_path])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        return err

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--u-lo", 0.4, "--u-hi", -0.4], "--u-lo must be below --u-hi, got 0.4 and -0.4"),
            (["--u-lo", 0.4, "--u-hi", 0.4], "--u-lo must be below --u-hi, got 0.4 and 0.4"),
            (["--u-lo", -0.4, "--u-hi", 0.4, "--v-lo", 0.4, "--v-hi", -0.4],
             "--v-lo must be below --v-hi, got 0.4 and -0.4"),
        ],
    )
    def test_verify_range_must_be_ordered(self, tmp_path, capsys, bounds, message):
        err = self.run_verify_usage_error(tmp_path, capsys, bounds + ["--h", 0.1])
        assert err == f"error: {message}\n"

    # each command with the flags of one range still to come
    RANGE_RUNS = {
        "verify-u": (REF_VERIFY + ["--h", 0.1], "u"),
        "verify-v": (REF_VERIFY + ["--h", 0.1, "--u-lo", -0.4, "--u-hi", 0.4], "v"),
        "mesh-u": (MESH_ARGS + ["--format", "ply"], "u"),
        "mesh-v": (MESH_ARGS + ["--format", "ply"], "v"),
        "sweep": (SWEEP, "u"),
        "pmc": (["pmc", "--c1", 1, "--n", 11], "u"),
    }

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((0.4, -0.4), "--{n}-lo must be below --{n}-hi, got 0.4 and -0.4"),
            ((0.4, 0.4), "--{n}-lo must be below --{n}-hi, got 0.4 and 0.4"),
            (("nan", 0.4), "--{n}-lo must be finite, got nan"),
            ((-0.4, "inf"), "--{n}-hi must be finite, got inf"),
            (("-1e308", "1e308"), "the {n} range [-1e+308, 1e+308] is too wide"),
        ],
        ids=["reversed", "equal", "nan", "inf", "overflow"],
    )
    @pytest.mark.parametrize("run", RANGE_RUNS)
    def test_one_range_rule(self, tmp_path, capsys, monkeypatch, run, bounds, message):
        args, n = self.RANGE_RUNS[run]
        monkeypatch.setattr(
            "ricci_liouville.revolution.profile_from_metric", refuse("integrated the profile")
        )
        rc = run_cli(args + [f"--{n}-lo={bounds[0]}", f"--{n}-hi={bounds[1]}",
                             "--outdir", tmp_path])
        assert (rc, *capsys.readouterr()) == (2, "", f"error: {message.format(n=n)}\n")
        assert list(tmp_path.iterdir()) == []

    # the stencil's spacing rule: h * h must be a normal float
    SPACING_RUNS = {
        "verify": (REF_VERIFY + ["--u-lo", 0, "--u-hi", 1e-200, "--h", 1e-201], "1e-201"),
        "sweep": (["sweep", "--u-lo", 0, "--u-hi", 1e-200, "--h-levels=2e-201,1e-201"], "2e-201"),
    }

    @pytest.mark.parametrize("run", SPACING_RUNS)
    def test_spacing_square_must_be_normal(self, tmp_path, capsys, run):
        args, spacing = self.SPACING_RUNS[run]
        rc = run_cli(args + ["--outdir", tmp_path])
        assert (rc, *capsys.readouterr()) == (
            2, "", "error: the residual stencil needs a spacing whose square is at least "
            f"{sys.float_info.min!r}, got spacing {spacing}\n",
        )
        assert list(tmp_path.iterdir()) == []

    def test_verify_needs_two_levels(self, tmp_path, capsys):
        err = self.run_verify_usage_error(
            tmp_path, capsys, ["--u-lo", -0.4, "--u-hi", 0.4, "--h", 0.1, "--levels", 1]
        )
        assert err == "error: --levels must be at least 2\n"

    def test_verify_cells_must_be_square(self, tmp_path, capsys):
        err = self.run_verify_usage_error(
            tmp_path, capsys,
            ["--u-lo", 0, "--u-hi", 0.4, "--v-lo", 0, "--v-hi", 0.4000000001, "--h", 0.04],
        )
        assert err == (
            "error: cells must be square: spacing 0.04 in u vs 0.040000000009999995 in v\n"
        )

    @pytest.mark.parametrize(
        "h, levels, counts",
        [(0.2, 2, "5 points along u and 5 along v"), (0.4, 3, "3 points along u and 3 along v")],
    )
    def test_verify_needs_enough_points(self, tmp_path, capsys, h, levels, counts):
        err = self.run_verify_usage_error(
            tmp_path, capsys, ["--u-lo", -0.4, "--u-hi", 0.4, "--h", h, "--levels", levels]
        )
        assert err == (
            f"error: --h {h!r} gives {counts}; verify needs at least 7 along u and 5 along v\n"
        )

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--h", 0.1, "--levels", 40],
             "--levels 40 with --h 0.1 asks for a finest column of 8 * 2^39 + 1 points"),
            (["--h", 0.1, "--levels", 10**9],
             f"--levels {10**9} with --h 0.1 asks for a finest column of 8 * 2^{10**9 - 1} + 1"),
            (["--h", 1e-4, "--levels", 2], "--h 0.0001 gives a CSV of 8001 x 8001 rows"),
        ],
    )
    def test_verify_point_budget(self, tmp_path, capsys, monkeypatch, args, message):
        # the budget is checked before anything is sampled
        def no_sampling(*_):
            raise AssertionError("sampled a grid over the point budget")

        monkeypatch.setattr("ricci_liouville.verify._factor_rows", no_sampling)
        err = self.run_verify_usage_error(
            tmp_path, capsys, ["--u-lo", -0.4, "--u-hi", 0.4] + args
        )
        assert err.startswith(f"error: {message}")
        assert err.endswith(f"over the budget of {cli.POINT_BUDGET}\n")

    @pytest.mark.parametrize("budget, rc", [(205, 0), (204, 2), (80, 2)])
    def test_verify_point_budget_is_inclusive(self, tmp_path, monkeypatch, budget, rc):
        # 41 x 5 CSV rows and a finest column of 81 points
        monkeypatch.setattr(cli, "POINT_BUDGET", budget)
        args = ["--u-lo", -0.4, "--u-hi", 0.4, "--v-lo", 0, "--v-hi", 0.08,
                "--h", 0.02, "--levels", 2, "--outdir", tmp_path]
        assert run_cli(self.REF_VERIFY + args) == rc

    @pytest.mark.parametrize(
        "args, message",
        [
            (["pmc", "--c1", 1, "--u-lo", -0.4, "--u-hi", 0.4, "--n", 10**12],
             f"--n {10**12} asks for {10**12} samples"),
            (with_value(MESH_ARGS, "--nu", 10**12) + ["--format", "ply"],
             f"--nu {10**12} asks for {10**12} profile samples"),
            (with_value(MESH_ARGS, "--nv", 10**12) + ["--format", "obj"],
             f"--nu 31 with --nv {10**12} asks for 31 x {10**12} mesh vertices"),
            (SWEEP + ["--h-levels=1e-12,2e-12"],
             "--h-levels value 1e-12 asks for a column of 1000000000001 points"),
        ],
    )
    def test_point_budget(self, tmp_path, capsys, args, message):
        # 10^12 samples cannot be allocated, so only the budget check can exit 2
        rc = run_cli(args + ["--outdir", tmp_path])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: {message}, over the budget of {cli.POINT_BUDGET}\n"
        assert list(tmp_path.iterdir()) == []

    def test_classify_point_budget(self, tmp_path, capsys, trumpet_csv):
        rc = run_cli(["classify", "--profile", trumpet_csv, "--resample-n", 10**12,
                      "--outdir", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --resample-n {10**12} asks for {10**12} samples, "
            f"over the budget of {cli.POINT_BUDGET}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "u_range, message",
        [
            (["--u-lo", "nan"], "--u-lo must be finite, got nan"),
            (["--u-hi", "inf"], "--u-hi must be finite, got inf"),
            (["--u-lo=-1e308", "--u-hi", "1e308"], "the u range [-1e+308, 1e+308] is too wide"),
        ],
    )
    def test_mesh_u_range_must_be_finite(self, tmp_path, capsys, u_range, message):
        rc = run_cli(MESH_ARGS + u_range + ["--format", "obj", "--outdir", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("b", ["0", "-1", "inf", "nan"])
    def test_classify_b_must_be_finite_and_positive(
        self, tmp_path, capsys, monkeypatch, trumpet_csv, b
    ):
        # checked before the profile is read
        monkeypatch.setattr(cli, "_read_profile_csv", refuse("read the profile"))
        out = tmp_path / "out"
        rc = run_cli(["classify", "--profile", trumpet_csv, "--resample-n", 51, f"--b={b}",
                      "--outdir", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: --b must be finite and positive, got {float(b)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", [7, 24])
    def test_classify_resample_n_is_checked_before_the_profile_is_read(
        self, tmp_path, capsys, monkeypatch, trumpet_csv, n
    ):
        monkeypatch.setattr(cli, "_read_profile_csv", refuse("read the profile"))
        rc = run_cli(["classify", "--profile", trumpet_csv, "--resample-n", n,
                      "--outdir", tmp_path])
        assert (rc, *capsys.readouterr()) == (
            2, "", f"error: --resample-n must be at least 25 for the order fit, got {n}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_sweep_value_list_must_parse(self, tmp_path, capsys):
        rc = run_cli(self.SWEEP + ["--b-values=a", "--outdir", tmp_path])
        assert (rc, *capsys.readouterr()) == (
            2, "", "error: cannot parse --b-values value list 'a'\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "v_range",
        [
            (["--v-hi", "inf"], "--v-hi must be finite, got inf"),
            (["--v-lo=-inf"], "--v-lo must be finite, got -inf"),
            (["--v-lo=-1e308", "--v-hi", "1e308"], "the v range [-1e+308, 1e+308] is too wide"),
        ],
    )
    def test_mesh_v_range_must_be_finite(self, tmp_path, capsys, v_range):
        bounds, message = v_range
        args = MESH_ARGS[:MESH_ARGS.index("--v-lo")] + ["--v-lo", 0, "--v-hi", 1, "--nv", 4]
        rc = run_cli(args + bounds + ["--format", "obj", "--outdir", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_mesh_v_range_is_checked_before_the_quadrature(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "ricci_liouville.revolution.profile_from_metric", refuse("integrated the profile")
        )
        args = MESH_ARGS[:MESH_ARGS.index("--v-lo")] + ["--v-lo", 0, "--v-hi", "nan", "--nv", 4]
        assert run_cli(args + ["--format", "obj", "--outdir", tmp_path]) == 2
        assert capsys.readouterr().err == "error: --v-hi must be finite, got nan\n"

    @pytest.mark.parametrize(
        "v_args, message",
        [
            (["--v-lo", 1, "--v-hi", 0, "--nv", 24], "--v-lo must be below --v-hi, got 1.0 and 0.0"),
            (["--v-lo", 1, "--v-hi", 1, "--nv", 24], "--v-lo must be below --v-hi, got 1.0 and 1.0"),
            (["--v-lo", 0, "--v-hi", 1, "--nv", 2], "--nv must be at least 3 mesh columns, got 2"),
        ],
        ids=["reversed", "empty", "two-columns"],
    )
    def test_mesh_columns_are_checked_before_the_quadrature(
        self, tmp_path, capsys, monkeypatch, v_args, message
    ):
        monkeypatch.setattr(
            "ricci_liouville.revolution.profile_from_metric", refuse("integrated the profile")
        )
        args = MESH_ARGS[:MESH_ARGS.index("--v-lo")] + v_args
        assert run_cli(args + ["--format", "ply", "--outdir", tmp_path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []
