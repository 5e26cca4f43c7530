import copy
import json
import re
import time
import types
from pathlib import Path

import numpy as np
import pytest

from nlhjb.cli import main, run
from nlhjb.config import ConfigError, parse_config


def constant_ergodic_config(kappa=1.0, outdir="out"):
    return {
        "mode": "ergodic",
        "problem": {"family": "constant_cost", "kappa": kappa, "s": 0.75},
        "grid": {"d": 1, "hx": 0.25, "radii": [4.0, 8.0]},
        "solver": {"tol": 1e-10},
        "alpha": {"start": 0.5, "factor": 0.5, "max_levels": 12, "tol": 1e-10},
        "output_dir": outdir,
    }


def custom_discounted_config(kernels, hx=0.5, radii=(2.0, 3.0)):
    """2-d custom discounted config, one control per kernel expression."""
    drifts = (["-x1", "-x2"], ["-2*x1", "-0.5*x2"], ["-x1", "-2*x2"])
    costs = ("exp(-r*r)", "0.5*exp(-x1*x1)", "0.3")
    return {
        "mode": "discounted",
        "problem": {
            "family": "custom", "s": 0.75, "lambda_ell": 0.9, "Lambda_ell": 1.1,
            "controls": [{"drift": drifts[i], "cost": costs[i], "kernel": k}
                         for i, k in enumerate(kernels)],
        },
        "grid": {"d": 2, "hx": hx, "radii": list(radii)},
        "solver": {"tol": 1e-11},
        "alpha": {"start": 0.5},
    }


def read_solution(outdir):
    rows = (outdir / "solution.csv").read_text().strip().splitlines()[1:]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def certify_config(drift_sign=-1.0, outdir="out"):
    return {
        "mode": "certify",
        "problem": {"family": "power_drift", "gamma": 1.6, "theta": 0.1,
                    "s": 0.9, "drift_sign": drift_sign},
        "grid": {"d": 1, "hx": 0.25, "radii": [32.0], "r_far_margin": 32.0},
        "output_dir": outdir,
    }


def zeroth_discounted_config():
    return {
        "mode": "discounted",
        "problem": {
            "family": "custom", "s": 0.75,
            "lambda_ell": 0.9, "Lambda_ell": 1.1,
            "controls": [
                {"drift": ["-x1"], "cost": "exp(-x1*x1)",
                 "zeroth": "-0.5 - 0.1*cos(x1)"},
                {"drift": ["-2*x1"], "cost": "0.5*exp(-x1*x1)",
                 "zeroth": "-0.5"},
            ],
        },
        "grid": {"d": 1, "hx": 0.25, "radii": [4.0]},
        "solver": {"tol": 1e-9},
    }


def with_problem(problem):
    cfg = constant_ergodic_config()
    cfg["problem"] = problem
    return cfg


FAMILY_BASES = {
    "power_drift": {"family": "power_drift", "gamma": 1.6, "theta": 0.1, "s": 0.9},
    "constant_cost": {"family": "constant_cost", "kappa": 1.0},
    "custom": {"family": "custom", "s": 0.75,
               "controls": [{"drift": ["-x1"], "cost": "1.0"}]},
}
# A value for every problem key; each family is given those it never reads.
PROBLEM_VALUES = {"gamma": 1.6, "theta": 0.1, "kappa": 1.0, "drift_sign": 1.0,
                  "local_identity": True, "lambda_ell": 0.5, "Lambda_ell": 2.0,
                  "controls": [{"drift": ["-x1"], "cost": "1.0"}]}
UNREAD_PROBLEM_KEYS = {
    "power_drift": ("kappa", "local_identity", "lambda_ell", "Lambda_ell", "controls"),
    "constant_cost": ("gamma", "theta", "drift_sign", "lambda_ell", "Lambda_ell",
                      "controls"),
    "custom": ("gamma", "theta", "kappa", "drift_sign", "local_identity"),
}
SECTION_VALUES = {"solver": {"tol": 1e-9, "max_policy_iters": 30},
                  "alpha": {"start": 0.25, "factor": 0.5, "max_levels": 4,
                            "values": [0.5, 0.25], "tol": 1e-6},
                  "grid": {"inner_radius": 1.0}}
MODE_BASES = {"certify": certify_config(),
              "discounted": dict(custom_discounted_config(["0.5"], radii=(2.0,)),
                                 alpha={})}
UNREAD_MODE_KEYS = {
    "certify": (("solver", "tol"), ("solver", "max_policy_iters"),
                ("alpha", "start"), ("alpha", "factor"), ("alpha", "max_levels"),
                ("alpha", "values"), ("alpha", "tol"), ("grid", "inner_radius")),
    "discounted": (("alpha", "factor"), ("alpha", "max_levels"),
                   ("alpha", "values"), ("alpha", "tol")),
}
VALUES_BASE = dict(constant_ergodic_config(), alpha={"values": [0.5, 0.25], "tol": 1e-10})
# (id, accepted base config, section (None: the root), key, value, key name in
# the error)
REJECTED = (
    [("grid.meshiness", constant_ergodic_config(), "grid", "meshiness", 3, "meshiness")]
    + [(f"{f}-{k}", with_problem(FAMILY_BASES[f]), "problem", k, PROBLEM_VALUES[k], k)
       for f, keys in UNREAD_PROBLEM_KEYS.items() for k in keys]
    + [(f"{m}-{sec}.{k}", MODE_BASES[m], sec, k, SECTION_VALUES[sec][k], f"{sec}.{k}")
       for m, keys in UNREAD_MODE_KEYS.items() for sec, k in keys]
    + [(f"alpha.values-with-{k}", VALUES_BASE, "alpha", k, SECTION_VALUES["alpha"][k],
        f"alpha.{k}") for k in ("start", "factor", "max_levels")]
    + [("local_identity-with-s",
        with_problem({"family": "constant_cost", "kappa": 1.0, "local_identity": True}),
        "problem", "s", 0.75, "problem.s"),
       ("zeroth-with-alpha.start", zeroth_discounted_config(), "alpha", "start", 0.5,
        "alpha.start")]
    + [(f"{m}-zeroth", dict(with_problem(FAMILY_BASES["custom"]), mode=m), "problem",
        "controls", [{"drift": ["-x1"], "cost": "1.0", "zeroth": "-0.5"}],
        "problem.controls[0].zeroth") for m in ("ergodic", "convergence-study")]
    + [(f"mistyped-{case}", base, section, key, value, key if name is None else name)
       for case, base, section, key, value, name in (
           ("controls", with_problem(FAMILY_BASES["custom"]), "problem", "controls", 3,
            None),
           ("controls-entry", with_problem(FAMILY_BASES["custom"]), "problem",
            "controls", [3], None),
           ("drift", with_problem(FAMILY_BASES["custom"]), "problem", "controls",
            [{"drift": "-x1", "cost": "1.0"}], "drift"),
           ("local_identity", with_problem(FAMILY_BASES["constant_cost"]), "problem",
            "local_identity", "no", None),
           ("hx", constant_ergodic_config(), "grid", "hx", "0.25", None),
           ("radii", constant_ergodic_config(), "grid", "radii", 8.0, None),
           ("radii-entry", constant_ergodic_config(), "grid", "radii", [4.0, "8.0"],
            None),
           ("d", constant_ergodic_config(), "grid", "d", True, None),
           ("tol", constant_ergodic_config(), "solver", "tol", False, None),
           ("max_policy_iters", constant_ergodic_config(), "solver",
            "max_policy_iters", 30.0, None),
           ("values", constant_ergodic_config(), "alpha", "values", [0.5, True], None),
           ("output_dir", constant_ergodic_config(), None, "output_dir", 3, None))])
# (id, accepted base config, section, key, a value of the right type that its
# dataclass rejects, the error message)
OUT_OF_RANGE = (
    ("grid.d", constant_ergodic_config(), "grid", "d", 3,
     "section 'grid': d must be 1 or 2, got 3"),
    ("grid.hx", constant_ergodic_config(), "grid", "hx", 0,
     "section 'grid': hx must be positive"),
    ("grid.inner_radius", constant_ergodic_config(), "grid", "inner_radius", -1,
     "section 'grid': inner_radius must be positive, got -1"),
    ("grid.r_far_margin", constant_ergodic_config(), "grid", "r_far_margin", 0.5,
     "section 'grid': r_far_margin must be at least 1, got 0.5"),
    ("solver.tol", constant_ergodic_config(), "solver", "tol", 0,
     "section 'solver': tol must be positive"),
    ("solver.max_policy_iters", constant_ergodic_config(), "solver",
     "max_policy_iters", 0, "section 'solver': max_policy_iters must be at least 1"),
    ("alpha.tol", constant_ergodic_config(), "alpha", "tol", 0,
     "section 'alpha': tol must be positive"),
    ("controls", with_problem(FAMILY_BASES["custom"]), "problem", "controls", [],
     "section 'problem' of family 'custom': controls must be a non-empty list"),
)


class TestParsing:
    def test_unknown_root_key(self):
        cfg = constant_ergodic_config()
        cfg["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            parse_config(cfg)

    @pytest.mark.parametrize("base,section,key,value,name",
                             [case[1:] for case in REJECTED],
                             ids=[case[0] for case in REJECTED])
    def test_unknown_section_key(self, tmp_path, capsys, base, section, key,
                                 value, name):
        parse_config(base)
        raw = copy.deepcopy(base)
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{name}'")):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([str(path), "--output-dir", str(tmp_path / "out")]) == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "ConfigError"
        assert f"'{name}'" in block["error"]["message"]

    @pytest.mark.parametrize("base,section,key,value,message",
                             [case[1:] for case in OUT_OF_RANGE],
                             ids=[case[0] for case in OUT_OF_RANGE])
    def test_out_of_range_value(self, tmp_path, capsys, base, section, key, value,
                                message):
        parse_config(base)
        raw = copy.deepcopy(base)
        raw[section][key] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([str(path), "--output-dir", str(tmp_path / "out")]) == 1
        block = json.loads(capsys.readouterr().out)
        assert block == {"error": {"kind": "ConfigError", "message": message}}

    def test_integer_for_number_and_null_for_optional_parse(self):
        raw = constant_ergodic_config()
        raw["grid"].update(hx=1, radii=[4, 8], reg_radius=None)
        cfg = parse_config(raw)
        assert cfg.grid.hx == 1 and cfg.grid.radii == (4, 8)
        assert cfg.grid.reg_radius is None

    def test_readme_configs_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) >= 2
        for block in blocks:
            parse_config(json.loads(block))

    def test_bad_mode(self):
        cfg = constant_ergodic_config()
        cfg["mode"] = "solve-everything"
        with pytest.raises(ConfigError, match="mode"):
            parse_config(cfg)

    def test_missing_required_section(self):
        cfg = constant_ergodic_config()
        del cfg["problem"]
        with pytest.raises(ConfigError, match="problem"):
            parse_config(cfg)

    def test_radii_must_increase(self):
        cfg = constant_ergodic_config()
        cfg["grid"]["radii"] = [8.0, 4.0]
        with pytest.raises(ConfigError, match="radii"):
            parse_config(cfg)

    def test_family_parameter_requirements(self):
        cfg = constant_ergodic_config()
        cfg["problem"] = {"family": "power_drift", "s": 0.9}
        with pytest.raises(ConfigError, match="power_drift"):
            parse_config(cfg)


class TestRuns:
    def test_constant_cost_ergodic_artifacts(self, tmp_path):
        cfg = parse_config(constant_ergodic_config(kappa=1.0))
        code = run(cfg, output_dir=str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lambda_star"] == pytest.approx(1.0, abs=1e-9)
        assert report["converged"] is True
        rows = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert rows[0] == "x1,u"
        u = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.max(np.abs(u)) <= 1e-9

    def test_report_is_byte_identical_across_runs(self, tmp_path):
        cfg = parse_config(constant_ergodic_config())
        run(cfg, output_dir=str(tmp_path / "a"))
        run(cfg, output_dir=str(tmp_path / "b"))
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb
        sa = (tmp_path / "a" / "solution.csv").read_bytes()
        sb = (tmp_path / "b" / "solution.csv").read_bytes()
        assert sa == sb

    def test_certify_power_drift(self, tmp_path):
        cfg = parse_config(certify_config())
        code = run(cfg, output_dir=str(tmp_path))
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["violations"] == []
        assert cert["k0"] > 0 and cert["k1"] > 0

    def test_certify_flipped_drift_fails_with_violations(self, tmp_path):
        cfg = parse_config(certify_config(drift_sign=+1.0))
        code = run(cfg, output_dir=str(tmp_path))
        assert code == 2
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["violations"]) > 0

    def test_discounted_mode(self, tmp_path):
        cfg = parse_config({
            "mode": "discounted",
            "problem": {"family": "power_drift", "gamma": 1.6, "theta": 0.1,
                        "s": 0.9},
            "grid": {"d": 1, "hx": 0.5, "radii": [8.0, 16.0]},
            "solver": {"tol": 1e-9},
            "alpha": {"start": 0.25},
        })
        code = run(cfg, output_dir=str(tmp_path))
        assert code in (0, 2)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mode"] == "discounted"
        assert report["residual_inf_norm"] <= 1e-9

    def test_discounted_mode_honours_domain_keys(self, tmp_path):
        from nlhjb import DomainConfig, expand_domain, power_drift_problem
        raw = {
            "mode": "discounted",
            "problem": {"family": "power_drift", "gamma": 1.6, "theta": 0.1,
                        "s": 0.9},
            "grid": {"d": 1, "hx": 0.5, "radii": [8.0, 16.0],
                     "reg_radius": 1.0, "inner_radius": 1.0},
            "solver": {"tol": 1e-9},
            "alpha": {"start": 0.25},
        }
        run(parse_config(raw), output_dir=str(tmp_path))
        rows = (tmp_path / "solution.csv").read_text().strip().splitlines()[1:]
        w = np.array([float(r.split(",")[1]) for r in rows])
        report = json.loads((tmp_path / "report.json").read_text())
        p = power_drift_problem(1.6, 0.1, 1, 0.9)
        domain = DomainConfig(d=1, hx=0.5, radii=(8.0, 16.0), reg_radius=1.0,
                              inner_radius=1.0)
        sol = expand_domain(p, 0.25, domain, 1e-9)
        assert np.array_equal(w, sol.w)
        assert [t["inner_change"] for t in report["radius_trace"]] == [
            None if np.isinf(c) else c for _, c in sol.diagnostics["radius_trace"]]
        default = expand_domain(p, 0.25, DomainConfig(d=1, hx=0.5, radii=(8.0, 16.0)),
                                1e-9)
        assert np.max(np.abs(default.w - sol.w)) > 1e-6

    def test_convergence_study_constant_cost_all_zero(self, tmp_path):
        cfg = parse_config({
            "mode": "convergence-study",
            "problem": {"family": "constant_cost", "kappa": 2.0, "s": 0.75},
            "grid": {"d": 1, "hx": 0.5, "radii": [4.0]},
            "solver": {"tol": 1e-10},
            "alpha": {"max_levels": 8, "tol": 1e-10},
        })
        code = run(cfg, output_dir=str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lambda_deltas"] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert report["window_sup_diffs"] == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_custom_family_with_expressions(self, tmp_path):
        cfg = parse_config(zeroth_discounted_config())
        code = run(cfg, output_dir=str(tmp_path))
        assert code == 0

    def test_run_meta_is_separate(self, tmp_path):
        cfg = parse_config(constant_ergodic_config())
        run(cfg, output_dir=str(tmp_path))
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert "wall_seconds" in meta
        report = json.loads((tmp_path / "report.json").read_text())
        assert "wall_seconds" not in report

    def test_wall_seconds_ignores_a_clock_step(self, tmp_path, monkeypatch):
        # A system clock stepped back an hour between the two readings.
        wall = iter([7200.0, 3600.0])
        clock = types.SimpleNamespace(time=lambda: next(wall),
                                      perf_counter=time.perf_counter)
        monkeypatch.setattr("nlhjb.cli.time", clock)
        run(parse_config(constant_ergodic_config()), output_dir=str(tmp_path))
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert 0.0 <= meta["wall_seconds"] < 600.0

    def test_discounted_linear_solver_counts_in_run_meta(self, tmp_path):
        cfg = parse_config(custom_discounted_config(["0.5", "0.46"]))
        assert run(cfg, output_dir=str(tmp_path)) == 0
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert meta["linear_solves"]["splu"] == 0
        assert meta["linear_solves"]["bicgstab"] >= 2
        assert meta["krylov_iterations"] > 0
        assert 0 < meta["near_factors"] <= meta["linear_solves"]["bicgstab"]
        assert "linear_solves" not in report
        assert "krylov_iterations" not in report

    def test_ergodic_x_only_kernels_never_build_csr(self, tmp_path, monkeypatch):
        import nlhjb

        def no_csr(self):
            raise AssertionError("op.csr() built on the ergodic sweep")

        monkeypatch.setattr(nlhjb.DiscreteOperator, "csr", no_csr)
        raw = custom_discounted_config(["0.5+0.04*cos(x1)*cos(x2)", "0.5-0.04*exp(-r*r)"],
                                       radii=(2.0, 4.0))
        raw["mode"] = "ergodic"
        raw["solver"] = {"tol": 1e-9}
        raw["alpha"] = {"start": 0.5, "factor": 0.5, "max_levels": 12, "tol": 1e-4}
        assert run(parse_config(raw), output_dir=str(tmp_path)) == 0
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert meta["linear_solves"]["splu"] == 0
        assert meta["linear_solves"]["bicgstab"] >= len(report["alpha_trace"]) + 1
        assert "linear_solves" not in report

    def test_x_y_kernels_solve_every_pair_by_krylov(self, tmp_path):
        # Kernels that read y keep explicit stencils; their bordered pairs
        # take the near-field-preconditioned BiCGStab of the FFT path, where
        # sparse LU solved all 24 of this run before.  The pinned lambda* is
        # that sparse-LU answer
        raw = custom_discounted_config(
            ["0.5+0.04*cos(x1*y1)*cos(x2)", "0.5-0.04*exp(-ry*ry)"], radii=(4.0, 8.0))
        raw["mode"] = "ergodic"
        raw["solver"] = {"tol": 1e-9}
        raw["alpha"] = {"start": 0.5, "factor": 0.5, "max_levels": 25, "tol": 1e-6}
        assert run(parse_config(raw), output_dir=str(tmp_path)) == 0
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert meta["linear_solves"]["splu"] == 0
        assert 0 < meta["near_factors"] < meta["linear_solves"]["bicgstab"]
        assert abs(report["lambda_star"] - 0.07658184835364559) <= 1e-9

    def test_readme_ergodic_config_solves_every_pair_by_krylov(self, tmp_path):
        # With the near-field LU preconditioner every 1-d bordered pair of the
        # README config meets the residual rule, down to the smallest alpha,
        # so the sweep never falls back to sparse LU.  Two BiCGStab solves per
        # pair (A^{-1} 1 and A^{-1} rhs) spent 1579 iterations on this sweep;
        # the one eliminated solve must spend at most half of that
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        raw = json.loads(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
        assert raw["mode"] == "ergodic" and raw["grid"]["d"] == 1
        assert run(parse_config(raw), output_dir=str(tmp_path)) == 0
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert meta["linear_solves"]["splu"] == 0
        assert meta["linear_solves"]["bicgstab"] >= len(report["alpha_trace"])
        assert 0 < meta["krylov_iterations"] <= 1579 // 2
        # alpha levels that come back to a policy reuse its near-field factor
        assert 0 < meta["near_factors"] < meta["linear_solves"]["bicgstab"]
        assert "krylov_iterations" not in report
        assert "near_factors" not in report
        assert abs(report["lambda_star"] - 0.2192472516863419) <= 10 * raw["solver"]["tol"]

    def test_ergodic_builds_one_quadrature_per_radius(self, tmp_path, monkeypatch):
        # the Lyapunov certificate reuses the final operator's quadrature
        import nlhjb.ergodic as erg
        build = erg.build_quadrature
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].R)
            return build(*args, **kwargs)

        monkeypatch.setattr(erg, "build_quadrature", counting)
        cfg = parse_config({
            "mode": "ergodic",
            "problem": {"family": "power_drift", "gamma": 1.6, "theta": 0.1, "s": 0.9},
            "grid": {"d": 1, "hx": 0.5, "radii": [4.0, 8.0, 16.0]},
            "solver": {"tol": 1e-9},
            "alpha": {"start": 0.5, "factor": 0.5, "max_levels": 12, "tol": 1e-4},
        })
        assert run(cfg, output_dir=str(tmp_path)) == 0
        assert sorted(calls) == [4.0, 8.0, 16.0]
        report = json.loads((tmp_path / "report.json").read_text())
        assert "lambda_alpha_bounded" in report["invariants"]

    def test_constant_kernel_expression_matches_csr_path(self, tmp_path):
        # "0.5" compiles to a y-free kernel (FFT jump part); "0.5+0*y1" reads
        # y1 and so keeps the assembled CSR stencils
        from nlhjb.expressions import compile_kernel_field
        fast_kernel = compile_kernel_field("0.5", 2)
        assert np.array_equal(fast_kernel.x_field(np.zeros((3, 2))), np.full(3, 0.5))
        assert not hasattr(compile_kernel_field("0.5+0*y1", 2), "x_field")
        for name, kernel in (("fast", "0.5"), ("csr", "0.5+0*y1")):
            cfg = parse_config(custom_discounted_config([kernel, kernel]))
            assert run(cfg, output_dir=str(tmp_path / name)) == 0
        fast, csr = read_solution(tmp_path / "fast"), read_solution(tmp_path / "csr")
        assert np.array_equal(fast[:, :2], csr[:, :2])
        assert np.max(np.abs(fast[:, 2] - csr[:, 2])) <= 1e-10 * max(
            1.0, np.max(np.abs(csr[:, 2])))


class TestMainEntry:
    def test_exit_one_names_unknown_key(self, tmp_path, capsys):
        cfg = constant_ergodic_config()
        cfg["solver"]["turbo"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        out = capsys.readouterr().out
        block = json.loads(out)
        assert "turbo" in block["error"]["message"]

    def test_custom_without_s_but_local_identity_exits_one(self, tmp_path, capsys):
        # custom problems have no local_identity; without s this config
        # used to end in a TypeError traceback
        raw = constant_ergodic_config()
        raw["problem"] = {"family": "custom", "local_identity": True,
                          "controls": [{"drift": ["-x1"], "cost": "1.0"}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([str(path), "--output-dir", str(tmp_path / "out")]) == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "ConfigError"
        assert "'local_identity'" in block["error"]["message"]

    def test_exit_one_on_family_constraint_violation(self, tmp_path, capsys):
        cfg = certify_config()
        cfg["problem"]["theta"] = 0.2  # above (2s-gamma)(2s-1) = 0.16
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        block = json.loads(capsys.readouterr().out)
        assert "theta" in block["error"]["message"]

    def test_exit_one_on_failed_linear_solve(self, tmp_path, capsys, monkeypatch):
        # BiCGStab's NaN (info=0) must fail the Krylov residual rule, and the
        # LU fallback's NaN must then reach Howard
        import scipy.sparse.linalg as spla
        monkeypatch.setattr(spla, "spsolve",
                            lambda A, b, *a, **kw: np.full(np.shape(b), np.nan))
        monkeypatch.setattr(spla, "bicgstab",
                            lambda A, b, *a, **kw: (np.full(np.shape(b), np.nan), 0))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(constant_ergodic_config()))
        code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "ValueError"
        assert "non-finite" in block["error"]["message"]

    def test_exit_one_when_stencils_exceed_the_cap(self, tmp_path, capsys):
        # x-y kernel: assembly needs the explicit stencils, which the N*M
        # cap refuses at this size
        cfg = custom_discounted_config(["0.5+0.04*cos(x1*y1)"],
                                       hx=0.1, radii=(8.0,))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "MemoryError"

    @pytest.mark.parametrize("kernel", ["0.5+0.1*sqrt(x1)", "0.5+0.1*sqrt(x1*y1)"])
    def test_exit_one_on_non_finite_kernel(self, tmp_path, capsys, kernel):
        # x-only kernel (FFT path) and x-y kernel (CSR path): NaN at x1 < 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(custom_discounted_config(["0.5", kernel])))
        with np.errstate(invalid="ignore"):
            code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "MonotonicityError"
        assert re.search(r"(non-finite|nan).* tau1 at node \(-", block["error"]["message"])

    @pytest.mark.parametrize("kernel", ["-0.5", "-0.5+0*x1"])
    def test_exit_one_on_monotonicity_violation(self, tmp_path, capsys, kernel):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(custom_discounted_config([kernel])))
        code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "MonotonicityError"

    @pytest.mark.parametrize("kernel, band, witness", [
        # x-only kernel (FFT path), farthest outside at the first node x1 = -2
        ("0.5+0.1*x1*x1", (0.9, 1.1), r"x=\(-2\.0, 0\.0\)"),
        # kernel that reads y (CSR path), in band on the axes and the tail
        # probes, outside only at off-axis offsets; the witness names y too
        ("0.5+0.1*sin(y1*y2)", (0.9, 1.1), r"x=\(.*\), y=\("),
        # an in-band kernel under a narrower class: lambda_ell has an effect
        ("0.5", (1.05, 1.1), r"x=\("),
    ])
    def test_exit_one_outside_ellipticity_band(self, tmp_path, capsys, kernel,
                                               band, witness):
        cfg = custom_discounted_config(["0.5", kernel])
        cfg["problem"]["lambda_ell"], cfg["problem"]["Lambda_ell"] = band
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "ValueError"
        message = block["error"]["message"]
        assert "control tau" in message and "(2-2s)λ, (2-2s)Λ" in message
        assert re.search(witness, message)

    @pytest.mark.parametrize("kernel", ["0.5+0.01*sin(y1)", "0.5+0.01*sin(-y1)"])
    def test_exit_one_on_asymmetric_kernel(self, tmp_path, capsys, kernel):
        # a kernel and its mirror k(x, -y) would give the same stencils
        cfg = {
            "mode": "discounted",
            "problem": {"family": "custom", "s": 0.75, "lambda_ell": 0.9,
                        "Lambda_ell": 1.1,
                        "controls": [{"drift": ["-x1"], "cost": "exp(-x1*x1)",
                                      "kernel": kernel}]},
            "grid": {"d": 1, "hx": 0.25, "radii": [2.0, 3.0]},
            "solver": {"tol": 1e-9},
            "alpha": {"start": 0.5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        block = json.loads(capsys.readouterr().out)
        assert block["error"]["kind"] == "ValueError"
        assert re.search(r"control tau0 is not symmetric in y.* x=\(.*\), y=\(",
                         block["error"]["message"])

    def test_failed_near_field_factor_falls_back_without_traceback(
            self, tmp_path, capsys, monkeypatch):
        import scipy.sparse.linalg as spla

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular)
        raw = custom_discounted_config(["0.5+0.04*cos(x1)*cos(x2)", "0.5-0.04*exp(-r*r)"])
        raw["mode"] = "ergodic"
        raw["solver"] = {"tol": 1e-9}
        raw["alpha"] = {"start": 0.5, "factor": 0.5, "max_levels": 12, "tol": 1e-4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([str(path), "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == ""
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        assert meta["linear_solves"]["bicgstab"] == 0
        assert meta["linear_solves"]["splu"] > 0

    def test_happy_path_verbose(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(constant_ergodic_config()))
        code = main([str(path), "--output-dir", str(tmp_path / "out"), "-v"])
        assert code == 0
        assert "lambda_star" in capsys.readouterr().out


class TestExpressions:
    def test_rejects_dunder_and_calls(self):
        from nlhjb.expressions import compile_scalar_field
        with pytest.raises(ValueError):
            compile_scalar_field("__import__('os')", 1)
        with pytest.raises(ValueError):
            compile_scalar_field("x1.real", 1)
        with pytest.raises(ValueError):
            compile_scalar_field("unknown_fn(x1)", 1)

    def test_vectorised_evaluation(self):
        from nlhjb.expressions import compile_scalar_field
        f = compile_scalar_field("sin(x1) + 2*r**2", 2)
        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        want = np.sin(x[:, 0]) + 2 * np.sum(x**2, axis=1)
        np.testing.assert_allclose(f(x), want)


class TestMoreRuns:
    def test_explicit_alpha_values(self, tmp_path):
        cfg = constant_ergodic_config()
        cfg["alpha"] = {"values": [0.5, 0.25, 0.125], "tol": 1e-10}
        code = run(parse_config(cfg), output_dir=str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [lv["alpha"] for lv in report["alpha_trace"]] == [0.5, 0.25]

    def test_ergodic_exit_two_when_schedule_exhausted(self, tmp_path):
        cfg = {
            "mode": "ergodic",
            "problem": {"family": "power_drift", "gamma": 1.6, "theta": 0.1,
                        "s": 0.9},
            "grid": {"d": 1, "hx": 0.5, "radii": [4.0, 8.0]},
            "solver": {"tol": 1e-9},
            "alpha": {"max_levels": 2, "tol": 1e-12},
        }
        code = run(parse_config(cfg), output_dir=str(tmp_path))
        assert code == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is False

    def test_custom_kernel_expression(self, tmp_path):
        cfg = parse_config({
            "mode": "discounted",
            "problem": {
                "family": "custom", "s": 0.75,
                "lambda_ell": 0.7, "Lambda_ell": 1.3,
                "controls": [
                    {"drift": ["-x1"], "cost": "1.0", "zeroth": "-0.4",
                     "kernel": "0.5*(1.0 + 0.2*cos(ry))"},
                ],
            },
            "grid": {"d": 1, "hx": 0.25, "radii": [4.0]},
            "solver": {"tol": 1e-9},
        })
        assert run(cfg, output_dir=str(tmp_path)) == 0

    def test_convergence_study_power_drift_records_deltas(self, tmp_path):
        # deltas are recorded, not asserted to decrease (no rate claims)
        cfg = parse_config({
            "mode": "convergence-study",
            "problem": {"family": "power_drift", "gamma": 1.6, "theta": 0.1,
                        "s": 0.9},
            "grid": {"d": 1, "hx": 0.5, "radii": [4.0, 8.0]},
            "solver": {"tol": 1e-7},
            "alpha": {"max_levels": 18, "tol": 1e-4},
        })
        code = run(cfg, output_dir=str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["lambda_star"]) == 3
        assert len(report["lambda_deltas"]) == 2
        assert len(report["window_sup_diffs"]) == 2
        assert all(d >= 0 for d in report["lambda_deltas"])
