import csv
import dataclasses
import functools
import glob
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import moninc.cli as cli
import moninc.harness as harness
import moninc.problems as problems
import moninc.solvers as solvers
import moninc.theory as theory
from moninc.core import NumericFailure
from moninc.harness import (ConfigError, ExperimentConfig, compare,
                            confidence_interval, load_config, run_experiment)
from moninc.oracle import BatchSchedule, batch_size
from moninc.merit import GapRegion
from moninc.policy import PolicyViolation, alpha_at
from capture import run_with_points

SYNTHETIC_PROBLEM = ("kind = synthetic\ndim = 8\nmu = 1.0\nskew = 1.0\n"
                     "sigma = 0.2\nseed = 3")
SCALED_PROBLEM = ("kind = synthetic\ndim = 20\nmu = 1.0\nskew = 1.0\n"
                  "sigma = 0.5\nseed = 5")

BASE_INI = """\
[problem]
kind = synthetic
dim = 8
mu = 1.0
skew = 1.0
sigma = 0.2
seed = 3

[solver]
method = risfbf
regime = strongly_monotone
alpha = 0.1
batch_kind = constant
batch_m = 2
max_iters = 40

[output]
replications = 3
stride = 5

[meta]
seed = 9
label = demo
"""

# a merely monotone problem (L = 1) whose monotone_gap window lam < 1/(2L)
# the step 100 breaks: no replication of it can run
BAD_LAM_INI = BASE_INI.replace("mu = 1.0", "mu = 0.0").replace(
    "regime = strongly_monotone\nalpha = 0.1",
    "regime = monotone_gap\nalpha = 0.1\nlam = 100").replace(
    "label = demo", "label = bad")
BAD_LAM_MESSAGE = "lam = 100 not in (0, 1/(2L)) = (0, 0.5)"
BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                             "configs")
EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "experiments")


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _load(tmp_path, text=BASE_INI, name="exp.ini", **overrides):
    overrides.setdefault("out_dir", str(tmp_path / "out"))
    return load_config(_write(tmp_path, text, name), overrides)


class TestLoadConfig:
    def test_parse_and_coerce(self, tmp_path):
        cfg = _load(tmp_path)
        assert cfg.problem == {"kind": "synthetic", "dim": 8, "mu": 1.0,
                               "skew": 1.0, "sigma": 0.2, "seed": 3}
        assert isinstance(cfg.problem["dim"], int)
        assert isinstance(cfg.problem["mu"], float)
        assert cfg.method == "risfbf"
        assert cfg.solver["max_iters"] == 40
        assert cfg.stride == 5 and cfg.replications == 3
        assert cfg.seed == 9 and cfg.label == "demo"

    def test_label_defaults_to_file_name(self, tmp_path):
        text = BASE_INI.replace("label = demo\n", "")
        cfg = _load(tmp_path, text, name="cournot_sweep.ini")
        assert cfg.label == "cournot_sweep"

    @pytest.mark.parametrize("mutate", [
        lambda t: t + "\n[extra]\nx = 1\n",
        lambda t: t.replace("[solver]", "[solver]\nwarp_speed = 9"),
        lambda t: t.replace("kind = synthetic", "kind = quadratic"),
        lambda t: t.replace("method = risfbf", "method = sgd"),
        lambda t: t.replace("method = risfbf\n", ""),
        lambda t: t.replace("mu = 1.0", "mu = abc"),
        lambda t: t.replace("max_iters = 40\n",
                            "max_iters = 40\nrecord_energy = maybe\n"),
        lambda t: t.replace("max_iters = 40\n", ""),
        lambda t: t.replace("replications = 3", "replications = 0"),
        lambda t: t.replace("[output]", "[output]\nconfidence = 1.5"),
        lambda t: t.replace("batch_kind = constant\nbatch_m = 2",
                            "batch_kind = warp"),
        lambda t: t.replace(SYNTHETIC_PROBLEM, "kind = cournot\nseed = 3"),
        lambda t: t.replace("batch_m = 2", "batch_m = 0"),
        lambda t: t.replace("regime = strongly_monotone\n", ""),
        lambda t: t.replace("regime = strongly_monotone", "regime = custum"),
        lambda t: t.replace("alpha = 0.1", "alpha = 1.5"),
        lambda t: t.replace("alpha = 0.1", "alpha = 0.1\nalpha_mode = rising"),
        lambda t: t.replace(  # H_k reads the policy's constant a
            "method = risfbf\nregime = strongly_monotone\nalpha = 0.1",
            "method = sfbf\nrecord_energy = true"),
    ])
    def test_rejects_malformed_configs(self, tmp_path, mutate):
        with pytest.raises(ConfigError):
            cfg = _load(tmp_path, mutate(BASE_INI))
            cfg.build_batches()      # schedule errors surface on build

    def test_benchmark_configs_pass_every_load_check(self, tmp_path,
                                                      monkeypatch):
        # a rule that rejects a perfbench or experiments/ config fails here
        # first; each is checked on its own problem, loaded as written
        found = [sorted(glob.glob(os.path.abspath(os.path.join(d, "*.ini"))))
                 for d in (BENCH_CONFIGS, EXPERIMENTS)]
        assert all(found)
        monkeypatch.chdir(tmp_path)  # where each out_dir would be made
        for path in sum(found, []):
            cfg = load_config(path)
            problem = cfg.build_problem()
            solvers.check(problem, cfg.method, cfg.build_solver_config())
            if "lam" in cfg.solver:  # every file steps at 1/(4L)
                assert cfg.solver["lam"] == 1.0 / (4.0 * problem.lipschitz)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bench, experiment", [
        ("sa", "c7_sa"), ("sfbf", "c7a_sfbf"), ("risfbf", "c7b_risfbf")])
    def test_benchmark_cournot_configs_state_criterion_7(self, bench,
                                                         experiment):
        # perfbench keeps its own copy of criterion 7; it must not drift
        ours = load_config(os.path.join(BENCH_CONFIGS, f"cournot_{bench}.ini"))
        theirs = load_config(os.path.join(EXPERIMENTS, f"{experiment}.ini"))
        assert (ours.problem, ours.solver) == (theirs.problem, theirs.solver)

    def test_policy_keys_without_regime_are_named(self, tmp_path):
        text = BASE_INI.replace("method = risfbf", "method = sfbf") \
                       .replace("regime = strongly_monotone\nalpha = 0.1\n",
                                "lam = 0.1\nalpha = 0.5\nrho = 0.3\n")
        with pytest.raises(ConfigError, match=r"\['alpha', 'rho'\]"):
            _load(tmp_path, text)

    def test_missing_solver_section_rejected(self, tmp_path):
        text = BASE_INI.split("[solver]")[0]
        with pytest.raises(ConfigError, match=r"\[solver\]"):
            _load(tmp_path, text)

    def test_unreadable_ini_reported_as_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            _load(tmp_path, "just some prose, no sections")

    @pytest.mark.parametrize("old, new, message", [
        ("max_iters = 40", "budget = 0", "budget must be positive"),
        ("stride = 5", "stride = 0", "[output] stride must be at least 1"),
        ("max_iters = 40\n", "",
         "risfbf needs a stop rule that must fire: set max_iters or budget"),
        ("max_iters = 40", "residual_target = 1e-300",
         "risfbf needs a stop rule that must fire: set max_iters or budget"),
        ("regime = strongly_monotone\nalpha = 0.1\n", "",
         "risfbf needs a RegimePolicy: set a regime"),
        ("method = risfbf\nregime = strongly_monotone\nalpha = 0.1\n"
         "batch_kind = constant\nbatch_m = 2\nmax_iters = 40",
         "method = proxpoint\nregime = strongly_monotone\nalpha = 0.1\n"
         "batch_kind = constant\nbatch_m = 2\nbudget = 100",
         "proxpoint draws nothing, so budget never stops it: set max_iters"),
    ], ids=["budget", "stride", "no-stop-rule", "residual-target-only",
            "no-regime", "proxpoint-budget-only"])
    def test_run_key_errors_name_the_ini_key(self, tmp_path, old, new,
                                             message):
        text = BASE_INI.replace(old, new)
        assert text != BASE_INI
        with pytest.raises(ConfigError, match=re.escape(message)):
            _load(tmp_path, text)

    @pytest.mark.parametrize("raw, value", [("yes", True), ("off", False)])
    def test_boolean_keys_reach_the_solver_config(self, tmp_path, raw, value):
        text = BASE_INI.replace("max_iters = 40\n",
                                f"max_iters = 40\nrecord_energy = {raw}\n")
        assert _load(tmp_path, text).build_solver_config().record_energy \
            is value

    def test_workers_below_one_rejected_everywhere(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            _load(tmp_path, BASE_INI + "workers = 0\n")
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            _load(tmp_path, workers=0)
        assert cli.main(["run", _write(tmp_path, BASE_INI),
                         "--workers", "0"]) == 1
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_overrides_win_but_none_is_ignored(self, tmp_path):
        cfg = _load(tmp_path, seed=77, replications=None)
        assert cfg.seed == 77
        assert cfg.replications == 3


class TestBuilders:
    def test_policy_and_step_size_routing(self, tmp_path):
        cfg = _load(tmp_path, BASE_INI.replace(
            "alpha = 0.1", "alpha = 0.1\nlam = 0.12"))
        pol = cfg.build_policy()
        assert pol.regime == "strongly_monotone"
        assert pol.lam == 0.12
        scfg = cfg.build_solver_config()
        assert scfg.lam is None            # the policy owns the step size
        assert scfg.policy is pol or scfg.policy.lam == 0.12

    def test_plain_method_keeps_explicit_step(self, tmp_path):
        text = BASE_INI.replace("method = risfbf", "method = sfbf") \
                       .replace("regime = strongly_monotone\nalpha = 0.1\n",
                                "lam = 0.2\n")
        cfg = _load(tmp_path, text)
        assert cfg.build_policy() is None
        assert cfg.build_solver_config().lam == 0.2

    def test_batch_schedule_kinds(self, tmp_path):
        text = BASE_INI.replace("batch_kind = constant\nbatch_m = 2",
                                "batch_kind = polynomial\nbatch_theta = 1.1")
        sched = _load(tmp_path, text).build_batches()
        assert sched.kind == "polynomial" and sched.theta == 1.1
        missing = BASE_INI.replace("batch_kind = constant\nbatch_m = 2",
                                   "batch_kind = polynomial")
        with pytest.raises(ConfigError, match="batch_theta"):
            _load(tmp_path, missing).build_batches()

    def test_polynomial_is_scaled_polynomial_at_scale_one(self, tmp_path):
        for theta in (1.01, 1.1, 1.5):
            poly = BatchSchedule.polynomial(theta)
            assert poly == BatchSchedule.scaled_polynomial(theta, 1)
            # dividing by scale = 1.0 is exact: m_k = floor(k^theta) bitwise
            assert [batch_size(poly, k) for k in range(1, 10_001)] == [
                max(1, int(np.floor(float(k) ** theta)))
                for k in range(1, 10_001)]
        text = BASE_INI.replace("batch_kind = constant\nbatch_m = 2",
                                "batch_kind = scaled_polynomial\n"
                                "batch_theta = 1.1")
        assert _load(tmp_path, text).build_batches() == \
            BatchSchedule.polynomial(1.1)

    def test_missing_builder_key_is_named(self, tmp_path):
        text = BASE_INI.replace(SYNTHETIC_PROBLEM, "kind = cournot")
        with pytest.raises(ConfigError, match="'l_v'"):
            _load(tmp_path, text)

    def test_batch_key_the_kind_does_not_read_is_rejected(self, tmp_path):
        polynomial = "batch_kind = polynomial\nbatch_theta = 1.1\n"
        unread = BASE_INI.replace("batch_kind = constant\nbatch_m = 2",
                                  polynomial + "batch_scale = 20")
        with pytest.raises(ConfigError, match="batch_scale"):
            _load(tmp_path, unread)
        scaled = unread.replace("= polynomial", "= scaled_polynomial")
        sched = _load(tmp_path, scaled).build_batches()
        assert sched == BatchSchedule.scaled_polynomial(1.1, 20)
        omitted = BASE_INI.replace("batch_kind = constant\nbatch_m = 2\n", "")
        assert _load(tmp_path, omitted).build_batches() == \
            BatchSchedule.constant(1)

    @pytest.mark.parametrize("kind,keys,expected", [
        ("synthetic", "dim = 6\nmu = 0.5\nskew = 2.0\nsigma = 0.3\n"
         "bias = 0.1\nbox = 2.5\nseed = 4",
         {"dim": 6, "mu": 0.5, "skew_norm": 2.0, "sigma": 0.3, "bias": 0.1,
          "box_halfwidth": 2.5, "seed": 4}),
        ("cournot", "l_v = 60\nseed = 2\nn_firms = 5\nbox_upper = 7.5",
         {"L_V_target": 60.0, "seed": 2, "n_firms": 5, "box_upper": 7.5}),
        ("cap", "seed = 1\nn_groups = 4\ngroup_size = 5\noverlap = 1\n"
         "eta = 0.001\nnoise_std = 0.2\nball_radius = 3.0",
         {"seed": 1, "n_groups": 4, "group_size": 5, "overlap": 1,
          "eta": 0.001, "noise_std": 0.2, "ball_radius": 3.0}),
    ], ids=["synthetic", "cournot", "cap"])
    def test_every_problem_key_reaches_its_builder_parameter(
            self, tmp_path, monkeypatch, kind, keys, expected):
        builder = getattr(problems, f"{kind}_build")
        seen = []

        @functools.wraps(builder)
        def record(**kwargs):
            seen.append(kwargs)
            return builder(**kwargs)

        monkeypatch.setattr(problems, f"{kind}_build", record)
        full = BASE_INI.replace(SYNTHETIC_PROBLEM, f"kind = {kind}\n{keys}")
        _load(tmp_path, full).build_problem()
        assert seen[-1] == expected
        assert {k: type(v) for k, v in seen[-1].items()} == \
            {k: type(v) for k, v in expected.items()}

        # omitted keys get the builder's own defaults, passed by name
        required = "l_v = 60" if kind == "cournot" else ""
        bare = BASE_INI.replace(SYNTHETIC_PROBLEM,
                                f"kind = {kind}\n{required}")
        _load(tmp_path, bare).build_problem()
        defaults = {name: p.default for name, p in
                    inspect.signature(builder).parameters.items()
                    if p.default is not p.empty}
        assert seen[-1] == ({"L_V_target": 60.0} if kind == "cournot"
                            else {}) | defaults

    def test_problem_kinds_build(self, tmp_path):
        def dim(ini=BASE_INI):
            problem = _load(tmp_path, ini).build_problem()
            return problem.initial(np.random.default_rng(0)).shape[0]

        assert dim() == 8
        cournot = BASE_INI.replace(
            "kind = synthetic\ndim = 8\nmu = 1.0\nskew = 1.0\n"
            "sigma = 0.2\nseed = 3", "kind = cournot\nl_v = 50.0")
        assert dim(cournot) == 10
        cap = BASE_INI.replace(
            "kind = synthetic\ndim = 8\nmu = 1.0\nskew = 1.0\n"
            "sigma = 0.2\nseed = 3", "kind = cap")
        assert dim(cap) == 182


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunExperiment:
    def test_writes_trajectories_and_summary(self, tmp_path):
        cfg = _load(tmp_path)
        report = run_experiment(cfg)
        out = tmp_path / "out"
        for rep in range(3):
            rows = _read_csv(out / f"rep_{rep}.csv")
            assert tuple(rows[0]) == solvers.COLUMNS
            assert int(rows[-1][0]) == 41          # final iterate index
            assert len(rows) == 1 + 9              # k = 1, 6, ..., 41
        summary = _read_csv(out / "summary.csv")
        assert summary[0][0] == "rep"
        assert report.failures == 0
        assert report.out_dir == str(out)

    def test_summary_mean_is_arithmetic_mean_of_final_rows(self, tmp_path):
        cfg = _load(tmp_path)
        report = run_experiment(cfg)
        finals = []
        for rep in range(3):
            rows = _read_csv(tmp_path / "out" / f"rep_{rep}.csv")
            finals.append(float(rows[-1][solvers.COLUMNS.index("residual")]))
        assert report.means["residual"] == pytest.approx(
            float(np.mean(finals)), abs=1e-15)
        summary = _read_csv(tmp_path / "out" / "summary.csv")
        mean_row = next(r for r in summary if r[0] == "mean")
        assert float(mean_row[3]) == pytest.approx(report.means["residual"],
                                                   rel=1e-15)

    def test_rerun_is_byte_identical_except_wall_time(self, tmp_path):
        r1 = run_experiment(_load(tmp_path, out_dir=str(tmp_path / "a")))
        r2 = run_experiment(_load(tmp_path, out_dir=str(tmp_path / "b")))
        assert r1.means == r2.means
        for rep in range(3):
            rows_a = _read_csv(tmp_path / "a" / f"rep_{rep}.csv")
            rows_b = _read_csv(tmp_path / "b" / f"rep_{rep}.csv")
            wall = solvers.COLUMNS.index("wall_time_s")
            for ra, rb in zip(rows_a, rows_b):
                ra[wall] = rb[wall] = ""
            assert rows_a == rows_b

    def test_workers_start_no_thread_and_change_no_byte(self, tmp_path,
                                                        monkeypatch):
        run_experiment(_load(tmp_path, out_dir=str(tmp_path / "s")))

        def no_thread(self):
            raise AssertionError("a replication started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        run_experiment(_load(tmp_path, out_dir=str(tmp_path / "w"),
                             workers=2))
        assert solvers.COLUMNS[-1] == "wall_time_s"
        for name in ("summary.csv", "rep_0.csv", "rep_1.csv", "rep_2.csv"):
            a, b = (_read_csv(tmp_path / d / name) for d in ("s", "w"))
            for ra, rb in zip(a, b):
                ra[-1] = rb[-1] = ""
            assert a == b

    def test_numeric_failures_counted_not_raised(self, tmp_path, monkeypatch):
        def boom(problem, method, cfg, rng=None):
            raise NumericFailure("oracle draw 0 is non-finite")

        monkeypatch.setattr(harness, "run", boom)
        # a step above lambda_strong: the diagnostics come from the check,
        # so they stay although no replication returns
        text = BASE_INI.replace("alpha = 0.1", "alpha = 0.1\nlam = 10")
        report = run_experiment(_load(tmp_path, text))
        assert report.failures == 3
        assert report.errors == {
            rep: "NumericFailure: oracle draw 0 is non-finite"
            for rep in range(3)}
        assert report.means == {}
        assert report.diagnostics == (
            "lam = 10 exceeds lambda_strong = 0.158114",)
        summary = _read_csv(tmp_path / "out" / "summary.csv")
        failed_row = next(r for r in summary if r[0] == "failed")
        assert failed_row[1] == "3"

    def test_a_broken_policy_hypothesis_runs_no_replication(
            self, tmp_path, capsys, monkeypatch):
        # the hypotheses read (policy, L, mu) and no draw, so a broken one
        # would fail every replication alike: it is a config error
        calls = []
        real_run = harness.run
        monkeypatch.setattr(harness, "run",
                            lambda *a, **kw: calls.append(a) or real_run(
                                *a, **kw))
        out = tmp_path / "out"
        path = _write(tmp_path, BAD_LAM_INI)
        assert cli.main(["run", path, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: bad: {BAD_LAM_MESSAGE}\n")
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("case, prefix", [
        ("affine", "gap_region needs a problem with an affine mean"),
        ("feasible", "gap_region must lie in the problem's feasible set"),
        ("energy", "record_energy needs a problem with a known solution"),
        ("policy", BAD_LAM_MESSAGE),
        ("strict", "lam = 10 exceeds lambda_strong = 0.158114"),
    ], ids=["affine", "feasible", "energy", "policy", "strict"])
    def test_a_rejected_config_keeps_its_message_after_the_label(
            self, tmp_path, monkeypatch, case, prefix):
        # no INI key sets a gap region, so the solver config is patched
        region = GapRegion(np.zeros(8), 2.0 if case == "feasible" else 0.5)
        if case in ("affine", "feasible"):
            build_scfg = ExperimentConfig.build_solver_config
            monkeypatch.setattr(
                ExperimentConfig, "build_solver_config",
                lambda cfg: dataclasses.replace(build_scfg(cfg),
                                                gap_region=region))
        if case in ("affine", "energy"):
            real = problems.synthetic_build

            @functools.wraps(real)
            def build(**kwargs):
                drop = ({"affine_matrix": None} if case == "affine"
                        else {"solution": None})
                return dataclasses.replace(real(**kwargs), **drop)

            monkeypatch.setattr(problems, "synthetic_build", build)
        text = {"energy": BASE_INI.replace(
                    "max_iters = 40", "max_iters = 40\nrecord_energy = true"),
                "policy": BAD_LAM_INI.replace("label = bad", "label = demo"),
                "strict": BASE_INI.replace("alpha = 0.1",
                                           "alpha = 0.1\nlam = 10"),
                }.get(case, BASE_INI)
        cfg = _load(tmp_path, text, strict=case == "strict")
        with pytest.raises(ValueError) as direct:
            solvers.run(cfg.build_problem(), cfg.method,
                        cfg.build_solver_config(), np.random.default_rng(0))
        assert str(direct.value) == prefix
        assert isinstance(direct.value, PolicyViolation) == (
            case in ("policy", "strict"))
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == f"demo: {prefix}"
        assert not (tmp_path / "out").exists()


class TestConfidenceInterval:
    def test_constant_samples_collapse(self):
        lo, hi = confidence_interval([2.5, 2.5, 2.5])
        assert lo == hi == 2.5

    def test_two_point_hand_value(self):
        lo, hi = confidence_interval([0.0, 1.0], level=0.95)
        # t quantile for df=1 at 97.5% is tan(0.475 pi) ~= 12.70620474;
        # stderr = 1/2
        assert hi == pytest.approx(0.5 + 12.706204736174696 * 0.5, rel=1e-8)
        assert lo == pytest.approx(0.5 - 12.706204736174696 * 0.5, rel=1e-8)

    def test_higher_level_widens(self):
        data = [0.1, 0.5, 0.2, 0.9, 0.4]
        lo90, hi90 = confidence_interval(data, 0.90)
        lo99, hi99 = confidence_interval(data, 0.99)
        assert lo99 < lo90 < hi90 < hi99
        mid = 0.5 * (lo90 + hi90)
        assert mid == pytest.approx(float(np.mean(data)), rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=1.0)

    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    def test_quantile_matches_scipy(self, level):
        stats = pytest.importorskip("scipy.stats")
        for df in [*range(1, 201), 1000]:
            want = stats.t.ppf(0.5 * (1.0 + level), df)
            assert harness._t_quantile(level, df) == pytest.approx(
                want, rel=1e-12, abs=0.0), df


COURNOT_INI = """\
[problem]
kind = cournot
l_v = 100
seed = 0

[solver]
method = {method}
batch_kind = constant
batch_m = 1
lam = 0.0025
max_iters = 20

[output]
replications = 3

[meta]
label = {method}
"""


def test_scipy_is_not_imported(tmp_path):
    """Neither `import moninc` nor a `moninc compare` loads scipy."""
    a = _write(tmp_path, COURNOT_INI.format(method="sfbf"), "a.ini")
    b = _write(tmp_path, COURNOT_INI.format(method="seg"), "b.ini")
    script = (
        "import sys\n"
        "import moninc\n"
        "assert 'scipy' not in sys.modules, 'import moninc loads scipy'\n"
        "from moninc import cli\n"
        f"code = cli.main(['compare', {a!r}, {b!r}, '--out-dir', "
        f"{str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'compare loads scipy'\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "sfbf" in proc.stdout and "seg" in proc.stdout


def test_import_loads_no_thread_pool():
    script = ("import sys, moninc\n"
              "assert 'concurrent.futures' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


REDUCTION_A = """\
[problem]
kind = synthetic
dim = 8
mu = 1.0
sigma = 0.2
seed = 3

[solver]
method = risfbf
regime = custom
alpha = 0.0
lam = 0.1
rho = 1.0
max_iters = 40

[output]
replications = 2

[meta]
seed = 9
"""

REDUCTION_B = REDUCTION_A.replace(
    "method = risfbf\nregime = custom\nalpha = 0.0\nlam = 0.1\nrho = 1.0",
    "method = sfbf\nlam = 0.1")


class TestOneRowFormat:
    def test_csv_columns_are_the_trajectory_columns(self):
        names = tuple(f.name for f in dataclasses.fields(solvers.Trajectory))
        assert names[:len(solvers.COLUMNS)] == solvers.COLUMNS
        assert names == solvers.COLUMNS + ("residual_estimated",)

    def test_summary_rep_rows_are_the_last_rep_rows(self, tmp_path,
                                                    monkeypatch):
        real_run = harness.run

        def fail_rep_1(problem, method, cfg, rng=None):
            if rng.bit_generator.seed_seq.entropy == [9, 1]:
                raise NumericFailure("non-finite iterate")
            return real_run(problem, method, cfg, rng=rng)

        monkeypatch.setattr(harness, "run", fail_rep_1)
        run_experiment(_load(tmp_path))
        out = tmp_path / "out"
        summary = _read_csv(out / "summary.csv")
        assert tuple(summary[0]) == ("rep",) + solvers.COLUMNS
        rep_rows = [row for row in summary[1:] if row[0].isdigit()]
        assert [row[0] for row in rep_rows] == ["0", "2"]
        for row in rep_rows:
            assert row[1:] == _read_csv(out / f"rep_{row[0]}.csv")[-1]
        assert not (out / "rep_1.csv").exists()


class TestCompare:
    def test_rejects_mismatched_problems(self, tmp_path):
        a = _load(tmp_path, BASE_INI, name="a.ini",
                  out_dir=str(tmp_path / "a"))
        b = _load(tmp_path, BASE_INI.replace("dim = 8", "dim = 9"),
                  name="b.ini", out_dir=str(tmp_path / "b"))
        with pytest.raises(ValueError, match="identical"):
            compare([a, b])
        with pytest.raises(ValueError):
            compare([])

    def test_spelled_out_default_is_the_same_problem(self, tmp_path):
        cournot = REDUCTION_B.replace(
            "kind = synthetic\ndim = 8\nmu = 1.0\nsigma = 0.2\nseed = 3",
            "kind = cournot\nl_v = 50.0").replace("lam = 0.1", "lam = 0.005")
        a = _load(tmp_path, cournot, name="a.ini",
                  out_dir=str(tmp_path / "a"))
        b = _load(tmp_path, cournot.replace("l_v = 50.0",
                                            "l_v = 50.0\nn_firms = 10\n"
                                            "seed = 0\nbox_upper = 10"),
                  name="b.ini", out_dir=str(tmp_path / "b"))
        assert a.problem != b.problem
        reports = compare([a, b])
        assert reports[0].means["residual"] == reports[1].means["residual"]

    def test_degenerate_parameters_reproduce_the_plain_method(self, tmp_path):
        a = _load(tmp_path, REDUCTION_A, name="a.ini",
                  out_dir=str(tmp_path / "a"))
        b = _load(tmp_path, REDUCTION_B, name="b.ini",
                  out_dir=str(tmp_path / "b"))
        reports = compare([a, b])
        assert [r.method for r in reports] == ["risfbf", "sfbf"]
        assert reports[0].means["residual"] == reports[1].means["residual"]
        assert reports[0].means["rel_error"] == reports[1].means["rel_error"]

    def test_rejects_shared_out_dir_before_running(self, tmp_path):
        shared = str(tmp_path / "shared")
        a = _load(tmp_path, REDUCTION_A, name="a.ini", out_dir=shared)
        b = _load(tmp_path, REDUCTION_B, name="b.ini",
                  out_dir=str(tmp_path / "shared" / "."))
        with pytest.raises(ConfigError, match="'a' and 'b'"):
            compare([a, b])
        assert not (tmp_path / "shared").exists()

    def test_the_benchmark_tracer_counts_every_draw_and_moves_no_iterate(
            self, tmp_path):
        # perfbench judges a traced cournot-cli round incorrect when its
        # draw count differs from the solvers' or a final iterate moves;
        # this is that round at a 600-draw budget. It reads perfbench and
        # changes nothing there.
        bench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", os.path.join(bench, "tracing.py"))
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        paths = []
        for label in ("risfbf", "sfbf", "sa"):
            with open(os.path.join(bench, "configs", f"cournot_{label}.ini"),
                      encoding="utf-8") as fh:
                text = fh.read().replace("budget = 20000", "budget = 600")
            paths.append(_write(tmp_path, text, name=f"{label}.ini"))

        def compare_all(tag):
            return cli.compare([
                load_config(path, {"seed": 11, "replications": 2,
                                   "out_dir": str(tmp_path / tag / str(i))})
                for i, path in enumerate(paths)])

        plain = compare_all("plain")
        untraced = (solvers.minibatch_estimate, cli.compare)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = compare_all("traced")
        finally:
            tracer.restore()
        assert (solvers.minibatch_estimate, cli.compare) == untraced
        results = [res for report in traced for res in report.results]
        assert len(results) == 6
        assert tracer.layer_metrics()["oracle.draws"] == sum(
            res.oracle_calls for res in results)
        assert [res.X.tobytes() for res in results] == [
            res.X.tobytes() for report in plain for res in report.results]


class TestCli:
    def test_run_exit_zero_and_prints_summary(self, tmp_path, capsys):
        path = _write(tmp_path, BASE_INI)
        code = cli.main(["run", path, "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "demo: method=risfbf" in out
        assert "residual: mean=" in out

    def test_run_and_compare_print_every_summarised_column(self, tmp_path,
                                                           capsys):
        path = _write(tmp_path, BASE_INI.replace(
            "max_iters = 40", "max_iters = 40\nrecord_energy = true"))
        assert cli.main(["run", path, "--out-dir", str(tmp_path / "a")]) == 0
        assert "  H_k: mean=" in capsys.readouterr().out
        assert cli.main(["compare", path, "--out-dir",
                         str(tmp_path / "b")]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split() == ["label", "method", "residual", "rel_error",
                                  "gap", "H_k", "wall_s", "failed"]

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, BASE_INI.replace("method = risfbf",
                                                 "method = sgd"))
        assert cli.main(["run", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [
        "lam = 5.0", "regime = custom\nalpha = 0.0\nlam = 1.0\nrho = 1.0"],
        ids=["lam", "regime"])
    def test_sa_with_a_step_it_would_not_read_exits_one(self, tmp_path,
                                                        capsys, keys):
        path = _write(tmp_path, BASE_INI.replace(
            "method = risfbf\nregime = strongly_monotone\nalpha = 0.1",
            f"method = sa\n{keys}"))
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {path}: sa steps at 1/sqrt(k)")
        assert not out.exists()

    def test_a_problem_its_builder_cannot_build_exits_one(self, tmp_path,
                                                          capsys):
        path = _write(tmp_path, BASE_INI.replace("dim = 8", "dim = 0"))
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {path}: dim must be at least 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("problem, message", [
        ("kind = synthetic\ndim = 1\nskew = 1.0",
         "skew > 0 needs dim >= 2: a 1x1 skew matrix is zero"),
        ("kind = cournot\nl_v = 1.2",
         "l_v=1.2 infeasible: needs L_V > L_R + L_V/10 with L_R=1.1"),
        ("kind = cap\ngroup_size = 3\noverlap = 4",
         "overlap must not exceed group_size"),
    ], ids=["synthetic", "cournot", "cap"])
    def test_a_range_error_names_the_file_and_the_ini_key(
            self, tmp_path, capsys, monkeypatch, problem, message):
        # checked at load, before compare runs any config or builds any
        # problem, so synthetic's reference solve never runs at load
        built = []

        def counted(build):
            @functools.wraps(build)
            def wrapper(**kwargs):
                built.append(kwargs)
                return build(**kwargs)
            return wrapper

        for kind in ("synthetic", "cournot", "cap"):
            monkeypatch.setattr(problems, f"{kind}_build",
                                counted(getattr(problems, f"{kind}_build")))
        good = _write(tmp_path, BASE_INI, name="good.ini")
        bad = _write(tmp_path, BASE_INI.replace(SYNTHETIC_PROBLEM, problem),
                     name="bad.ini")
        out = tmp_path / "out"
        assert cli.main(["compare", good, bad, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {bad}: {message}\n")
        assert not out.exists() and built == []

    @pytest.mark.parametrize("case", ["cap-energy", "compare", "strict"])
    def test_a_config_its_problem_rejects_exits_one_and_writes_nothing(
            self, tmp_path, capsys, case):
        out = tmp_path / "out"
        if case == "cap-energy":
            path = _write(tmp_path, BASE_INI.replace(
                SYNTHETIC_PROBLEM, "kind = cap").replace(
                "regime = strongly_monotone", "regime = custom\nlam = 0.1\n"
                "rho = 1.0\nrecord_energy = true"))
            argv = ["run", path]
            message = ("demo: record_energy needs a problem with a known "
                       "solution")
        elif case == "compare":
            # the good config comes first and still runs nothing
            good = _write(tmp_path, BAD_LAM_INI.replace(
                "lam = 100", "lam = 0.1").replace("label = bad",
                                                  "label = good"),
                name="good.ini")
            argv = ["compare", good, _write(tmp_path, BAD_LAM_INI,
                                            name="bad.ini")]
            message = f"bad: {BAD_LAM_MESSAGE}"
        else:
            argv = ["run", os.path.join(BENCH_CONFIGS, "cournot_risfbf.ini"),
                    "--strict"]
            message = "risfbf: lam = 0.0025 exceeds lambda_strong = 0.00249994"
        assert cli.main([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, edit, line", [
        (["run"], ("max_iters = 40", "budget = 2e4"),
         "exp.ini: [solver] budget: bad number '2e4'"),
        (["run"], ("max_iters = 40", "max_iters = 40\nrecord_energy = maybe"),
         "exp.ini: [solver] record_energy: not a boolean: 'maybe'"),
        (["run"], ("replications = 3", "replications = 0"),
         "exp.ini: replications must be at least 1"),
        (["run", "--replications", "0"], None,
         "exp.ini: replications must be at least 1"),
        (["run"], ("stride = 5", "stride = 5\nconfidence = 1.5"),
         "exp.ini: confidence level must lie in (0,1)"),
        (["run"], ("label = demo", "label = demo\nworkers = 0"),
         "exp.ini: workers must be at least 1"),
        (["run"], ("stride = 5", "stride = 0"),
         "exp.ini: [output] stride must be at least 1"),
        (["run"], ("dim = 8", "dim = 0"), "exp.ini: dim must be at least 1"),
        (["run"], ("batch_m = 2", "batch_m = 2\nwarp_speed = 9"),
         "exp.ini: unknown key 'warp_speed' in [solver]"),
        # a parse error names the key as written, even one that a check
        # would rename
        (["run"], ("batch_m = 2", "batch_m = 2\np = 0.5"),
         "exp.ini: unknown key 'p' in [solver]"),
        (["run"], ("batch_kind = constant\nbatch_m = 2",
                   "batch_kind = geometric\nbatch_p = 1.5"),
         "exp.ini: geometric schedule needs batch_p in (0,1)"),
        (["run"], ("batch_m = 2", "batch_m = 0"),
         "exp.ini: constant schedule needs batch_m >= 1"),
        (["run"], ("batch_kind = constant\nbatch_m = 2",
                   "batch_kind = polynomial\nbatch_theta = -1"),
         "exp.ini: polynomial schedule needs batch_theta > 0"),
        (["run"], ("batch_kind = constant\nbatch_m = 2",
                   "batch_kind = scaled_polynomial\nbatch_theta = 1.1\n"
                   "batch_scale = 0.5"),
         "exp.ini: polynomial schedule needs batch_scale n >= 1"),
        (["run"], ("seed = 9", "seed = -1"),
         "exp.ini: [meta] seed must be nonnegative"),
        (["run", "--seed", "-3"], None,
         "exp.ini: [meta] seed must be nonnegative"),
        (["run"], ("seed = 3", "seed = -2"),
         "exp.ini: [problem] seed must be nonnegative"),
        (["variance", "--seed", "-1"], None,
         "exp.ini: [meta] seed must be nonnegative"),
        (["bounds"], ("method = risfbf", "method = sfbf"),
         "demo: bounds describes risfbf only, not sfbf"),
        (["bounds"], ("mu = 1.0", "mu = 0.0"),
         "demo: bounds needs a strongly monotone problem"),
    ], ids=["bad-number", "bad-boolean", "replications", "replications-flag",
            "confidence", "workers", "stride", "dim", "unknown-key",
            "unknown-key-p", "batch_p", "batch_m", "batch_theta",
            "batch_scale", "meta-seed", "meta-seed-flag", "problem-seed",
            "variance-seed-flag", "bounds-method", "bounds-mu"])
    def test_an_error_names_its_file_and_key_or_its_label(
            self, tmp_path, capsys, monkeypatch, argv, edit, line):
        # errors found while loading name the file and the key as written;
        # errors about a loaded config name its label
        text = BASE_INI if edit is None else BASE_INI.replace(*edit)
        assert edit is None or text != BASE_INI
        monkeypatch.chdir(tmp_path)  # BASE_INI writes to ./out
        _write(tmp_path, text)
        assert cli.main([argv[0], "exp.ini", *argv[1:]]) == 1
        assert capsys.readouterr() == ("", f"config error: {line}\n")
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_three(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.ini")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_total_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        def boom(problem, method, cfg, rng=None):
            raise NumericFailure("oracle draw 0 is non-finite")

        monkeypatch.setattr(harness, "run", boom)
        path = _write(tmp_path, BASE_INI)
        code = cli.main(["run", path, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "all replications failed" in err
        assert ("demo: replication 2 failed: NumericFailure: oracle draw 0 "
                "is non-finite") in err

    def test_compare_prints_one_row_per_config(self, tmp_path, capsys):
        a = _write(tmp_path, REDUCTION_A, name="a.ini")
        b = _write(tmp_path, REDUCTION_B, name="b.ini")
        code = cli.main(["compare", a, b,
                         "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "risfbf" in out and "sfbf" in out

    def test_compare_out_dir_holds_one_directory_per_label(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        a = _write(tmp_path, REDUCTION_A, name="a.ini")
        b = _write(tmp_path, REDUCTION_B, name="b.ini")
        out = tmp_path / "out"
        assert cli.main(["compare", a, b, "--out-dir", str(out)]) == 0
        for label in ("a", "b"):
            assert (out / label / "summary.csv").exists()
            assert (out / label / "rep_1.csv").exists()
        assert not (out / "summary.csv").exists()

        # without --out-dir both files fall back to the same default
        monkeypatch.chdir(tmp_path)
        assert cli.main(["compare", a, b]) == 1
        assert "'a' and 'b' both write to 'out'" in capsys.readouterr().err

    def test_compare_with_a_bad_config_runs_nothing(self, tmp_path, capsys):
        a = _write(tmp_path, REDUCTION_A, name="a.ini")
        bad = _write(tmp_path, REDUCTION_A.replace(
            "regime = custom", "regime = custum"), name="bad.ini")
        out = tmp_path / "out"
        assert cli.main(["compare", a, bad, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad.ini" in err and "unknown regime 'custum'" in err
        assert not out.exists()

    def test_compare_with_a_config_missing_its_policy_runs_nothing(
            self, tmp_path, capsys):
        a = _write(tmp_path, REDUCTION_A, name="a.ini")
        nopol = _write(tmp_path, REDUCTION_A.replace(
            "regime = custom\nalpha = 0.0\nlam = 0.1\nrho = 1.0",
            "lam = 0.1"), name="nopol.ini")
        out = tmp_path / "out"
        assert cli.main(["compare", a, nopol, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "nopol.ini" in err and "risfbf needs a RegimePolicy" in err
        assert not out.exists()

    def test_compare_prints_failure_reasons(self, tmp_path, capsys,
                                            monkeypatch):
        def boom(problem, method, cfg, rng=None):
            raise FloatingPointError("overflow in multiply")

        monkeypatch.setattr(harness, "run", boom)
        a = _write(tmp_path, REDUCTION_A, name="a.ini")
        b = _write(tmp_path, REDUCTION_B, name="b.ini")
        code = cli.main(["compare", a, b, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        for label in ("a", "b"):
            assert (f"{label}: replication 1 failed: FloatingPointError: "
                    "overflow in multiply") in err

    def test_compare_prints_policy_diagnostics_once_per_config(
            self, tmp_path, capsys):
        # lam = 0.0025 sits just above lambda_strong = 0.00249994 of the
        # capacity game, which the custom regime is held to at rho = 1
        text = ("[problem]\nkind = cournot\nl_v = 100\nseed = 0\n\n"
                "[solver]\nmethod = risfbf\nregime = custom\nalpha = 0.1\n"
                "lam = 0.0025\nrho = 1.0\nbudget = 400\n\n"
                "[output]\nreplications = 3\n\n[meta]\nlabel = {}\n")
        paths = [_write(tmp_path, text.format(label), name=f"{label}.ini")
                 for label in ("first", "second")]
        code = cli.main(["compare", *paths, "--out-dir",
                         str(tmp_path / "out")])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        for label in ("first", "second"):
            assert [line for line in lines
                    if line.startswith(f"{label}: policy diagnostics:")] == [
                f"{label}: policy diagnostics: lam = 0.0025 exceeds "
                "lambda_strong = 0.00249994"]

    def test_bounds_reports_contraction_and_complexity(self, tmp_path,
                                                       capsys):
        text = BASE_INI.replace("batch_kind = constant\nbatch_m = 2",
                                "batch_kind = geometric\nbatch_p = 0.97")
        path = _write(tmp_path, text)
        assert cli.main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "contraction q=" in out
        assert "oracle_cost=" in out

    @pytest.mark.parametrize("batches, line, problem", [
        ("batch_kind = polynomial\nbatch_theta = 1.5",
         "polynomial sampling theta=1.5: c=", SYNTHETIC_PROBLEM),
        ("batch_kind = constant\nbatch_m = 2", "constant batches:",
         SYNTHETIC_PROBLEM),
        # m_k = floor(k^theta / n) scales the noise term by the divisor n
        pytest.param("batch_kind = scaled_polynomial\nbatch_theta = 1.1\n"
                     "batch_scale = 1", "theta=1.1: c=2108.25 ",
                     SCALED_PROBLEM, id="scaled_polynomial-n1"),
        pytest.param("batch_kind = scaled_polynomial\nbatch_theta = 1.1\n"
                     "batch_scale = 20", "theta=1.1: c=2835.45 ",
                     SCALED_PROBLEM, id="scaled_polynomial-n20")])
    def test_bounds_envelope_follows_the_batch_schedule(self, tmp_path,
                                                        capsys, batches,
                                                        line, problem):
        path = _write(tmp_path, BASE_INI.replace(
            "batch_kind = constant\nbatch_m = 2", batches).replace(
            SYNTHETIC_PROBLEM, problem))
        assert cli.main(["bounds", path]) == 0
        assert line in capsys.readouterr().out

    def test_bounds_without_a_regime_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, REDUCTION_B)
        assert cli.main(["bounds", path]) == 1
        assert capsys.readouterr().err == (
            "config error: exp: bounds describes risfbf only, not sfbf\n")

    @pytest.mark.parametrize("method", ["sfbf", "seg", "sa", "proxpoint"])
    def test_bounds_describes_risfbf_runs_only(self, tmp_path, capsys,
                                               method):
        # q, B, C and a cost of 2 draws per iteration are risfbf's
        text = BASE_INI.replace(
            "batch_kind = constant\nbatch_m = 2",
            "batch_kind = geometric\nbatch_p = 0.97").replace(
            "method = risfbf", f"method = {method}")
        if method == "sa":  # which steps at 1/sqrt(k) and reads no regime
            text = text.replace("regime = strongly_monotone\nalpha = 0.1\n",
                                "")
        assert cli.main(["bounds", _write(tmp_path, text)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: demo: bounds describes risfbf only, "
                       f"not {method}\n")

    def test_bounds_on_the_game_reads_its_solution(self, tmp_path, capsys):
        # polynomial batches: the envelope needs no geometric cost sum
        path = _write(tmp_path, BASE_INI.replace(
            SYNTHETIC_PROBLEM, "kind = cournot\nl_v = 100").replace(
            "batch_kind = constant\nbatch_m = 2",
            "batch_kind = polynomial\nbatch_theta = 1.5"))
        assert cli.main(["bounds", path]) == 0
        out = capsys.readouterr().out
        problem = load_config(path).build_problem()
        _, x1 = solvers._start(problem, np.random.default_rng([9, 0]))
        dist1_sq = float(np.sum((x1 - problem.solution) ** 2))
        assert "contraction q=" in out
        assert (f"dist(X_1, solution)^2 = {dist1_sq:.6g} "
                "(replication 0 start)") in out
        assert "polynomial sampling theta=1.5: c=" in out
        assert "(envelope c/k^theta)" in out

    @pytest.mark.parametrize("argv", [
        ["bounds", "--workers", "2"], ["bounds", "--replications", "7"],
        ["variance", "--out-dir", "x"], ["variance", "--strict"]])
    def test_bounds_and_variance_take_only_their_own_flags(self, tmp_path,
                                                           capsys, argv):
        path = _write(tmp_path, BASE_INI)
        with pytest.raises(SystemExit) as info:
            cli.main([argv[0], path, *argv[1:]])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bounds_takes_alpha_1_from_the_inertia_schedule(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        text = BASE_INI.replace(
            "batch_kind = constant\nbatch_m = 2",
            "batch_kind = geometric\nbatch_p = 0.97").replace(
            "alpha = 0.1", "alpha = 0.1\nalpha_mode = increasing")
        path = _write(tmp_path, text)
        real = theory.geometric_constant
        seen = []

        def spy(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(theory, "geometric_constant", spy)
        assert cli.main(["bounds", path]) == 0
        p, q, dist1_sq, alpha1, alpha_bar, B, p_hat = seen[0]
        policy = load_config(path).build_policy()
        assert alpha1 == alpha_at(policy, 1) == 0.05  # alpha_0 (1 - 1/2)
        want = real(p, q, dist1_sq, alpha_at(policy, 1), alpha_bar, B, p_hat)
        assert f"C={want:.6g}" in capsys.readouterr().out

    def test_bounds_reads_the_step_of_the_regime(self, tmp_path, capsys):
        # asymptotic has no default step, so bounds fails as run does
        path = _write(tmp_path, BASE_INI.replace(
            "regime = strongly_monotone", "regime = asymptotic"))
        assert cli.main(["bounds", path]) == 1
        assert "policy has no step size lam" in capsys.readouterr().err

    def test_bounds_rejects_a_broken_hypothesis_as_run_does(self, tmp_path,
                                                            capsys):
        # both commands take the policy through the same check, so both
        # name the config's label
        path = _write(tmp_path, BASE_INI.replace(
            "regime = strongly_monotone", "regime = asymptotic\nlam = 100"
        ).replace("label = demo", "label = syn_bad"))
        message = ("config error: syn_bad: lam = 100 not in (0, 1/(4L)) = "
                   "(0, 0.176777)\n")
        out = tmp_path / "out"
        for argv in (["run", path, "--out-dir", str(out)], ["bounds", path]):
            assert cli.main(argv) == 1
            assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_bounds_requires_strong_monotonicity(self, tmp_path, capsys):
        path = _write(tmp_path, BASE_INI.replace("mu = 1.0", "mu = 0.0"))
        assert cli.main(["bounds", path]) == 1
        assert "strongly monotone" in capsys.readouterr().err

    def test_variance_sweep_reports_scaling(self, tmp_path, capsys):
        path = _write(tmp_path, BASE_INI)
        assert cli.main(["variance", path, "--repeats", "100"]) == 0
        out = capsys.readouterr().out
        assert "log-log slope" in out

    def test_variance_measures_at_the_replication_0_start(self, tmp_path,
                                                          monkeypatch):
        # cournot draws its start after run()'s side-stream seed
        path = _write(tmp_path, BASE_INI.replace(
            SYNTHETIC_PROBLEM, "kind = cournot\nl_v = 100"))
        seen = []
        monkeypatch.setattr(cli, "empirical_variance",
                            lambda oracle, x, m, repeats, rng:
                            seen.append(x.copy()) or 1.0)
        assert cli.main(["variance", path, "--repeats", "2"]) == 0
        cfg = load_config(path)
        _, points = run_with_points(cfg.build_problem(), cfg.method,
                                    cfg.build_solver_config(),
                                    np.random.default_rng([cfg.seed, 0]))
        assert len(seen) == 5
        assert all(x.tobytes() == points[0].tobytes() for x in seen)

    def test_variance_of_a_noiseless_oracle(self, tmp_path, capsys):
        path = _write(tmp_path, BASE_INI.replace("sigma = 0.2", "sigma = 0"))
        assert cli.main(["variance", path, "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "zero variance; noiseless oracle" in out
        assert "log-log slope" not in out

    @staticmethod
    def _patch_synthetic_oracle(monkeypatch, **attrs):
        real = problems.synthetic_build

        @functools.wraps(real)
        def build(**kwargs):
            prob = real(**kwargs)
            for name, value in attrs.items():
                setattr(prob.oracle, name, value)
            return prob

        monkeypatch.setattr(problems, "synthetic_build", build)

    def test_variance_needs_an_exact_mean(self, tmp_path, capsys,
                                          monkeypatch):
        self._patch_synthetic_oracle(monkeypatch, mean=None)
        assert cli.main(["variance", _write(tmp_path, BASE_INI)]) == 1
        assert capsys.readouterr().err == (
            "config error: demo: variance sweep needs an oracle with exact "
            "mean\n")

    def test_variance_with_a_non_finite_batch_exit_two(self, tmp_path,
                                                       capsys, monkeypatch):
        self._patch_synthetic_oracle(
            monkeypatch, batch=lambda x, m, rng: np.full(8, np.nan))
        assert cli.main(["variance", _write(tmp_path, BASE_INI)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:")
        assert "non-finite" in err
