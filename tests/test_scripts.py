import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqcf.cli as cli
from seqcf import parse_csv

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.fixture
def load_script():
    """Import scripts/<name>.py as a module."""
    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def no_trials(monkeypatch, script):
    # every front end runs its specs through the one run path in seqcf.cli
    monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("ran"))


class TestOneRunPath:
    def test_rate_script_writes_the_cli_csv(self, load_script, capsys, tmp_path):
        script = load_script("sum_se_vs_rate")
        ours, theirs = tmp_path / "script.csv", tmp_path / "cli.csv"
        assert script.main(["--trials", "1", "--budgets", "200", "--out", str(ours)]) == 0
        assert cli.main(["sweep-rate", "--values", "200", "--strategies",
                         ",".join(script.STRATEGIES), "--seed", "42", "--trials", "1",
                         "--out", str(theirs)]) == 0
        assert ours.read_bytes() == theirs.read_bytes()
        n = len(script.STRATEGIES)
        assert capsys.readouterr().out.splitlines() == [f"wrote {n} rows to {ours}",
                                                        f"wrote {n} rows to {theirs}"]

    def test_users_script_writes_the_cli_csv(self, load_script, capsys, tmp_path):
        script = load_script("sum_se_vs_users")
        cfg = tmp_path / "net.cfg"
        cfg.write_text("R_T = 500\n")
        ours, theirs = tmp_path / "users_RT500.csv", tmp_path / "cli.csv"
        assert script.main(["--trials", "1", "--users", "2,3", "--budgets", "500",
                            "--out-prefix", str(tmp_path / "users")]) == 0
        assert cli.main(["sweep-users", "--values", "2,3", "--config", str(cfg),
                         "--strategies", ",".join(script.STRATEGIES), "--seed", "42",
                         "--trials", "1", "--out", str(theirs)]) == 0
        assert ours.read_bytes() == theirs.read_bytes()
        n = 2 * len(script.STRATEGIES)
        assert capsys.readouterr().out.splitlines() == [f"wrote {n} rows to {ours}",
                                                        f"wrote {n} rows to {theirs}"]

    @pytest.mark.parametrize("preset, code, expected", [
        (None, "import seqcf", "1 1"),
        ("3", "import seqcf", "3 1"),
        (None, "import numpy, seqcf", "None None"),
    ])
    def test_blas_thread_default(self, preset, code, expected):
        # in a fresh interpreter: seqcf sets one thread only where it is the
        # first numpy import, and keeps a value the caller set
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        read = ("import os; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                "os.environ.get('OMP_NUM_THREADS'))")
        done = subprocess.run([sys.executable, "-c", f"{code}; {read}"], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == expected


class TestSumSeVsRate:
    @pytest.mark.parametrize("budgets, message", [
        ("500,abc", "error: --budgets: could not convert string to float: 'abc'"),
        ("500,nan", "error: sweep value nan: R_T must be finite and strictly positive, "
                    "got nan"),
    ])
    def test_bad_budget_exits_before_any_trial(self, load_script, monkeypatch, capsys,
                                               tmp_path, budgets, message):
        script = load_script("sum_se_vs_rate")
        no_trials(monkeypatch, script)
        out = tmp_path / "rate.csv"
        assert script.main(["--budgets", budgets, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    def test_unwritable_out_exits_before_any_trial(self, load_script, monkeypatch, capsys,
                                                   tmp_path):
        script = load_script("sum_se_vs_rate")
        no_trials(monkeypatch, script)
        missing = tmp_path / "missing" / "rate.csv"
        assert script.main(["--budgets", "500", "--out", str(missing)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: --out: directory {missing.parent} does not exist")


class TestSumSeVsUsers:
    @pytest.mark.parametrize("argv, message", [
        (["--budgets", "500,abc"], "error: --budgets: could not convert string to float: 'abc'"),
        (["--budgets", "500,-3"],
         "error: --budgets: budget -3: R_T must be finite and strictly positive, got -3.0"),
        (["--budgets", "500,500.0"], "error: --budgets: budget 500 is given twice"),
        (["--users", "5,2.5"], "error: --users: invalid literal for int() with base 10: '2.5'"),
        (["--users", "250"], "error: sweep value 250: tau_c must exceed tau_p = K"),
        (["--trials", "0"], "error: trials must be positive"),
    ])
    def test_bad_input_exits_before_any_trial(self, load_script, monkeypatch, capsys,
                                              tmp_path, argv, message):
        script = load_script("sum_se_vs_users")
        no_trials(monkeypatch, script)
        assert script.main(argv + ["--out-prefix", str(tmp_path / "users")]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not list(tmp_path.iterdir())

    def test_unwritable_prefix_exits_before_any_trial(self, load_script, monkeypatch,
                                                      capsys, tmp_path):
        script = load_script("sum_se_vs_users")
        no_trials(monkeypatch, script)
        prefix = tmp_path / "missing" / "users"
        assert script.main(["--out-prefix", str(prefix)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: --out-prefix: directory {prefix.parent} does not exist")

    def test_huge_budget_names_its_file_by_repr(self, load_script, monkeypatch, capsys,
                                                tmp_path):
        # integers are exact below 2^53; above, 1e300 would be 301 digits long
        script = load_script("sum_se_vs_users")
        assert script.out_path("u", 2.0 ** 53 - 1) == "u_RT9007199254740991.csv"
        assert script.out_path("u", 2.0 ** 53) == "u_RT9007199254740992.0.csv"
        monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
        prefix = tmp_path / "users"
        assert script.main(["--budgets", "1e300", "--out-prefix", str(prefix)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["users_RT1e+300.csv"]

    def test_budgets_write_distinct_files(self, load_script, capsys, tmp_path):
        script = load_script("sum_se_vs_users")
        prefix = tmp_path / "users"
        assert script.main(["--trials", "1", "--users", "2", "--budgets", "250.5,250.7,500",
                            "--out-prefix", str(prefix)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["users_RT250.5.csv", "users_RT250.7.csv", "users_RT500.csv"]
        means = {name: [r.mean_sum_se for r in parse_csv(str(tmp_path / name))]
                 for name in names}
        assert all(len(m) == len(script.STRATEGIES) for m in means.values())
        assert means["users_RT250.5.csv"] != means["users_RT500.csv"]
