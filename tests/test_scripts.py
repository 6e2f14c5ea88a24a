import importlib.util
from pathlib import Path

import pytest

from seqcf import parse_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def load_script(monkeypatch):
    """Import scripts/<name>.py as a module; its BLAS thread defaults are undone."""
    def load(name):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def no_trials(monkeypatch, script):
    monkeypatch.setattr(script, "run_experiment", lambda spec: pytest.fail("ran"))


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
        (["--budgets", "500,-3"], "error: R_T must be finite and strictly positive, got -3.0"),
        (["--budgets", "500,500.0"], "error: --budgets: budget 500 is given twice"),
        (["--users", "5,2.5"], "error: --users: invalid literal for int() with base 10: '2.5'"),
        (["--users", "250"], "error: tau_c must exceed tau_p = K"),
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
