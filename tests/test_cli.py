"""Command-line front end: parsing, config files, CSV output, subcommands."""

import re
import warnings

import numpy as np
import pytest

from metabandit import cli, harness


def run_argv(out="curves.csv", **overrides):
    flags = {
        "--env": "gaussian",
        "--arms": "2",
        "--sigma-q": "0.5",
        "--sigma-0": "0.1",
        "--noise": "1",
        "--tasks": "20",
        "--rounds": "200",
        "--runs": "100",
        "--agents": "ts,oracle-ts,meta-ts,ada-ts",
        "--seed": "7",
        "--out": out,
    }
    flags.update(overrides)
    argv = ["run"]
    for key, value in flags.items():
        if value is not None:
            argv += [key, value]
    return argv


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_reference_invocation():
    inv = cli.parse(run_argv())
    assert inv.command == "run"
    assert inv.env == "gaussian"
    assert inv.arms == (2,)
    assert inv.sigma_q == (0.5,)
    assert inv.sigma_0 == (0.1,)
    assert inv.tasks == 20 and inv.rounds == 200 and inv.runs == 100
    assert inv.agents == ("ts", "oracle-ts", "meta-ts", "ada-ts")
    assert inv.seed == 7
    assert inv.common_tasks is True
    assert inv.out == "curves.csv"


def test_usage_errors_exit_2():
    assert cli.main(run_argv(**{"--rounds": None})) == 2          # missing flag
    assert cli.main(run_argv(**{"--agents": "ts,ucb"})) == 2      # unknown agent
    assert cli.main(run_argv(**{"--env": "contextual"})) == 2     # unknown env
    assert cli.main(["run", "--env", "linear", "--sigma-q", "1", "--tasks", "2",
                     "--rounds", "2", "--runs", "1", "--agents", "ts",
                     "--out", "x.csv"]) == 2                      # linear needs --dim
    assert cli.main(run_argv(**{"--env": "semibandit"})) == 2     # needs --budget
    assert cli.main(run_argv(**{"--sigma-q": None})) == 2         # needs --sigma-q


LINEAR_FLAGS = {"--env": "linear", "--dim": "2", "--arms": "10", "--sigma-q": "1"}

BAD_INPUTS = [
    ("--sigma-q", "nan"), ("--sigma-q", "inf"), ("--sigma-q", "-0.5"),
    ("--sigma-0", "nan"), ("--sigma-0", "inf"), ("--sigma-0", "-0.1"),
    ("--sigma-q", "1e200"), ("--sigma-0", "1e200"),  # finite, but the square is not
    ("--noise", "nan"), ("--noise", "inf"), ("--noise", "0"), ("--noise", "-1"),
    ("--noise", "1e200"),
    ("--tasks", "0"), ("--rounds", "0"), ("--runs", "0"),
    ("--budget", "11"),
    ("--arms", "0"), ("--dim", "0"),
    ("--sigma-q", "0.1,0.2,0.3"), ("--sigma-0", "0.1,0.2,0.3"),
    ("--mixture", "a:1;1:9"), ("--mixture", "9;1:9"), ("--mixture", "0:1;1:9"),
    ("--mixture", "inf:1;1:9"), ("--mixture", "1:2:3"),
]


@pytest.mark.parametrize("env", ["gaussian", "linear"])
@pytest.mark.parametrize("flag,value", BAD_INPUTS)
def test_invalid_input_exits_2_and_writes_nothing(tmp_path, capsys, env, flag, value):
    out = tmp_path / "out.csv"
    overrides = {"--tasks": "2", "--rounds": "3", "--runs": "2", "--arms": "10"}
    if env == "linear":
        overrides.update(LINEAR_FLAGS)
    overrides[flag] = value
    assert cli.main(run_argv(out=str(out), **overrides)) == 2
    assert flag in capsys.readouterr().err.partition("error:")[2]
    assert not out.exists()


@pytest.mark.parametrize("weights", ["0.3,0.3,0.4", "1", "0,0", "-1,2", "nan,1"])
def test_invalid_mixture_weights_exit_2_and_write_nothing(tmp_path, capsys, weights):
    out = tmp_path / "out.csv"
    argv = ["run", "--env", "bernoulli-mixture", "--arms", "3", "--mixture", "9:1;1:9",
            "--mixture-weights", weights, "--tasks", "2", "--rounds", "3", "--runs", "2",
            "--agents", "ada-ts", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "--mixture-weights" in capsys.readouterr().err.partition("error:")[2]
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--arms", "4,0"), ("--sigma-0", "0.1,0.1")])
def test_invalid_sweep_exits_2_and_writes_nothing(tmp_path, capsys, flag, value):
    """A bad cell is refused before the first cell is written."""
    out = tmp_path / "cells"
    flags = {"--arms": "2,3", "--sigma-q": "0.5", "--tasks": "1", "--rounds": "2",
             "--runs": "1", "--agents": "ts", "--out": str(out), flag: value}
    argv = ["sweep", "--env", "gaussian"] + [v for pair in flags.items() for v in pair]
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err.partition("error:")[2]
    assert not out.exists()


MIXTURE_FLAGS = {"--env": "bernoulli-mixture", "--arms": "3", "--mixture": "9:1;1:9",
                 "--sigma-q": None}


@pytest.mark.parametrize("family,agent", [
    ("bernoulli-mixture", "ada-ts-forced"), ("bernoulli-mixture", "ada-ts+"),
    ("bernoulli-mixture", "ada-ts-"), ("gaussian", "misassigned-ts"),
    ("linear", "misassigned-ts"), ("semibandit", "misassigned-ts"),
])
def test_agent_outside_its_family_exits_2_and_writes_nothing(tmp_path, capsys, family, agent):
    out = tmp_path / "out.csv"
    overrides = {"bernoulli-mixture": MIXTURE_FLAGS, "linear": LINEAR_FLAGS,
                 "semibandit": {"--env": "semibandit", "--arms": "4", "--budget": "2"},
                 "gaussian": {}}[family]
    argv = run_argv(out=str(out), **dict(overrides, **{
        "--tasks": "2", "--rounds": "3", "--runs": "2", "--agents": f"ada-ts,{agent}",
    }))
    assert cli.main(argv) == 2
    assert repr(agent) in capsys.readouterr().err.partition("error:")[2]
    assert not out.exists()


BOUND_ARGV = ["bound", "--env", "linear", "--dim", "2", "--sigma-q", "1",
              "--tasks", "2", "--rounds", "3"]


@pytest.mark.parametrize("flag,value", [
    ("--delta", "0"), ("--delta", "1.5"), ("--delta", "nan"), ("--eta", "0"),
    ("--eta", "-1"), ("--env", "bernoulli-mixture"),
])
def test_bound_invalid_input_exits_2(capsys, flag, value):
    argv = BOUND_ARGV + [flag, value]
    if value == "bernoulli-mixture":
        argv += ["--arms", "2", "--mixture", "9:1;1:9"]
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err.partition("error:")[2]


@pytest.mark.parametrize("flag,value", [("--arms", "2,4"), ("--dim", "2,3")])
@pytest.mark.parametrize("command", ["run", "bound"])
def test_size_list_outside_sweep_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                                            flag, value):
    """run and bound take one --arms/--dim; a list is refused, not cut to its
    first value."""
    out = tmp_path / "out.csv"
    if command == "run":
        argv = run_argv(out=str(out), **dict(LINEAR_FLAGS, **{
            "--tasks": "2", "--rounds": "3", "--runs": "2", flag: value}))
    else:
        argv = BOUND_ARGV + [flag, value]
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err.partition("error:")[2]
    assert not out.exists()


def test_semibandit_budget_above_arms_exits_2(capsys):
    assert cli.main(run_argv(**{"--env": "semibandit", "--arms": "3", "--budget": "4"})) == 2
    assert "--budget" in capsys.readouterr().err.partition("error:")[2]


def test_non_finite_regret_exits_1_without_csv(tmp_path, capsys, monkeypatch):
    real_run = harness.run_experiment

    def poisoned(config):
        trace = real_run(config)
        trace.instant["ada-ts"][0, 1, 2] = np.nan
        return trace

    monkeypatch.setattr(harness, "run_experiment", poisoned)
    out = tmp_path / "out.csv"
    argv = run_argv(out=str(out), **{
        "--tasks": "2", "--rounds": "3", "--runs": "2", "--agents": "ts,ada-ts",
    })
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "'ada-ts'" in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("family", ["gaussian", "semibandit", "linear"])
def test_overflowing_run_exits_1_without_csv(tmp_path, capsys, family):
    """A width whose square is finite can still overflow inside the updates;
    the run fails instead of writing regret computed from inf."""
    out = tmp_path / "out.csv"
    overrides = {"semibandit": {"--env": "semibandit", "--budget": "1"},
                 "linear": {"--env": "linear", "--dim": "2", "--arms": None},
                 "gaussian": {}}[family]
    argv = run_argv(out=str(out), **dict(overrides, **{
        "--sigma-q": "1e150", "--tasks": "3", "--rounds": "5", "--runs": "2",
        "--agents": "ada-ts,meta-ts"}))
    assert cli.main(argv) == 1
    assert "overflow encountered" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_sigma_q_on_mixture_exits_2_and_writes_nothing(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--env", "bernoulli-mixture", "--arms", "2", "--mixture", "9:1;1:9",
            "--sigma-q", "1,2" if command == "sweep" else "1", "--tasks", "2",
            "--rounds", "3", "--runs", "2", "--agents", "ada-ts", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "--sigma-q" in capsys.readouterr().err.partition("error:")[2]
    assert not out.exists()


def test_zero_mixture_weight_runs_without_runtime_warning(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    argv = ["run", "--env", "bernoulli-mixture", "--arms", "2", "--mixture", "9:1;1:9",
            "--mixture-weights", "1,0", "--tasks", "2", "--rounds", "3", "--runs", "2",
            "--agents", "ts,meta-ts,ada-ts", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert out.exists()


def test_linear_dim_implies_five_d_arms():
    inv = cli.parse(
        ["run", "--env", "linear", "--dim", "2", "--sigma-q", "1",
         "--tasks", "2", "--rounds", "3", "--runs", "1",
         "--agents", "ada-ts", "--out", "x.csv"]
    )
    spec = cli.build_spec(inv)
    assert spec.num_arms == 10
    assert spec.actions is None


def test_parse_format_round_trip():
    invocations = [
        cli.parse(run_argv()),
        cli.parse(
            ["run", "--env", "linear", "--dim", "2", "--arms", "12",
             "--sigma-q", "1", "--tasks", "4", "--rounds", "5", "--runs", "2",
             "--agents", "meta-ts,ada-ts-forced", "--common-tasks", "false",
             "--out", "lin.csv", "--threads", "4"]
        ),
        cli.parse(
            ["bound", "--env", "semibandit", "--arms", "8", "--budget", "2",
             "--sigma-q", "0.5", "--sigma-0", "0,0,0.1,0.1,0.1,0.1,0.1,0.1",
             "--tasks", "20", "--rounds", "100", "--delta", "2.5e-05"]
        ),
        cli.parse(
            ["run", "--env", "bernoulli-mixture", "--arms", "3",
             "--mixture", "9:1;1:9", "--mixture-weights", "0.5,0.5",
             "--tasks", "5", "--rounds", "10", "--runs", "2",
             "--agents", "ada-ts,misassigned-ts", "--out", "mix.csv"]
        ),
        cli.parse(
            ["sweep", "--env", "gaussian", "--arms", "2,4", "--sigma-q", "0.5,1",
             "--tasks", "2", "--rounds", "3", "--runs", "1", "--agents", "ts",
             "--out", "cells"]
        ),
    ]
    for inv in invocations:
        assert cli.parse(cli.format_argv(inv)) == inv


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# smaller smoke settings\nseed=9\ntasks = 3\nsigma-q=1.0\n")
    inv = cli.parse(run_argv(**{"--config": str(cfg)}))
    assert inv.seed == 9
    assert inv.tasks == 3
    assert inv.sigma_q == (1.0,)
    assert inv.rounds == 200  # untouched flags survive


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    with pytest.raises(SystemExit) as err:
        cli.parse(run_argv(**{"--config": str(cfg)}))
    assert err.value.code == 2


def test_config_file_bad_line_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed 9\n")
    with pytest.raises(SystemExit) as err:
        cli.parse(run_argv(**{"--config": str(cfg)}))
    assert err.value.code == 2


def minimal_argv(command, tmp_path):
    """A valid invocation that sets only the required flags."""
    if command == "bound":
        return BOUND_ARGV
    return [command, "--env", "gaussian", "--arms", "2", "--sigma-q", "0.5",
            "--tasks", "1", "--rounds", "2", "--runs", "1", "--agents", "ts",
            "--out", str(tmp_path / "out")]


def every_flag_argv(command):
    """A valid invocation that sets every flag of the subcommand but --config."""
    argv = [command, "--env", "semibandit", "--arms", "4", "--dim", "3", "--budget", "2",
            "--sigma-q", "0.5", "--sigma-0", "0.2", "--noise", "2", "--tasks", "3",
            "--rounds", "4", "--mixture", "9:1;1:9", "--mixture-weights", "0.25,0.75",
            "--seed", "5"]
    if command == "bound":
        return argv + ["--delta", "0.01", "--eta", "0.5"]
    return argv + ["--runs", "2", "--agents", "ts,ada-ts", "--common-tasks", "false",
                   "--out", "elsewhere", "--threads", "3"]


COMMANDS = ["run", "bound", "sweep"]


@pytest.mark.parametrize("command", COMMANDS)
def test_config_keys_are_the_long_flags(tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        cli.parse([command, "--help"])
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    full = cli.parse(every_flag_argv(command))
    argv = cli.format_argv(full)
    assert set(argv[1::2]) == flags - {"--help", "--config"}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in zip(argv[1::2], argv[2::2])))
    assert cli.parse(minimal_argv(command, tmp_path) + ["--config", str(cfg)]) == full
    for key in ("help", "config", "sigma_q"):
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(SystemExit) as err:
            cli.parse(minimal_argv(command, tmp_path) + ["--config", str(cfg)])
        assert err.value.code == 2


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("line,flag", [
    ("env = foo", "--env"), ("tasks = 0", "--tasks"), ("mixture = a:1", "--mixture"),
])
def test_config_values_pass_the_flag_checks(tmp_path, capsys, command, line, flag):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(minimal_argv(command, tmp_path) + ["--config", str(cfg)]) == 2
    assert flag in capsys.readouterr().err.partition("error:")[2]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_unreadable_config_exits_2_without_traceback(tmp_path, capsys, command):
    argv = minimal_argv(command, tmp_path) + ["--config", str(tmp_path / "missing.cfg")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--config" in err.partition("error:")[2]
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def tiny_trace(m=1, n=2):
    inv = cli.parse(run_argv(**{
        "--tasks": str(m), "--rounds": str(n), "--runs": "1", "--agents": "ts",
    }))
    config = cli.build_config(inv)
    return harness.run_experiment(config)


def test_trace_csv_structure(tmp_path):
    path = tmp_path / "trace.csv"
    cli.emit_csv(tiny_trace(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "agent,run,task,round,instant_regret,cum_regret"
    assert len(lines) == 3  # header + 1 run * 1 task * 2 rounds
    assert lines[1].startswith("ts,1,1,1,")
    assert lines[2].startswith("ts,1,1,2,")


def test_curve_csv_structure_and_determinism(tmp_path):
    trace = tiny_trace(m=2, n=3)
    curve = harness.aggregate(trace)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.emit_csv(curve, first)
    cli.emit_csv(curve, second)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "agent,task,round,mean_cum_regret,stderr"
    assert len(lines) == 1 + 2 * 3


def test_empty_curve_writes_header_only(tmp_path):
    config = tiny_trace().config
    curve = harness.AggregateCurve(config, {}, {})
    path = tmp_path / "empty.csv"
    cli.emit_csv(curve, path)
    assert path.read_text().splitlines() == ["agent,task,round,mean_cum_regret,stderr"]


def test_csv_cells_are_locale_proof_round_trip_decimals(tmp_path):
    path = tmp_path / "trace.csv"
    cli.emit_csv(tiny_trace(m=2, n=4), path)
    cell = re.compile(r"^-?(\d+\.?\d*|\d*\.\d+)(e-?\+?\d+)?$|^-?\d+\.\d+e[+-]\d+$")
    for line in path.read_text().splitlines()[1:]:
        parts = line.split(",")
        assert len(parts) == 6
        for value in parts[4:]:
            parsed = float(value)  # dot-decimal, parseable
            assert repr(parsed) == value  # shortest round-trip form


def test_cumulative_column_accumulates(tmp_path):
    path = tmp_path / "trace.csv"
    cli.emit_csv(tiny_trace(m=2, n=3), path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    running = 0.0
    for row in rows:
        running += float(row[4])
        assert float(row[5]) == pytest.approx(running, rel=1e-12)


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------


def test_run_subcommand_writes_curve(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = run_argv(out=str(out), **{
        "--tasks": "2", "--rounds": "3", "--runs": "2", "--agents": "ts,ada-ts",
    })
    assert cli.main(argv) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 3


def test_run_subcommand_byte_identical_and_thread_safe(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    base = {"--tasks": "2", "--rounds": "3", "--runs": "3", "--agents": "ts,ada-ts"}
    assert cli.main(run_argv(out=str(a), **base)) == 0
    assert cli.main(run_argv(out=str(b), **base)) == 0
    assert cli.main(run_argv(out=str(c), **dict(base, **{"--threads": "8"}))) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def parse_bound_output(text):
    terms = {}
    total = None
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        if key == "total":
            total = float(value)
        else:
            assert key.startswith("term_")
            terms[key] = float(value)
    return terms, total


def test_bound_subcommand_linear_terms_sum(capsys):
    rc = cli.main(
        ["bound", "--env", "linear", "--dim", "2", "--sigma-q", "1",
         "--sigma-0", "0.1", "--tasks", "20", "--rounds", "200", "--eta", "0.25"]
    )
    assert rc == 0
    terms, total = parse_bound_output(capsys.readouterr().out)
    assert total is not None and total > 0
    assert sum(terms.values()) == pytest.approx(total, rel=1e-9)
    assert set(terms) == {
        "term_learning_mu_star", "term_per_task", "term_forced_exploration",
    }


def test_bound_subcommand_semibandit_zero_width_term(capsys):
    rc = cli.main(
        ["bound", "--env", "semibandit", "--arms", "8", "--budget", "2",
         "--sigma-q", "0.5", "--sigma-0", "0,0,0,0,0.1,0.1,0.1,0.1",
         "--tasks", "20", "--rounds", "100"]
    )
    assert rc == 0
    terms, total = parse_bound_output(capsys.readouterr().out)
    assert terms["term_zero_width_arms"] > 0
    assert sum(terms.values()) == pytest.approx(total, rel=1e-9)


def test_bound_subcommand_rejects_gaussian(capsys):
    rc = cli.main(
        ["bound", "--env", "gaussian", "--arms", "2", "--sigma-q", "0.5",
         "--tasks", "2", "--rounds", "3"]
    )
    assert rc == 2


def test_sweep_writes_one_csv_per_cell(tmp_path, capsys):
    out = tmp_path / "cells"
    rc = cli.main(
        ["sweep", "--env", "gaussian", "--arms", "2,3", "--sigma-q", "0.5,1",
         "--sigma-0", "0.1", "--tasks", "1", "--rounds", "2", "--runs", "1",
         "--agents", "ts", "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "gaussian_sq0.5_K2.csv", "gaussian_sq0.5_K3.csv",
        "gaussian_sq1_K2.csv", "gaussian_sq1_K3.csv",
    ]
    for p in out.iterdir():
        assert p.read_text().splitlines()[0] == "agent,task,round,mean_cum_regret,stderr"


def test_mixture_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    rc = cli.main(
        ["run", "--env", "bernoulli-mixture", "--arms", "2",
         "--mixture", "9:1;1:9", "--tasks", "2", "--rounds", "4", "--runs", "2",
         "--agents", "ada-ts,oracle-ts,misassigned-ts", "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 1 + 3 * 2 * 4
