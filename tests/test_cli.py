"""Command-line front end: parsing, config files, CSV output, subcommands."""

import hashlib
import json
from pathlib import Path
import re
import shlex
import subprocess
import sys
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


@pytest.mark.parametrize("env,flag,value", [
    pytest.param("gaussian", "--arms", "4,0", id="--arms-4,0"),
    pytest.param("gaussian", "--sigma-0", "0.1,0.1", id="--sigma-0-0.1,0.1"),
    # a list on the flag that is not the family's size flag
    ("linear", "--arms", "10,20"), ("gaussian", "--dim", "3,4"),
])
def test_invalid_sweep_exits_2_and_writes_nothing(tmp_path, capsys, env, flag, value):
    """A bad cell is refused before the first cell is written, and no list
    value is silently dropped."""
    out = tmp_path / "cells"
    size = {"--dim": "2"} if env == "linear" else {"--arms": "2,3"}
    flags = {**size, "--sigma-q": "0.5", "--tasks": "1", "--rounds": "2",
             "--runs": "1", "--agents": "ts", "--out": str(out), flag: value}
    argv = ["sweep", "--env", env] + [v for pair in flags.items() for v in pair]
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err.partition("error:")[2]
    assert not out.exists()


@pytest.mark.parametrize("command,dims", [("run", "2"), ("sweep", "1,2")])
def test_forced_exploration_without_a_spanning_set_exits_2(tmp_path, capsys, command, dims):
    """Fewer actions than dimensions cannot span R^d, so ada-ts-forced has no
    opening actions to play; in a sweep one such cell refuses them all."""
    out = tmp_path / "out"
    argv = [command, "--env", "linear", "--dim", dims, "--arms", "1", "--sigma-q", "1",
            "--tasks", "2", "--rounds", "3", "--runs", "2", "--out", str(out)]
    assert cli.main(argv + ["--agents", "ada-ts,ada-ts-forced"]) == 2
    err = capsys.readouterr().err.partition("error:")[2]
    assert "--arms" in err and "ada-ts-forced" in err
    assert not out.exists()
    assert cli.main(argv + ["--agents", "ada-ts"]) == 0  # only forced exploration needs a span
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("names,label", [("ada-ts,ada-ts", "ada-ts"), ("ts, ts", "ts")])
def test_duplicate_agents_exit_2_and_write_nothing(tmp_path, capsys, command, names, label):
    """An agent listed twice is refused at parse time, naming it, before a
    sweep makes its output directory."""
    out = tmp_path / "out"
    assert cli.main(minimal_argv(command, tmp_path) + ["--agents", names]) == 2
    err = capsys.readouterr().err.partition("error:")[2]
    assert "--agents" in err and f" {label} " in err
    assert not out.exists()


@pytest.mark.parametrize("command,make,out", [
    ("run", "dir", "out"),                    # run writes a file, not into a directory
    ("run", None, "missing/out.csv"),         # its directory must exist
    ("sweep", "file", "out"),                 # sweep writes into a directory
])
def test_unwritable_out_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command, make,
                                               out):
    """An --out that cannot be written is refused at parse time, before any
    run is made, and nothing is written."""
    monkeypatch.setattr(harness, "run_experiment", lambda config: pytest.fail("ran"))
    path = tmp_path / out
    if make == "dir":
        path.mkdir()
    elif make == "file":
        path.write_text("kept\n")
    argv = minimal_argv(command, tmp_path)
    assert cli.main(argv[:-1] + [str(path)]) == 2
    assert f"--out {str(path)!r}" in capsys.readouterr().err.partition("error:")[2]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ([] if make is None else ["out"])
    if make == "file":
        assert path.read_text() == "kept\n"


MIXTURE_FLAGS = {"--env": "bernoulli-mixture", "--arms": "3", "--mixture": "9:1;1:9",
                 "--sigma-q": None, "--sigma-0": None, "--noise": None}


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
    ("--arms", "1"),  # no action set of 1 spans R^2, so no --eta to derive
])
def test_bound_invalid_input_exits_2(capsys, flag, value):
    assert cli.main(BOUND_ARGV + [flag, value]) == 2
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


@pytest.mark.parametrize("command", ["run", "sweep", "bound"])
@pytest.mark.parametrize("seed", [-1, 2**53, 2**64 + 1])
def test_seed_outside_the_key_range_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                                               seed):
    """A seed outside [0, 2**53) could share its streams with another seed,
    or fail mid-run (see gauss_core.RngStream); it is refused before any
    run, from the command line and from a config file."""
    argv = minimal_argv(command, tmp_path)
    config = tmp_path / "seed.cfg"
    config.write_text(f"seed={seed}\n")
    for given in ([f"--seed={seed}"], ["--config", str(config)]):
        assert cli.main(argv + given) == 2
        assert "--seed" in capsys.readouterr().err.partition("error:")[2]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["seed.cfg"]


@pytest.mark.parametrize("command", ["run", "sweep", "bound"])
def test_largest_seed_runs(tmp_path, capsys, command):
    assert cli.main(minimal_argv(command, tmp_path) + ["--seed", str(2**53 - 1)]) == 0
    capsys.readouterr()


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


@pytest.mark.parametrize("command,env,flag,value", [
    ("run", "gaussian", "--budget", "1"), ("run", "gaussian", "--dim", "3"),
    ("run", "gaussian", "--mixture", "9:1;1:9"), ("run", "linear", "--budget", "1"),
    ("run", "bernoulli-mixture", "--noise", "5"),
    ("run", "bernoulli-mixture", "--sigma-0", "0.3"),
    ("sweep", "bernoulli-mixture", "--noise", "5"), ("bound", "semibandit", "--eta", "0.5"),
])
def test_flag_the_family_does_not_read_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                                                  env, flag, value):
    """A flag is never ignored: one that --env does not read is refused."""
    assert cli.main(minimal_argv(command, tmp_path, env) + [flag, value]) == 2
    err = capsys.readouterr().err.partition("error:")[2]
    assert f"{flag} does not apply to --env {env}" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("mixture,code", [("9e307:9e307;1:1", 2), ("8e307:8e307;1:1", 0)])
def test_mixture_whose_alpha_plus_beta_overflows_exits_2(tmp_path, capsys, mixture, code):
    """The Beta updates form alpha + beta, so it must be finite too."""
    out = tmp_path / "mix.csv"
    argv = ["run", "--env", "bernoulli-mixture", "--arms", "3", "--mixture", mixture,
            "--tasks", "3", "--rounds", "20", "--runs", "4",
            "--agents", "ts,oracle-ts,meta-ts,ada-ts", "--out", str(out)]
    assert cli.main(argv) == code
    if code:
        assert "--mixture" in capsys.readouterr().err.partition("error:")[2]
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("mixture", ["1e-300:1;1:1e-300", "1e-3:1;1:1e-3"])
def test_mixture_with_tiny_beta_parameters_runs(tmp_path, capsys, mixture):
    """Beta parameters far below 1 make Gamma variates below any float: the
    agents' draws stay finite, as log-odds."""
    out = tmp_path / "mix.csv"
    argv = ["run", "--env", "bernoulli-mixture", "--arms", "3", "--mixture", mixture,
            "--tasks", "3", "--rounds", "20", "--runs", "4",
            "--agents", "ts,oracle-ts,meta-ts,ada-ts,misassigned-ts", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert out.exists()


# Every agent each family accepts.
GAUSSIAN_AGENTS = "ts,oracle-ts,meta-ts,ada-ts,ada-ts+,ada-ts-,ada-ts-forced"
FAMILY_AGENTS = {"gaussian": GAUSSIAN_AGENTS, "linear": GAUSSIAN_AGENTS,
                 "semibandit": GAUSSIAN_AGENTS,
                 "bernoulli-mixture": "ts,oracle-ts,meta-ts,ada-ts,misassigned-ts"}


def test_parse_and_build_config_load_no_scipy(tmp_path):
    """The package does not import scipy: parse and build_config load none
    of it, and with its import blocked every command still exits 0 (a run of
    each family with every agent it accepts, a sweep, and both bounds)."""
    commands = [
        ["run", "--env", env, *REQUIRED_FAMILY_FLAGS[env], "--tasks", "3", "--rounds", "4",
         "--runs", "2", "--agents", names, "--out", str(tmp_path / f"{env}.csv")]
        for env, names in FAMILY_AGENTS.items()
    ]
    commands.append(["sweep", "--env", "bernoulli-mixture", "--arms", "2,3",
                     "--mixture", "9:1;1:9", "--tasks", "2", "--rounds", "3", "--runs", "2",
                     "--agents", "ts,ada-ts", "--out", str(tmp_path / "cells")])
    commands += [minimal_argv("bound", tmp_path, env) for env in FAMILIES["bound"]]
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from metabandit import cli\n"
        "cli.build_config(cli.parse(json.loads(sys.argv[2])))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None\n"
        "print([cli.main(argv) for argv in json.loads(sys.argv[3])])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src, json.dumps(run_argv()),
                           json.dumps(commands)], capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == str([0] * len(commands)), done.stderr


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


def readme_commands():
    """Each `metabandit ...` command in the README's sh blocks, with its
    backslash continuations joined, as an argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("metabandit ")]


def test_readme_commands_parse():
    """The README's example commands use only flags and values the parser
    accepts, so the docs cannot drift from the flags."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "bound", "sweep"}
    for argv in commands:
        cli.parse(argv)


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


def minimal_argv(command, tmp_path, env=None):
    """A valid invocation of the family `env` (linear for bound, gaussian
    otherwise) that sets only the required flags."""
    env = env or ("linear" if command == "bound" else "gaussian")
    argv = [command, "--env", env, *REQUIRED_FAMILY_FLAGS[env]]
    if command == "bound":
        return argv + ["--tasks", "2", "--rounds", "3"]
    return argv + ["--tasks", "1", "--rounds", "2", "--runs", "1", "--agents", "ts",
                   "--out", str(tmp_path / "out")]


# Every flag each family reads, and the required ones.
EVERY_FAMILY_FLAG = {
    "gaussian": ["--arms", "4", "--sigma-q", "0.5", "--sigma-0", "0.2", "--noise", "2"],
    "linear": ["--dim", "3", "--arms", "6", "--sigma-q", "0.5", "--sigma-0", "0.2",
               "--noise", "2"],
    "semibandit": ["--arms", "4", "--budget", "2", "--sigma-q", "0.5", "--sigma-0", "0.2",
                   "--noise", "2"],
    "bernoulli-mixture": ["--arms", "4", "--mixture", "9:1;1:9",
                          "--mixture-weights", "0.25,0.75"],
}
REQUIRED_FAMILY_FLAGS = {
    "gaussian": ["--arms", "2", "--sigma-q", "0.5"],
    "linear": ["--dim", "2", "--sigma-q", "1"],
    "semibandit": ["--arms", "4", "--budget", "2", "--sigma-q", "0.5"],
    "bernoulli-mixture": ["--arms", "2", "--mixture", "9:1;1:9"],
}
COMMANDS = ["run", "bound", "sweep"]
FAMILIES = {"run": list(EVERY_FAMILY_FLAG), "sweep": list(EVERY_FAMILY_FLAG),
            "bound": ["linear", "semibandit"]}


def every_flag_argv(command, env, eta=True):
    """A valid invocation of the family `env` that sets every flag the family
    reads and every other flag of the subcommand but --config.  A linear
    bound reads --eta, or with eta=False the --seed it derives --eta from."""
    argv = [command, "--env", env, *EVERY_FAMILY_FLAG[env], "--tasks", "3", "--rounds", "4"]
    if command == "bound":
        argv += ["--delta", "0.01"]
        if env == "linear":
            argv += ["--eta", "0.5"] if eta else ["--seed", "5"]
        return argv
    return argv + ["--seed", "5", "--runs", "2", "--agents", "ts,ada-ts",
                   "--common-tasks", "false", "--out", "elsewhere", "--threads", "3"]


@pytest.mark.parametrize("command", COMMANDS)
def test_config_keys_are_the_long_flags(tmp_path, capsys, command):
    """One invocation per family sets each flag that family reads; together
    they set every flag, and each round-trips through a config file."""
    with pytest.raises(SystemExit):
        cli.parse([command, "--help"])
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    covered = set()
    variants = [(env, True) for env in FAMILIES[command]]
    if command == "bound":
        variants.append(("linear", False))
    for env, eta in variants:
        full = cli.parse(every_flag_argv(command, env, eta))
        argv = cli.format_argv(full)
        covered |= set(argv[1::2])
        cfg = tmp_path / f"{env}.cfg"
        cfg.write_text("".join(f"{flag[2:]} = {value}\n"
                               for flag, value in zip(argv[1::2], argv[2::2])))
        assert cli.parse(minimal_argv(command, tmp_path, env) + ["--config", str(cfg)]) == full
    assert covered == flags - {"--help", "--config"}
    cfg = tmp_path / "bad.cfg"
    for key in ("help", "config", "sigma_q"):
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(SystemExit) as err:
            cli.parse(minimal_argv(command, tmp_path) + ["--config", str(cfg)])
        assert err.value.code == 2


@pytest.mark.parametrize("command,line,flag", [
    pytest.param(command, line, flag, id=f"{line}-{flag}-{command}")
    for line, flag in [("env = foo", "--env"), ("tasks = 0", "--tasks"),
                       ("mixture = a:1", "--mixture")]
    for command in COMMANDS
    if not (command == "bound" and flag == "--mixture")  # bound has no mixture family
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
    path = tmp_path / "curve.csv"
    cli.emit_csv(harness.aggregate(tiny_trace(m=2, n=4)), path)
    for line in path.read_text().splitlines()[1:]:
        parts = line.split(",")
        assert len(parts) == 5
        for value in parts[3:]:
            parsed = float(value)  # dot-decimal, parseable
            assert repr(parsed) == value  # shortest round-trip form


PIN_FLAGS = ["--tasks", "3", "--rounds", "5", "--runs", "4", "--seed", "11"]

# sha256 of the CSV a small `run` writes, one config per family
RUN_CSV_DIGESTS = {
    ("gaussian", "ts,oracle-ts,meta-ts,ada-ts,ada-ts-forced",
     "--arms", "3", "--sigma-q", "0.5"):
        "37ad5a1175058ffba40ec0b466ab48f97fc5dc78e48a54b85ab6ae2bca77b06f",
    ("linear", "ts,oracle-ts,ada-ts,ada-ts-forced",
     "--dim", "2", "--arms", "6", "--sigma-q", "1"):
        "a7b2d3e3d23b208d699aeb1c728c39e9f9f5b127337034ddd6036524733a111d",
    ("semibandit", "ts,oracle-ts,ada-ts+,ada-ts-",
     "--arms", "4", "--budget", "2", "--sigma-q", "0.5", "--sigma-0", "0,0.1,0,0.1"):
        "7508b64036bac2f89e6d1ef978c4bd4cedbf579655dced14d4014049328f07ac",
    ("bernoulli-mixture", "ts,oracle-ts,meta-ts,ada-ts,misassigned-ts",
     "--arms", "3", "--mixture", "9:1;1:9"):
        "38c5f660edcf8f87ede4873d091e8d1ed27a26c956fe07a018167f3a163f20c6",
}


@pytest.mark.parametrize("key", list(RUN_CSV_DIGESTS), ids=lambda key: key[0])
def test_run_reproduces_pinned_csv(tmp_path, capsys, key):
    env, agents, *flags = key
    out = tmp_path / "run.csv"
    argv = ["run", "--env", env, "--agents", agents, *flags, *PIN_FLAGS, "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_CSV_DIGESTS[key]


# file names, and sha256 over each file's name then bytes in name order, of
# the cells a small `sweep` writes
SWEEP_DIGESTS = {
    ("gaussian", "--arms", "2,3", "--sigma-q", "0.5,1"): (
        ["gaussian_sq0.5_K2.csv", "gaussian_sq0.5_K3.csv",
         "gaussian_sq1_K2.csv", "gaussian_sq1_K3.csv"],
        "5ae90f30d7ac391896fbf9a5fee2eb96ee08bb0343fe5bed34b2d8d02435c722"),
    ("linear", "--dim", "2,3", "--sigma-q", "0.5,1"): (
        ["linear_sq0.5_d2.csv", "linear_sq0.5_d3.csv", "linear_sq1_d2.csv", "linear_sq1_d3.csv"],
        "8828c4424ebe5ff5909bd92ad1cf71977e50fa701cb9668fc4d7b0598dbe5a05"),
    ("bernoulli-mixture", "--arms", "2,3", "--mixture", "9:1;1:9"): (
        ["bernoulli-mixture_K2.csv", "bernoulli-mixture_K3.csv"],
        "b102d218ed5c78bafab913a4ccd48ef4ab165c06c4b2f3263fe13970a722788f"),
}


@pytest.mark.parametrize("key", list(SWEEP_DIGESTS), ids=lambda key: key[0])
def test_sweep_reproduces_pinned_cells(tmp_path, capsys, key):
    env, *flags = key
    out = tmp_path / "cells"
    argv = ["sweep", "--env", env, "--agents", "ts,ada-ts", *flags, *PIN_FLAGS, "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out.iterdir())
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((out / name).read_bytes())
    assert (names, digest.hexdigest()) == SWEEP_DIGESTS[key]


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


@pytest.mark.parametrize("argv", [
    ["bound", "--env", "semibandit", "--arms", "4", "--budget", "2", "--sigma-q", "0.5",
     "--tasks", "2", "--rounds", "3"],
    BOUND_ARGV + ["--eta", "0.5"],
], ids=["semibandit", "linear-eta"])
def test_bound_seed_it_does_not_read_exits_2(capsys, argv):
    """Only a linear bound that derives --eta reads --seed; elsewhere it is
    refused, not ignored."""
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--seed", "5"]) == 2
    assert "--seed" in capsys.readouterr().err.partition("error:")[2]


def test_bound_seed_picks_the_action_set_eta_is_derived_from(capsys):
    outputs = []
    for seed in ([], ["--seed", "0"], ["--seed", "5"]):
        assert cli.main(BOUND_ARGV + seed) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]


@pytest.mark.parametrize("argv", [
    ["bound", "--env", "semibandit", "--arms", "4", "--budget", "2", "--sigma-q", "0.5",
     "--tasks", "3", "--rounds", "5", "--delta", "1e-320"],
    ["bound", "--env", "linear", "--dim", "2", "--sigma-q", "0.5",
     "--tasks", "3", "--rounds", "5", "--delta", "1e-310", "--eta", "0.1"],
], ids=["semibandit", "linear"])
def test_bound_with_a_non_finite_term_exits_1_and_prints_nothing(capsys, argv):
    """A tiny --delta overflows 4K/delta: the bound is refused, naming the
    term, rather than printed as inf."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "term_learning_mu_star is inf" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("flags, name", [
    (["--arms", "2", "--sigma-q", "0.5,0.5000001"], "gaussian_sq0.5_K2.csv"),
    (["--arms", "2,2", "--sigma-q", "0.5"], "gaussian_sq0.5_K2.csv"),
], ids=["widths", "sizes"])
def test_sweep_cells_that_share_a_file_exit_2(tmp_path, capsys, flags, name):
    """Two cells whose file names agree would overwrite each other: the
    sweep is refused before anything is written, naming the file."""
    out = tmp_path / "cells"
    argv = ["sweep", "--env", "gaussian", *flags, "--tasks", "2", "--rounds", "3",
            "--runs", "2", "--agents", "ts", "--out", str(out)]
    assert cli.main(argv) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


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
