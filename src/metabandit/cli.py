"""Command-line front end.

Subcommands:

* ``run``    one experiment; writes an aggregate regret-curve CSV.
* ``bound``  evaluate the regret upper bound for a configuration, printing
             one ``term_<name>=<value>`` line per term plus ``total=``.
* ``sweep``  cross-product of ``run`` over comma-separated --sigma-q and
             --arms/--dim values; one CSV per cell in the output directory.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

import argparse
import csv
from dataclasses import dataclass, fields
import math
import os
import sys

import numpy as np

from . import agents as agents_mod
from . import bounds, harness, hierarchy
from .gauss_core import RngStream

ENVS = ("gaussian", "linear", "semibandit", "bernoulli-mixture")


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _bool_flag(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


@dataclass(frozen=True)
class CliInvocation:
    """A parsed command line, normalized so that parse/format round-trip."""

    command: str
    env: str = None
    arms: tuple = None
    dim: tuple = None
    budget: int = None
    sigma_q: tuple = None
    sigma_0: tuple = None
    noise: float = 1.0
    tasks: int = None
    rounds: int = None
    runs: int = None
    agents: tuple = None
    seed: int = 0
    common_tasks: bool = True
    out: str = None
    threads: int = 1
    mixture: str = None
    mixture_weights: tuple = None
    delta: float = None
    eta: float = None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="metabandit",
        description="Meta-learning Thompson sampling bandit simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env_flags(p, need_run):
        p.add_argument("--env", required=True, choices=ENVS)
        p.add_argument("--arms", type=_int_list, help="arm count (comma list in sweep)")
        p.add_argument("--dim", type=_int_list, help="linear dimension (comma list in sweep)")
        p.add_argument("--budget", type=int, help="semibandit arms per round")
        p.add_argument("--sigma-q", type=_float_list, dest="sigma_q",
                       help="meta-prior width(s); per-arm comma list allowed")
        p.add_argument("--sigma-0", type=_float_list, dest="sigma_0", default=(0.1,),
                       help="task-prior width(s); per-arm comma list allowed")
        p.add_argument("--noise", type=float, default=1.0)
        p.add_argument("--tasks", type=int, required=True)
        p.add_argument("--rounds", type=int, required=True)
        p.add_argument("--mixture", help="Beta components as alpha:beta;alpha:beta")
        p.add_argument("--mixture-weights", type=_float_list, dest="mixture_weights")
        p.add_argument("--config", help="key=value file overriding flags")
        if need_run:
            p.add_argument("--runs", type=int, required=True)
            p.add_argument("--agents", required=True,
                           help="comma list: ts,oracle-ts,meta-ts,ada-ts,ada-ts+,ada-ts-,ada-ts-forced")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--common-tasks", type=_bool_flag, dest="common_tasks",
                           default=True)
            p.add_argument("--out", required=True)
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility and validated; has no "
                                "effect, since every agent advances all runs together")

    run_p = sub.add_parser("run", help="run one experiment")
    add_env_flags(run_p, need_run=True)

    bound_p = sub.add_parser("bound", help="evaluate the regret bound")
    add_env_flags(bound_p, need_run=False)
    bound_p.add_argument("--delta", type=float, help="failure level; default 1/rounds**2")
    bound_p.add_argument("--eta", type=float,
                         help="exploration strength; derived from --seed's run-0 action set if omitted")
    bound_p.add_argument("--seed", type=int, default=0)

    sweep_p = sub.add_parser("sweep", help="cross-product of runs over sigma-q and arms/dim")
    add_env_flags(sweep_p, need_run=True)
    return parser


def _apply_config_file(parser, args):
    """Config files are flat key=value lines mirroring flag names; their
    values override whatever was given on the command line."""
    converters = {
        "env": str,
        "arms": _int_list,
        "dim": _int_list,
        "budget": int,
        "sigma-q": _float_list,
        "sigma-0": _float_list,
        "noise": float,
        "tasks": int,
        "rounds": int,
        "runs": int,
        "agents": str,
        "seed": int,
        "common-tasks": _bool_flag,
        "out": str,
        "threads": int,
        "mixture": str,
        "mixture-weights": _float_list,
        "delta": float,
        "eta": float,
    }
    try:
        with open(args.config, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise RuntimeError(f"cannot read config file: {err}") from err
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"bad config line {raw.strip()!r}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in converters or not hasattr(args, key.replace("-", "_")):
            parser.error(f"unknown config key {key!r}")
        try:
            setattr(args, key.replace("-", "_"), converters[key](value))
        except (ValueError, argparse.ArgumentTypeError) as err:
            parser.error(f"bad config value for {key!r}: {err}")


def parse(argv):
    """Parse argv into a CliInvocation; argparse handles usage errors."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _apply_config_file(parser, args)
    data = {"command": args.command}
    for f in fields(CliInvocation):
        if f.name == "command":
            continue
        if hasattr(args, f.name):
            data[f.name] = getattr(args, f.name)
    if data.get("agents") and isinstance(data["agents"], str):
        data["agents"] = tuple(name.strip() for name in data["agents"].split(",") if name.strip())
    inv = CliInvocation(**data)
    _validate(parser, inv)
    return inv


def _validate(parser, inv):
    for flag, widths in (("--sigma-q", inv.sigma_q), ("--sigma-0", inv.sigma_0)):
        if not all(math.isfinite(w) and w >= 0 for w in widths or ()):
            parser.error(f"{flag} widths must be finite and non-negative")
    if not (math.isfinite(inv.noise) and inv.noise > 0):
        parser.error("--noise must be finite and positive")
    for name in ("tasks", "rounds", "runs"):
        count = getattr(inv, name)
        if count is not None and count < 1:
            parser.error(f"--{name} must be at least 1")
    if inv.budget is not None and inv.arms and not 1 <= inv.budget <= min(inv.arms):
        parser.error("--budget must be between 1 and --arms")
    if inv.env == "linear":
        if not inv.dim:
            parser.error("--env linear requires --dim")
    elif inv.env in ("gaussian", "semibandit", "bernoulli-mixture"):
        if not inv.arms:
            parser.error(f"--env {inv.env} requires --arms")
    if inv.env == "semibandit" and not inv.budget:
        parser.error("--env semibandit requires --budget")
    if inv.env == "bernoulli-mixture":
        if not inv.mixture:
            parser.error("--env bernoulli-mixture requires --mixture")
        weights = inv.mixture_weights
        components = sum(1 for chunk in inv.mixture.split(";") if chunk.strip())
        if weights is not None and len(weights) != components:
            parser.error(
                f"--mixture-weights needs one weight per --mixture component "
                f"({components}), got {len(weights)}"
            )
        if weights and not (all(math.isfinite(w) and w >= 0 for w in weights) and sum(weights) > 0):
            parser.error("--mixture-weights must be finite, non-negative and not all zero")
    elif inv.command in ("run", "sweep") and not inv.sigma_q:
        parser.error(f"--env {inv.env} requires --sigma-q")
    if inv.command in ("run", "sweep"):
        for name in inv.agents or ():
            try:
                agents_mod.AgentKind.from_name(name)
            except agents_mod.UnknownAgent as err:
                parser.error(str(err))
        if inv.threads < 1:
            parser.error("--threads must be positive")
    if inv.command == "run" and inv.env != "bernoulli-mixture":
        if len(inv.sigma_q) not in (1, _param_dim(inv)):
            parser.error("--sigma-q must be scalar or one width per coordinate")


def _param_dim(inv):
    if inv.env == "linear":
        return inv.dim[0]
    return inv.arms[0]


def format_argv(inv):
    """Canonical argv for an invocation; parse(format_argv(inv)) == inv."""
    out = [inv.command, "--env", inv.env]

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    def joined(values):
        return ",".join(fmt(v) for v in values)

    if inv.arms:
        out += ["--arms", joined(inv.arms)]
    if inv.dim:
        out += ["--dim", joined(inv.dim)]
    if inv.budget:
        out += ["--budget", str(inv.budget)]
    if inv.sigma_q:
        out += ["--sigma-q", joined(inv.sigma_q)]
    out += ["--sigma-0", joined(inv.sigma_0), "--noise", fmt(inv.noise)]
    out += ["--tasks", str(inv.tasks), "--rounds", str(inv.rounds)]
    if inv.mixture:
        out += ["--mixture", inv.mixture]
    if inv.mixture_weights:
        out += ["--mixture-weights", joined(inv.mixture_weights)]
    if inv.command in ("run", "sweep"):
        out += ["--runs", str(inv.runs), "--agents", ",".join(inv.agents)]
        out += ["--seed", str(inv.seed), "--common-tasks", fmt(inv.common_tasks)]
        out += ["--out", inv.out, "--threads", str(inv.threads)]
    else:
        if inv.delta is not None:
            out += ["--delta", fmt(inv.delta)]
        if inv.eta is not None:
            out += ["--eta", fmt(inv.eta)]
        out += ["--seed", str(inv.seed)]
    return out


def _parse_mixture(text):
    alphas, betas = [], []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        alpha, _, beta = chunk.partition(":")
        alphas.append(float(alpha))
        betas.append(float(beta))
    if not alphas:
        raise RuntimeError(f"no mixture components in {text!r}")
    return alphas, betas


def build_spec(inv, sigma_q=None, arms=None, dim=None):
    """Environment spec for one cell; sweep passes per-cell overrides."""
    if inv.env == "bernoulli-mixture":
        alphas, betas = _parse_mixture(inv.mixture)
        k = arms if arms is not None else inv.arms[0]
        table_a = np.tile(np.asarray(alphas)[:, None], (1, k))
        table_b = np.tile(np.asarray(betas)[:, None], (1, k))
        return hierarchy.mixture_env(k, table_a, table_b, inv.mixture_weights)
    sigma_q = inv.sigma_q if sigma_q is None else (sigma_q,)
    width_q = sigma_q[0] if len(sigma_q) == 1 else np.asarray(sigma_q)
    width_0 = inv.sigma_0[0] if len(inv.sigma_0) == 1 else np.asarray(inv.sigma_0)
    if inv.env == "gaussian":
        k = arms if arms is not None else inv.arms[0]
        return hierarchy.gaussian_env(k, width_q, width_0, inv.noise)
    if inv.env == "linear":
        d = dim if dim is not None else inv.dim[0]
        k = arms if arms is not None else (inv.arms[0] if inv.arms else 5 * d)
        return hierarchy.linear_env(d, width_q, width_0, inv.noise, num_arms=k)
    k = arms if arms is not None else inv.arms[0]
    return hierarchy.semibandit_env(k, inv.budget, width_q, width_0, inv.noise)


def build_config(inv, spec=None):
    spec = build_spec(inv) if spec is None else spec
    kinds = tuple(agents_mod.AgentKind.from_name(name) for name in inv.agents)
    return harness.ExperimentConfig(
        spec=spec,
        agents=kinds,
        m=inv.tasks,
        n=inv.rounds,
        runs=inv.runs,
        seed=inv.seed,
        common_tasks=inv.common_tasks,
    )


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value):
    return repr(float(value))


def emit_csv(result, path):
    """Write a trace or an aggregate curve; row order is fixed by agent
    order, then run, task, round, so identical inputs give identical bytes."""
    if isinstance(result, harness.RegretTrace):
        rows = []
        for kind in result.config.agents:
            label = kind.label
            inst = result.instant[label]
            cum = result.cumulative(label)
            for run in range(inst.shape[0]):
                for s in range(result.config.m):
                    for t in range(result.config.n):
                        rows.append([
                            label, run + 1, s + 1, t + 1,
                            _cell(inst[run, s, t]), _cell(cum[run, s, t]),
                        ])
        _write_rows(path, ["agent", "run", "task", "round", "instant_regret", "cum_regret"], rows)
        return
    rows = []
    for kind in result.config.agents:
        label = kind.label
        if label not in result.mean:
            continue
        mean, err = result.mean[label], result.stderr[label]
        for s in range(result.config.m):
            for t in range(result.config.n):
                rows.append([label, s + 1, t + 1, _cell(mean[s, t]), _cell(err[s, t])])
    _write_rows(path, ["agent", "task", "round", "mean_cum_regret", "stderr"], rows)


def _derived_eta(inv):
    """Exploration strength of the spanning actions a run-0 experiment would
    pick from its sampled action set."""
    spec = build_spec(inv)
    stream = RngStream(inv.seed, harness._stream_id("tasks", "", 0))
    run_spec = harness._sample_run_actions(spec, stream)
    plan, eta = agents_mod.choose_spanning_actions(run_spec.actions)
    del plan
    return eta


def _require_finite(curve):
    """Refuse to write a curve with a non-finite cell, naming the agent."""
    for label, mean in curve.mean.items():
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(curve.stderr[label]))):
            raise RuntimeError(f"agent {label!r} has non-finite regret; no CSV written")


def _cmd_run(inv):
    config = build_config(inv)
    trace = harness.run_experiment(config)
    curve = harness.aggregate(trace)
    _require_finite(curve)
    emit_csv(curve, inv.out)
    print(inv.out)
    return 0


def _cmd_bound(inv):
    spec = build_spec(inv)
    delta = inv.delta if inv.delta is not None else 1.0 / inv.rounds**2
    if inv.env == "linear":
        eta = inv.eta if inv.eta is not None else _derived_eta(inv)
        inputs = bounds.inputs_from_env(spec, inv.tasks, inv.rounds, delta, eta=eta)
        total, terms = bounds.total_bound_linear(inputs)
    elif inv.env == "semibandit":
        inputs = bounds.inputs_from_env(spec, inv.tasks, inv.rounds, delta)
        total, terms = bounds.total_bound_semibandit(inputs)
    else:
        raise RuntimeError(f"no bound evaluator for --env {inv.env}")
    for name, value in terms.items():
        print(f"term_{name}={_cell(value)}")
    print(f"total={_cell(total)}")
    return 0


def _sweep_cells(inv):
    if inv.env == "linear":
        for sq in inv.sigma_q:
            for d in inv.dim:
                yield sq, None, d, f"sq{sq:g}_d{d}"
    else:
        for sq in inv.sigma_q or ((None,) if inv.env == "bernoulli-mixture" else ()):
            for k in inv.arms:
                yield sq, k, None, f"sq{sq:g}_K{k}" if sq is not None else f"K{k}"


def _cmd_sweep(inv):
    os.makedirs(inv.out, exist_ok=True)
    paths = []
    for sq, arms, dim, tag in _sweep_cells(inv):
        spec = build_spec(inv, sigma_q=sq, arms=arms, dim=dim)
        config = build_config(inv, spec)
        trace = harness.run_experiment(config)
        curve = harness.aggregate(trace)
        _require_finite(curve)
        path = os.path.join(inv.out, f"{inv.env}_{tag}.csv")
        emit_csv(curve, path)
        paths.append(path)
        print(path)
    if not paths:
        raise RuntimeError("sweep produced no cells; check --sigma-q/--arms/--dim")
    return 0


def main(argv=None):
    try:
        inv = parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as err:
        return err.code if err.code is not None else 2
    try:
        if inv.command == "run":
            return _cmd_run(inv)
        if inv.command == "bound":
            return _cmd_bound(inv)
        return _cmd_sweep(inv)
    except Exception as err:  # runtime failures exit 1, with a diagnostic
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
