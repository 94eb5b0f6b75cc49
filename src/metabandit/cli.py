"""Command-line front end.

Subcommands:

* ``run``    one experiment; writes an aggregate regret-curve CSV.
* ``bound``  evaluate the regret upper bound for a configuration, printing
             one ``term_<name>=<value>`` line per term plus ``total=``.
* ``sweep``  cross-product of ``run`` over comma-separated --sigma-q and
             size values (--dim for linear, --arms otherwise); one CSV per
             cell in the output directory.

The argparse parser is the only declaration of the flags: each flag's type
checks its own domain, config files are read through the same parser, and
format_argv walks it.  One table, _FAMILY_FLAGS, says which environment
flags each --env requires and reads; any other is refused.  Exit codes: 0
on success, 1 on runtime failure, 2 on usage errors.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import agents as agents_mod
from . import bounds, harness, hierarchy
from .gauss_core import SEED_BOUND


def _checked(convert, ok, rule):
    """An argparse type: `convert` the text, then require `ok(value)`."""
    def check(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
    return check


def _comma_list(item):
    """An argparse type: a non-empty comma list of `item`s, as a tuple."""
    def parse_list(text):
        values = tuple(item(v) for v in text.split(",") if v.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma list, got {text!r}")
        return values
    return parse_list


def _bool_flag(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _agent_name(text):
    try:
        return agents_mod.AgentKind.from_name(text).label
    except agents_mod.UnknownAgent as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_mixture(text):
    """Beta components 'alpha:beta;alpha:beta' as (alphas, betas); raises
    ValueError unless every alpha and beta is positive and each alpha + beta,
    which the Beta updates form, is finite."""
    alphas, betas = [], []
    for chunk in filter(str.strip, text.split(";")):
        alpha, beta = (float(v) for v in chunk.split(":"))
        alphas.append(alpha)
        betas.append(beta)
    if not (alphas and all(a > 0 and b > 0 and math.isfinite(a + b)
                           for a, b in zip(alphas, betas))):
        raise ValueError(f"bad mixture {text!r}")
    return alphas, betas


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
# widths are squared into covariances, so the square must be finite too
_width = _checked(float, lambda v: v >= 0 and math.isfinite(v * v),
                  "a number >= 0 with a finite square")
_noise = _checked(float, lambda v: v > 0 and math.isfinite(v * v),
                  "a number > 0 with a finite square")
_seed = _checked(int, lambda v: 0 <= v < SEED_BOUND, "an integer in [0, 2**53)")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_level = _checked(float, lambda v: 0 < v <= 1, "a number in (0, 1]")
_weights = _checked(_comma_list(_nonnegative), lambda w: sum(w) > 0, "weights not all zero")
_mixture = _checked(str.strip, _parse_mixture,
                    "alpha:beta;alpha:beta with alpha, beta > 0 and finite alpha + beta")


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="metabandit",
        description="Meta-learning Thompson sampling bandit simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env_flags(p, need_run):
        p.add_argument("--env", required=True, choices=hierarchy.FAMILIES)
        p.add_argument("--arms", type=_comma_list(_count),
                       help="arm count (comma list in sweep)")
        p.add_argument("--dim", type=_comma_list(_count),
                       help="linear dimension (comma list in sweep)")
        p.add_argument("--budget", type=_count, help="semibandit arms per round")
        p.add_argument("--sigma-q", type=_comma_list(_width), dest="sigma_q",
                       help="meta-prior width(s); per-arm comma list allowed")
        p.add_argument("--sigma-0", type=_comma_list(_width), dest="sigma_0",
                       help="task-prior width(s); per-arm comma list allowed")
        p.add_argument("--noise", type=_noise)
        p.add_argument("--tasks", type=_count, required=True)
        p.add_argument("--rounds", type=_count, required=True)
        if need_run:  # bound has no mixture family
            p.add_argument("--mixture", type=_mixture,
                           help="Beta components as alpha:beta;alpha:beta")
            p.add_argument("--mixture-weights", type=_weights, dest="mixture_weights")
        p.add_argument("--config", help="key=value file overriding flags")
        if need_run:
            p.add_argument("--runs", type=_count, required=True)
            p.add_argument("--agents", type=_comma_list(_agent_name), required=True,
                           help="comma list: ts,oracle-ts,meta-ts,ada-ts,ada-ts+,ada-ts-,ada-ts-forced")
            p.add_argument("--seed", type=_seed, default=0)
            p.add_argument("--common-tasks", type=_bool_flag, dest="common_tasks",
                           default=True)
            p.add_argument("--out", required=True)
            p.add_argument("--threads", type=_count, default=1,
                           help="accepted for compatibility and validated; has no "
                                "effect, since every agent advances all runs together")

    run_p = sub.add_parser("run", help="run one experiment")
    add_env_flags(run_p, need_run=True)

    bound_p = sub.add_parser("bound", help="evaluate the regret bound")
    add_env_flags(bound_p, need_run=False)
    bound_p.add_argument("--delta", type=_level, help="failure level; default 1/rounds**2")
    bound_p.add_argument("--eta", type=_positive,
                         help="exploration strength; derived from --seed's run-0 action set if omitted")
    bound_p.add_argument("--seed", type=_seed,
                         help="seed of the run-0 action set that a linear bound without "
                              "--eta derives it from; default 0")

    sweep_p = sub.add_parser("sweep", help="cross-product of runs over sigma-q and arms/dim")
    add_env_flags(sweep_p, need_run=True)
    return parser, sub.choices


def _config_argv(parser, path):
    """A config file's flat key=value lines (keys are the subcommand's long
    flags, less --config and --help; '#' starts a comment) as --key=value
    arguments, so each value passes its flag's own type and choices."""
    keys = {opt for action in parser._actions for opt in action.option_strings
            if opt.startswith("--")} - {"--config", "--help"}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        parser.error(f"argument --config: cannot read {path!r}: {err.strerror}")
    argv = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            parser.error(f"bad config line {raw.strip()!r}: expected key=value")
        if f"--{key}" not in keys:
            parser.error(f"unknown config key {key!r}")
        argv.append(f"--{key}={value}")
    return argv


def parse(argv):
    """Parse argv into an argparse Namespace with `command` set.  Config-file
    values override the command line; usage errors exit 2 through argparse."""
    parser, commands = _build_parser()
    argv = list(argv)
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(argv + _config_argv(commands[args.command], args.config))
    del args.config
    _validate(commands[args.command], args)
    return args


# The flags each family reads, as dest -> whether it is required.  A flag of
# this table that --env does not read is a usage error, not ignored.
_FAMILY_FLAGS = {
    hierarchy.GAUSSIAN: {"arms": True, "sigma_q": True, "sigma_0": False, "noise": False},
    hierarchy.LINEAR: {"dim": True, "arms": False, "sigma_q": True, "sigma_0": False,
                       "noise": False, "eta": False},
    hierarchy.SEMIBANDIT: {"arms": True, "budget": True, "sigma_q": True, "sigma_0": False,
                           "noise": False},
    hierarchy.BERNOULLI_MIXTURE: {"arms": True, "mixture": True, "mixture_weights": False},
}


def _validate(parser, inv):
    """Rules that join several flags; each flag's own domain is its type."""
    if inv.command == "bound" and inv.env not in (hierarchy.LINEAR, hierarchy.SEMIBANDIT):
        parser.error(f"--env {inv.env} has no regret bound; use linear or semibandit")
    if inv.command == "bound" and inv.seed is not None and (
            inv.env != hierarchy.LINEAR or inv.eta is not None):
        parser.error("--seed applies to a linear bound without --eta only: "
                     "it seeds the action set that --eta is derived from")
    reads = _FAMILY_FLAGS[inv.env]
    for dest in dict.fromkeys(dest for flags in _FAMILY_FLAGS.values() for dest in flags):
        flag = "--" + dest.replace("_", "-")
        given = getattr(inv, dest, None) is not None
        if given and dest not in reads:
            parser.error(f"{flag} does not apply to --env {inv.env}")
        if not given and reads.get(dest):
            parser.error(f"--env {inv.env} requires {flag}")
    size_flag = "--dim" if inv.env == hierarchy.LINEAR else "--arms"
    for flag in ("--arms", "--dim"):
        if len(getattr(inv, flag[2:]) or ()) > 1:
            if inv.command != "sweep":
                parser.error(f"{flag} takes one value in {inv.command}; sweep takes a list")
            if flag != size_flag:
                parser.error(f"{flag} takes one value with --env {inv.env}; "
                             f"sweep lists {size_flag}")
    sizes = getattr(inv, size_flag[2:])
    if inv.env == hierarchy.LINEAR and inv.arms and inv.arms[0] < max(sizes) and (
            agents_mod.ADA_TS_FORCED in getattr(inv, "agents", ())
            or inv.command == "bound" and inv.eta is None):
        parser.error(f"--arms {inv.arms[0]} actions cannot span R^{max(sizes)} (--dim); "
                     f"ada-ts-forced explores a spanning set, and bound derives --eta from one")
    if inv.budget is not None and inv.budget > min(inv.arms):
        parser.error("--budget must be between 1 and --arms")
    if inv.env == hierarchy.BERNOULLI_MIXTURE:
        components = len(_parse_mixture(inv.mixture)[0])
        if inv.mixture_weights and len(inv.mixture_weights) != components:
            parser.error(
                f"--mixture-weights needs one weight per --mixture component "
                f"({components}), got {len(inv.mixture_weights)}"
            )
    else:
        # sweep's --sigma-q lists one width per cell and its --arms/--dim one
        # size per cell; run and bound have a single size
        cells = set(sizes)
        per_coordinate = {"--sigma-0": inv.sigma_0 or ()}
        if inv.command != "sweep":
            per_coordinate["--sigma-q"] = inv.sigma_q
        for flag, widths in per_coordinate.items():
            if len(widths) > 1 and cells != {len(widths)}:
                parser.error(f"{flag} must be scalar or one width per coordinate")
    labels = getattr(inv, "agents", ())
    for name in labels:
        if labels.count(name) > 1:
            parser.error(f"--agents lists {name} more than once")
        try:
            agents_mod.require_family(agents_mod.AgentKind.from_name(name), inv.env)
        except agents_mod.UnknownAgent as err:
            parser.error(f"--agents: {err}")
    # refuse an --out that cannot be written before any run is made
    if inv.command == "run" and os.path.isdir(inv.out):
        parser.error(f"--out {inv.out!r} is a directory; run writes one CSV file")
    if inv.command == "run" and not os.path.isdir(os.path.dirname(inv.out) or os.curdir):
        parser.error(f"--out {inv.out!r} is in a directory that does not exist")
    if inv.command == "sweep" and os.path.exists(inv.out) and not os.path.isdir(inv.out):
        parser.error(f"--out {inv.out!r} exists and is not a directory; "
                     f"sweep writes one CSV per cell into a directory")
    if inv.command == "sweep":
        names = [name for name, _ in _sweep_cells(inv)]
        for name in names:
            if names.count(name) > 1:
                parser.error(f"two sweep cells would write {name}: their sizes, or "
                             f"their widths in :g format, must differ")


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(map(_format_value, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def format_argv(inv):
    """Canonical argv for a parsed invocation: every flag it holds, in the
    order of the subcommand's parser; parse(format_argv(inv)) == inv."""
    argv = [inv.command]
    for action in _build_parser()[1][inv.command]._actions:
        value = getattr(inv, action.dest, None)
        if action.option_strings and value is not None:
            argv += [action.option_strings[0], _format_value(value)]
    return argv


def build_spec(inv):
    """Environment spec of a parsed invocation or of one sweep cell."""
    if inv.env == "bernoulli-mixture":
        alphas, betas = _parse_mixture(inv.mixture)
        k = inv.arms[0]
        table_a = np.tile(np.asarray(alphas)[:, None], (1, k))
        table_b = np.tile(np.asarray(betas)[:, None], (1, k))
        return hierarchy.mixture_env(k, table_a, table_b, inv.mixture_weights)
    width_q = inv.sigma_q[0] if len(inv.sigma_q) == 1 else np.asarray(inv.sigma_q)
    sigma_0 = inv.sigma_0 or (0.1,)
    width_0 = sigma_0[0] if len(sigma_0) == 1 else np.asarray(sigma_0)
    noise = 1.0 if inv.noise is None else inv.noise
    if inv.env == "gaussian":
        return hierarchy.gaussian_env(inv.arms[0], width_q, width_0, noise)
    if inv.env == "linear":
        d = inv.dim[0]
        k = inv.arms[0] if inv.arms else 5 * d
        return hierarchy.linear_env(d, width_q, width_0, noise, num_arms=k)
    return hierarchy.semibandit_env(inv.arms[0], inv.budget, width_q, width_0, noise)


def build_config(inv):
    kinds = tuple(agents_mod.AgentKind.from_name(name) for name in inv.agents)
    return harness.ExperimentConfig(
        spec=build_spec(inv),
        agents=kinds,
        m=inv.tasks,
        n=inv.rounds,
        runs=inv.runs,
        seed=inv.seed,
        common_tasks=inv.common_tasks,
    )


def _cell(value):
    return repr(float(value))


def emit_csv(curve, path):
    """Write an aggregate curve, one row per agent, task and round in agent
    order, each float as its shortest round-trip repr, so identical inputs
    give identical bytes."""
    lines = ["agent,task,round,mean_cum_regret,stderr"]
    for kind in curve.config.agents:
        label = kind.label
        if label not in curve.mean:
            continue
        mean, err = curve.mean[label].tolist(), curve.stderr[label].tolist()
        for s, (mean_row, err_row) in enumerate(zip(mean, err), 1):
            lines += [f"{label},{s},{t},{x!r},{e!r}"
                      for t, (x, e) in enumerate(zip(mean_row, err_row), 1)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("\r\n".join(lines) + "\r\n")


def _derived_eta(inv):
    """Exploration strength of the spanning actions a run-0 experiment would
    pick from its sampled action set."""
    stream = harness.stream(inv.seed or 0, "tasks", "", 0)
    actions = hierarchy.sample_actions(build_spec(inv), stream)
    return agents_mod.choose_spanning_actions(actions)[1]


def _require_finite(curve):
    """Refuse to write a curve with a non-finite cell, naming the agent."""
    for label, mean in curve.mean.items():
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(curve.stderr[label]))):
            raise RuntimeError(f"agent {label!r} has non-finite regret; no CSV written")


def _write_curve(inv, path):
    curve = harness.aggregate(harness.run_experiment(build_config(inv)))
    _require_finite(curve)
    emit_csv(curve, path)
    print(path)


def _cmd_run(inv):
    _write_curve(inv, inv.out)
    return 0


def _cmd_bound(inv):
    """Linear or semibandit only; _validate rejects the other families."""
    if inv.env == "linear":
        eta = inv.eta if inv.eta is not None else _derived_eta(inv)
        total_bound = bounds.total_bound_linear
    else:
        eta, total_bound = None, bounds.total_bound_semibandit
    total, terms = total_bound(
        bounds.inputs_from_env(build_spec(inv), inv.tasks, inv.rounds, inv.delta, eta=eta)
    )
    lines = {**{f"term_{name}": value for name, value in terms.items()}, "total": total}
    for key, value in lines.items():
        if not math.isfinite(value):
            raise RuntimeError(f"bound {key} is {value}; nothing printed")
    for key, value in lines.items():
        print(f"{key}={_cell(value)}")
    return 0


def _sweep_cells(inv):
    """A sweep's cells as (file name, cell): each cell is `inv` with one
    --sigma-q width and one size on the family's size flag, --dim or --arms.
    The name tags the width in `:g` format, so two widths it prints alike
    name one file, which _validate refuses."""
    size, letter = ("dim", "d") if inv.env == hierarchy.LINEAR else ("arms", "K")
    for sq in inv.sigma_q or (None,):  # only the mixture family has none
        for value in getattr(inv, size):
            tag = f"{letter}{value}" if sq is None else f"sq{sq:g}_{letter}{value}"
            widths = inv.sigma_q if sq is None else (sq,)
            cell = argparse.Namespace(**{**vars(inv), "sigma_q": widths, size: (value,)})
            yield f"{inv.env}_{tag}.csv", cell


def _cmd_sweep(inv):
    os.makedirs(inv.out, exist_ok=True)
    for name, cell in _sweep_cells(inv):
        _write_curve(cell, os.path.join(inv.out, name))
    return 0


def main(argv=None):
    try:
        inv = parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as err:
        return err.code if err.code is not None else 2
    try:
        return {"run": _cmd_run, "bound": _cmd_bound, "sweep": _cmd_sweep}[inv.command](inv)
    except Exception as err:  # runtime failures exit 1, with a diagnostic
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
