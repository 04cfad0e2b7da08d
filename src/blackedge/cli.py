"""Command-line interface for attacks, defenses and report inspection."""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from .attack import AttackConfig
from .datasets import DatasetBundle, generate_synthetic, load_tudataset
from .errors import BlackedgeError, ConfigError
from .gin import GinOracle, GinWeights
from .harness import defense_sweep, budget_sweep, rows_to_csv, run_experiment
from .oracle import structural_oracle
from .partition import STRATEGIES


# most fields, kind included, of each synthetic spec form
_SPEC_FIELDS = {"er": 5, "barbell": 3, "sbm": 6}


def _parse_dataset(spec: str, name: str | None) -> DatasetBundle:
    """Path to a TU directory or bundle JSON, or a synthetic spec.

    Synthetic specs: ``er:<n>:<p>:<count>[:<seed>]``,
    ``barbell:<k>:<count>`` or ``sbm:<s1+s2+..>:<p_in>:<p_out>:<count>[:<seed>]``;
    a spec with more fields than its form allows is a ``ConfigError``.
    """
    path = Path(spec)
    if path.is_dir():
        if name is None:
            raise ConfigError("TU datasets need --name")
        return load_tudataset(path, name)
    if path.is_file():
        return DatasetBundle.load(path)
    parts = spec.split(":")
    kind = parts[0]
    if len(parts) > _SPEC_FIELDS.get(kind, len(parts)):
        raise ConfigError(f"synthetic spec {spec!r} has too many fields")
    try:
        if kind == "er":
            n, p, count = int(parts[1]), float(parts[2]), int(parts[3])
            seed = int(parts[4]) if len(parts) > 4 else 0
            return generate_synthetic("erdos_renyi", count, seed, n=n, p=p)
        if kind == "barbell":
            return generate_synthetic("barbell", int(parts[2]), 0, k=int(parts[1]))
        if kind == "sbm":
            sizes = [int(s) for s in parts[1].split("+")]
            p_in, p_out, count = float(parts[2]), float(parts[3]), int(parts[4])
            seed = int(parts[5]) if len(parts) > 5 else 0
            return generate_synthetic("sbm", count, seed, sizes=sizes,
                                      p_in=p_in, p_out=p_out)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad synthetic spec {spec!r}") from exc
    raise ConfigError(f"dataset {spec!r} is neither a path nor a synthetic spec")


def _parse_oracle(spec: str):
    """``gin:<weights.json>`` or ``structural:<feature>:<threshold>``.

    Only the first ``:`` separates the kind, so a weights path may contain
    colons.
    """
    parts = spec.split(":", 1)
    if parts[0] == "gin":
        if len(parts) < 2 or not Path(parts[1]).is_file():
            raise ConfigError(f"gin oracle spec {spec!r} names no weights file")
        return GinOracle(GinWeights.load(parts[1]))
    if parts[0] == "structural":
        try:
            feature, threshold = parts[1].split(":")
            return structural_oracle(feature, int(threshold))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"bad structural oracle spec {spec!r}") from exc
    raise ConfigError(f"unknown oracle spec {spec!r}")


def _parse_sweep(spec: str) -> list[float]:
    """``lo:hi:step`` with finite ``lo <= hi`` and a ``step > 0`` that divides
    ``hi - lo``: ``lo + k * step`` from ``lo`` to ``hi``, both ends kept."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"sweep spec {spec!r} is not lo:hi:step") from exc
    if not np.isfinite([lo, hi, step]).all() or step <= 0.0 or hi < lo:
        raise ConfigError(
            f"sweep spec {spec!r} needs finite lo <= hi and step > 0"
        )
    n = round((hi - lo) / step)
    if abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        raise ConfigError(f"sweep spec {spec!r}: step {step} does not divide hi - lo")
    return list(np.round(lo + step * np.arange(n + 1), 10))


dataset_option = click.option("--dataset", required=True,
                              help="TU directory, bundle JSON, or synthetic spec")
name_option = click.option("--name", default=None, help="TU dataset name")
oracle_option = click.option("--oracle", "oracle_spec", required=True,
                             help="gin:weights.json or structural:feature:threshold")
# an option that sets an AttackConfig field defaults to that field's default
budget_option = click.option("--budget", type=float, default=AttackConfig.budget,
                             show_default=True)
seed_option = click.option("--seed", type=int, default=AttackConfig.seed, show_default=True)


class _Main(click.Group):
    """Reports a ``BlackedgeError`` as a one-line error, without a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BlackedgeError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Hard-label black-box structural attacks on graph classifiers."""


@main.command()
@dataset_option
@name_option
@oracle_option
@budget_option
@click.option("--strategy", type=click.Choice(STRATEGIES), default=AttackConfig.strategy,
              show_default=True)
@click.option("--Q", "q_directions", type=int, default=AttackConfig.directions_per_step,
              show_default=True, help="probe directions per iteration")
@click.option("--mu", type=float, default=AttackConfig.smoothing, show_default=True)
@click.option("--T", "iterations", type=int, default=AttackConfig.iterations,
              show_default=True)
@click.option("--epsilon", type=float, default=AttackConfig.epsilon, show_default=True)
@seed_option
@click.option("--max-queries", type=int)
@click.option("--target-label", type=int,
              help="targeted attack toward this label")
@click.option("--n-trials", type=int, default=1, show_default=True)
@click.option("--budget-sweep", "sweep_spec", default=None,
              help="lo:hi:step; emit SR/AP per budget instead of one run")
@click.option("--out", type=click.Path(), default="report.json", show_default=True)
def attack(dataset, name, oracle_spec, budget, strategy, q_directions, mu,
           iterations, epsilon, seed, max_queries, target_label, n_trials,
           sweep_spec, out):
    """Run the sign-SGD attack over a dataset and write a report."""
    if sweep_spec is not None and n_trials != 1:
        raise ConfigError(f"--budget-sweep runs one trial per target, got --n-trials {n_trials}")
    bundle = _parse_dataset(dataset, name)
    oracle = _parse_oracle(oracle_spec)
    cfg = AttackConfig(
        budget=budget, iterations=iterations, directions_per_step=q_directions,
        smoothing=mu, epsilon=epsilon, seed=seed, max_queries=max_queries,
        target_label=target_label, strategy=strategy,
    )
    if sweep_spec is not None:
        rows = budget_sweep(oracle, bundle.graphs, cfg, _parse_sweep(sweep_spec))
        Path(out).write_text(json.dumps(rows, indent=2))
        csv_path = Path(out).with_suffix(".csv")
        csv_path.write_text(rows_to_csv(rows))
        click.echo(f"budget sweep written to {out} and {csv_path}")
        return
    report = run_experiment(oracle, bundle.graphs, cfg, n_trials=n_trials)
    report.save(out)
    click.echo(json.dumps(report.aggregates, indent=2))


@main.command()
@dataset_option
@name_option
@oracle_option
@click.option("--gamma-sweep", "gamma_spec", default="0.05:1.0:0.05",
              show_default=True, help="lo:hi:step over kept-spectrum fraction")
@click.option("--attack-sr/--no-attack-sr", default=False, show_default=True,
              help="also measure attack SR per gamma (slow)")
@budget_option
@seed_option
@click.option("--out", type=click.Path(), default="defense.csv", show_default=True)
def defend(dataset, name, oracle_spec, gamma_spec, attack_sr, budget, seed, out):
    """Sweep the low-rank defense strength and write a CSV."""
    bundle = _parse_dataset(dataset, name)
    oracle = _parse_oracle(oracle_spec)
    cfg = AttackConfig(budget=budget, seed=seed) if attack_sr else None
    rows = defense_sweep(oracle, bundle.graphs, _parse_sweep(gamma_spec), cfg)
    Path(out).write_text(rows_to_csv(rows))
    click.echo(f"defense sweep written to {out}")


@main.command("eval")
@click.option("--report", "report_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def eval_report(report_path):
    """Print the aggregate metrics of a saved report; a budget sweep's rows
    are printed as they are."""
    try:
        doc = json.loads(Path(report_path).read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"report {report_path} is not JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("aggregates", doc)
    click.echo(json.dumps(doc, indent=2))


@main.command("baseline-random")
@dataset_option
@name_option
@oracle_option
@click.option("--query-budget", type=int, required=True)
@budget_option
@seed_option
@click.option("--out", type=click.Path(), default="random_report.json",
              show_default=True)
def baseline_random(dataset, name, oracle_spec, query_budget, budget, seed, out):
    """Run the matched-budget random baseline."""
    bundle = _parse_dataset(dataset, name)
    oracle = _parse_oracle(oracle_spec)
    cfg = AttackConfig(budget=budget, seed=seed)
    report = run_experiment(oracle, bundle.graphs, cfg, method="random",
                            random_query_budget=query_budget)
    report.save(out)
    click.echo(json.dumps(report.aggregates, indent=2))


if __name__ == "__main__":
    main()
