"""Experiment runner: seeded, reproducible, CSV + JSON emission.

Every subcommand accepts a JSON config file (``--config``) whose keys are the
command's flag names without the dashes (``member`` included); its flags
override the file.  A seed that neither gives falls back to the HARITY_SEED
environment variable, then to "harity".  Each run writes ``<out>.csv`` (one
header row, then one row per sweep point or aggregate; byte-identical across
reruns with the same config and seed) and ``<out>.json`` (schema-versioned
summary with the config echo, the git description, and the wall time).

Exit codes: 0 success; 2 config error (a bad flag or config value, a config
file that is unreadable or not a JSON object, an unknown family, an
unreadable or malformed ``partition:`` table, a ``--member`` out of range,
a ``--m`` sweep given to a command that takes one size, an ``--out`` path
that cannot be written); 3 infeasible instance (a cap was exceeded, the
command does not handle the family, or the library raised ``ValueError``).

Each subcommand is a ``build(merged) -> (header, rows)`` function registered
with ``command``; the scaffold alone merges the config, maps errors to exit
codes and emits the files.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import click

from . import (
    adversaries,
    dims,
    families,
    indexing,
    learners,
    losses,
    reductions,
    sampler,
    templates,
)
from .hypotheses import Hypothesis, canonical_key, partize_class, partize_hypothesis

SCHEMA_VERSION = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

FAMILIES = ("matching", "bdeg", "dist", "maxg", "highorder")

_OPEN_UNIT = click.FloatRange(0, 1, min_open=True, max_open=True)

# option name -> click type, shared by the flags and the config file's values
OPTIONS = {
    "family": click.STRING,  # a FAMILIES name or partition:PATH
    "n": click.IntRange(min=1),
    "d": click.IntRange(min=0),
    "m": None,  # one size or a comma-separated sweep; a config may give a list
    "eps": _OPEN_UNIT,
    "delta": _OPEN_UNIT,
    "trials": click.IntRange(min=1),
    "member": click.INT,
    "direction": click.Choice(["partize", "departize"]),
}


class Infeasible(Exception):
    pass


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise click.UsageError("config must be a JSON object")
    return cfg


def _resolve(cfg, overrides):
    """Lay the flags that were given over the config file, and parse the
    command's options with the types in ``OPTIONS``."""
    merged = dict(cfg)
    merged.update((key, value) for key, value in overrides.items() if value is not None)
    seed = merged.get("seed")
    if seed is None:
        seed = os.environ.get("HARITY_SEED") or "harity"
    merged["seed"] = str(seed)
    for key in overrides:
        if OPTIONS.get(key) is not None and key in merged:
            try:
                merged[key] = OPTIONS[key](merged[key])
            except (click.BadParameter, TypeError):
                raise click.UsageError(f"{key}: bad value {merged[key]!r}") from None
    return merged


def _vertex_pair(key):
    """The two distinct vertices a partition table's key ``u-v`` names."""
    pair = frozenset(map(int, key.split("-")))
    if len(pair) != 2 or key.count("-") != 1:
        raise ValueError(f"key {key!r} does not name two distinct vertices u-v")
    return pair


def _pair_table(items):
    """A partition table's JSON object as {vertex pair: class}; a pair named
    twice, by one key or as both u-v and v-u, is an error."""
    table = {_vertex_pair(k): v for k, v in items}
    if len(table) < len(items):
        raise ValueError("a vertex pair is named twice")
    return table


def _family(merged):
    name = merged.get("family", "matching")
    if name.startswith("partition:"):
        path = name.split(":", 1)[1]
        try:
            with open(path) as fh:
                table = json.load(fh, object_pairs_hook=_pair_table)
            kinds = {type(c) for c in table.values()}
        except (OSError, ValueError, AttributeError) as exc:
            msg = f"cannot read partition table {path}: {exc}"
            raise click.UsageError(msg) from None
        if kinds - {int} and kinds - {str}:
            msg = f"partition table {path}: classes must be all ints or all strings"
            raise click.UsageError(msg)
        n = max((max(p) for p in table), default=0) + 1
        if any(frozenset(p) not in table for p in combinations(range(n), 2)):
            raise click.UsageError(f"partition table {path} misses a vertex pair")
        return families.partition_family(n, lambda e: table[e], name="partition")
    if name not in FAMILIES:
        raise click.UsageError(
            f"unknown family {name!r}; choose one of {', '.join(FAMILIES)}"
            " or partition:PATH"
        )
    params = {key: merged[key] for key in ("n", "d") if merged.get(key) is not None}
    return families.build_family(name, **params)


def _scenario(merged):
    """The class, the uniform scenario of the chosen member, and the 0/1
    loss."""
    cls = _family(merged).cls
    member = merged.get("member", 0)
    if not 0 <= member < len(cls.members):
        raise click.UsageError(f"member must lie in [0, {len(cls.members)})")
    sc = sampler.Scenario(templates.uniform_prob(cls.template), cls.members[member])
    return cls, sc, losses.zero_one_loss(cls.labels, cls.k)


def _emit(out, command, merged, rows, header, started):
    csv_path = out + ".csv"
    json_path = out + ".json"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {k: merged[k] for k in sorted(merged)},
        "git_describe": _git_describe(),
        "wall_time_s": round(time.time() - started, 3),
        "csv": csv_path,
        "rows": len(rows),
    }
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {csv_path} and {json_path}")


def _m_list(merged, default):
    m = merged.get("m", default)
    sizes = m if isinstance(m, (list, tuple)) else str(m).split(",")
    try:
        out = [int(v) for v in sizes]
    except (TypeError, ValueError):
        msg = f"m must be a size or a comma-separated list, not {m!r}"
        raise click.UsageError(msg) from None
    if not out or min(out) < 1:
        raise click.UsageError(f"m must be a positive size, not {m!r}")
    return out


def _m_one(merged, default):
    """The one sample size of a command that takes no sweep."""
    sizes = _m_list(merged, default)
    if len(sizes) > 1:
        raise click.UsageError(f"m must be one size here, not {merged['m']!r}")
    return sizes[0]


def _float_str(x):
    return f"{float(x):.6g}"


@click.group()
def main():
    """Experiment runner for high-arity learning simulations."""


def command(name, *option_names):
    """Register ``build(merged) -> (header, rows)`` as the subcommand ``name``
    with ``--out/--seed/--config`` and the named ``OPTIONS``.  This is the one
    place that resolves the config, maps errors to exit codes and emits."""

    def register(build):
        def run(config, **flags):
            started = time.time()
            try:
                merged = _resolve(_load_config(config), flags)
                header, rows = build(merged)
                out = str(merged.get("out") or f"harity-{name}")
                _emit(out, name, merged, rows, header, started)
            except (click.UsageError, OSError) as exc:
                click.echo(str(exc), err=True)
                sys.exit(EXIT_CONFIG)
            except (Infeasible, ValueError) as exc:
                click.echo(f"infeasible: {exc}", err=True)
                sys.exit(EXIT_INFEASIBLE)

        params = [
            click.Option(["--out"]),
            click.Option(["--seed"]),
            click.Option(["--config"], type=click.Path(exists=True)),
        ]
        params += [click.Option([f"--{k}"], type=OPTIONS[k]) for k in option_names]
        cmd = click.Command(name, callback=run, params=params, help=build.__doc__)
        main.add_command(cmd)
        return cmd

    return register


@command("dims", "family", "n", "d")
def dims_cmd(merged):
    """Dimension report for one family or every built-in default."""
    if merged.get("family"):
        specs = [_family(merged)]
    else:
        specs = [families.build_family(name) for name in FAMILIES]
    rows = []
    for spec in specs:
        measured = dims.vcn_k(spec.cls, cap=12)
        expected = (spec.metadata or {}).get("vcn2")
        shown = (
            f">={int(measured)}" if isinstance(measured, dims.AtLeast)
            else int(measured)
        )
        if expected is None:
            ok = ""
        elif isinstance(measured, dims.AtLeast):
            ok = int(int(measured) <= expected)
        else:
            ok = int(int(measured) == expected)
        params = json.dumps(spec.params, sort_keys=True)
        shown_expected = "" if expected is None else expected
        rows.append([spec.name, params, "vcn2", shown, shown_expected, ok])
    return ["family", "params", "metric", "measured", "expected", "ok"], rows


@command("sample", "family", "n", "d", "m", "member")
def sample_cmd(merged):
    """Draw one labeled sample from a family scenario."""
    _, sc, _ = _scenario(merged)
    mm = _m_one(merged, "4")
    x, y = sampler.labeled_sample(sc, mm, sampler.stream(merged["seed"], 0))
    rows = [["x", indexing.encode_config(x), ""]]
    rows += [["y", str(key), str(y[key])] for key in sorted(y)]
    return ["kind", "index", "value"], rows


def _sweep(merged, default_m, frequency):
    """One row per sample size: ``frequency(m, eps, trials)`` against the
    1 - delta bound."""
    epsv = Fraction(str(merged.get("eps", 0.2)))
    deltav = merged.get("delta", 0.2)
    ntrials = merged.get("trials", 200)
    rows = [
        [
            mm,
            _float_str(epsv),
            _float_str(deltav),
            ntrials,
            _float_str(frequency(mm, epsv, ntrials)),
            _float_str(1 - deltav),
        ]
        for mm in _m_list(merged, default_m)
    ]
    return ["m", "eps", "delta", "trials", "success_freq", "bound"], rows


@command("learn", "family", "n", "d", "m", "eps", "delta", "trials", "member")
def learn_cmd(merged):
    """ERM success-frequency sweep."""
    cls, sc, ell = _scenario(merged)
    A = learners.erm(cls, ell)
    return _sweep(
        merged,
        "10,20,40",
        lambda m, eps, trials: learners.estimate_pac_success(
            A, sc, ell, m, eps, trials, merged["seed"]
        ),
    )


@command("verify-uc", "family", "n", "d", "m", "eps", "delta", "trials", "member")
def verify_uc_cmd(merged):
    """Uniform-convergence (representativeness) frequency sweep."""
    cls, sc, ell = _scenario(merged)
    if cls.partite:
        raise Infeasible("verify-uc handles non-partite families")
    return _sweep(
        merged,
        "10,20,40,80",
        lambda m, eps, trials: learners.check_uniform_convergence(
            sc, cls, ell, m, eps, trials, merged["seed"]
        ).frequency,
    )


@command("nofreelunch", "d", "m", "eps", "trials")
def nfl_cmd(merged):
    """Worst-case adversary failure frequency vs. the displayed bound."""
    dd = merged.get("d", 20)
    mm = _m_one(merged, "5")
    epsv = Fraction(str(merged.get("eps", 0.1)))
    ntrials = merged.get("trials", 2000)
    if dd < 1:
        raise click.UsageError(f"d must be a positive size, not {dd!r}")
    if dd > 24:
        raise Infeasible("d capped at 24")
    sc = adversaries.shattered_scenario(dd)
    A = adversaries.erm_learner(sc)
    bound = adversaries.nfl_lower_bound(epsv, mm, dd)
    _, measured = adversaries.nfl_worst_F(A, sc, mm, epsv, ntrials, merged["seed"])
    sigma = math.sqrt(max(float(bound) * (1 - float(bound)), 1e-12) / ntrials)
    rows = [[dd, mm] + [_float_str(v) for v in (epsv, bound, measured, 3 * sigma)]]
    return ["d", "m", "eps", "bound", "measured", "slack"], rows


@command("reduce", "direction", "family", "n", "d")
def reduce_cmd(merged):
    """Partization / departization reports."""
    if merged.get("direction", "partize") == "partize":
        cls = _family(merged).cls
        if cls.partite:
            raise Infeasible("family already partite")
        if len(cls.members) > 2**10:
            raise Infeasible("class too large for the exact report")
        pcls = partize_class(cls)
        ell = losses.zero_one_loss(cls.labels, cls.k)
        mu = templates.uniform_prob(cls.template)
        F, H = cls.members[0], cls.members[-1]
        before = losses.total_loss(mu, F, ell, H)
        after = losses.total_loss_partite(
            templates.partize_prob(mu, cls.k),
            partize_hypothesis(F),
            ell,
            partize_hypothesis(H),
        )
        rows = [
            ["vcn2_before", int(dims.vcn_k(cls))],
            ["vcn2_after", int(dims.vcn_k(pcls))],
            ["loss_before", _float_str(before)],
            ["loss_after", _float_str(after)],
            ["loss_identity_ok", int(before == after)],
        ]
        return ["metric", "value"], rows
    # departize: exact tiny-instance oracle report at k = m = 2
    t = templates.Template(2, (2, 1))
    mu = templates.ProbTemplate(t, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1),)))
    mu2 = templates.ProbTemplate(t, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1),)))
    tj = templates.product_template(t, t)
    F = Hypothesis(
        2,
        tj,
        (0, 1),
        lambda x: (x[(1,)] + x[(2,)]) % 2,
        name="F",
        declared_rank=1,
    )
    Fp = partize_hypothesis(F)
    lawA = reductions.departize_construction_law(
        templates.partize_prob(mu, 2), templates.partize_prob(mu2, 2), Fp, 2, 2
    )
    lawB = reductions.departize_discrete_law(mu, mu2, Fp, 2, 2)
    rows = [
        ["p", _float_str(reductions.departize_p(2))],
        ["randomness_count", reductions.departize_r(lambda m: 1, 2, 2)],
        ["law_atoms", len(lawA)],
        ["laws_equal", int(lawA == lawB)],
    ]
    return ["metric", "value"], rows


@command("ramsey", "n", "trials")
def ramsey_cmd(merged):
    """Clean-subset search over random instances."""
    nn = merged.get("n", 4)
    if nn > 6:
        raise Infeasible("n capped at 6")
    rho = adversaries.ramsey_rho(nn)
    rows = []
    for t in range(merged.get("trials", 100)):
        rng = sampler.stream(merged["seed"], t)
        f1 = rng.sample(range(10 * rho), rho)
        f2 = {
            frozenset(p): rng.randrange(3 * rho)
            for p in combinations(range(rho), 2)
        }
        U = adversaries.find_clean_subset(f1, f2, nn)
        ok = adversaries.verify_clean_subset(f1, f2, U)
        rows.append([t, nn, rho, ",".join(map(str, U)), int(ok)])
    return ["trial", "n", "rho", "subset", "ok"], rows


@command("bayes", "trials")
def bayes_cmd(merged):
    """Exact agnostic loss of the Bayes predictor on random small scenarios."""
    t1 = templates.Template(2, (2, 2))
    t2 = templates.Template(2, (2, 1))
    mu = templates.uniform_prob(t1)
    mu2 = templates.uniform_prob(t2)
    tj = templates.product_template(t1, t2)
    ell = losses.zero_one_loss((0, 1), 2)
    ag = losses.wrap_agnostic(ell)
    rows = []
    for t in range(merged.get("trials", 5)):
        rng = sampler.stream(merged["seed"], t)
        table = {canonical_key(x): rng.randrange(2) for x in templates.config_points(tj, 2)}
        F = Hypothesis(
            2, tj, (0, 1), lambda x, tab=table: tab[canonical_key(x)], name=f"F{t}"
        )
        B = losses.bayes_predictor(mu, mu2, F, ell)
        rows.append([t, _float_str(losses.total_loss_ag(mu, mu2, F, ag, B))])
    return ["scenario", "bayes_loss"], rows


if __name__ == "__main__":
    main()
