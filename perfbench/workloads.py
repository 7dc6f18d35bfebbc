"""The benchmark's four workloads.

``build(name, seed, env)`` constructs a workload's families, scenarios and
learners and returns ``round_ops(r)``, which gives round r's list of
operations.  Round r of seed s draws all its random instances from
``random.Random(f"perfbench/{s}/{r}/...")`` when it is built, before any of
its operations runs, never lazily in evaluation order; an operation with id
``i`` passes ``f"perfbench/{s}/{i}"`` to harity as its Monte Carlo seed.  Each operation calls harity's public entry
points the way the ``harity`` runner and the acceptance criteria call them,
and its exact result is checked twice: against the reference pinned for the
seed in ``references.json``, when there is one, and against an invariant that
holds for every seed.

Trial counts are set so that one round takes one to three seconds at the
commit the references were pinned from; see README.md for why each
workload exists.
"""

import contextlib
import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from harity import (
    adversaries,
    cli,
    dims,
    families,
    learners,
    losses,
    reductions,
    sampler,
    templates,
)
from harity.hypotheses import (
    Hypothesis,
    canonical_key,
    constant_hypothesis,
    partize_hypothesis,
)

ROUNDS = 16  # distinct rounds per seed; a longer run starts over


@dataclass(frozen=True)
class Op:
    id: str
    call: object  # () -> result; the only code the timer covers
    work: int  # Monte Carlo trials, or exact-oracle calls into harity
    view: object = None  # result -> exact data to encode and check
    check: object = None  # data -> bool, an invariant that holds for any seed


@dataclass(frozen=True)
class Env:
    tmpdir: Path  # where the in-process command-line runs write their files
    call: object = lambda name, fn: fn()  # (span name, fn) -> fn(), maybe traced


def _frequency(trials):
    return lambda f: isinstance(f, Fraction) and 0 <= f <= 1 and (f * trials).denominator == 1


# ---------------------------------------------------------------------------
# mc-long: the generic dict route on large samples


def _k1_setups():
    """Criterion 05's two k = 1 setups."""
    t1 = templates.Template(1, (2,))
    mu1 = templates.ProbTemplate(t1, ((Fraction(1, 3), Fraction(2, 3)),))
    sc_n1 = sampler.Scenario(mu1, Hypothesis(1, t1, (0, 1), lambda x: x[(1,)]))
    H_n1 = constant_hypothesis(1, t1, (0, 1), 0)
    pt1 = templates.PartiteTemplate(1, {(1,): 2})
    sc_p1 = sampler.Scenario(
        templates.uniform_partite_prob(pt1),
        Hypothesis(1, pt1, (0, 1), lambda x: x[((1, 1),)]),
        partite=True,
    )
    H_p1 = Hypothesis(1, pt1, (0, 1), lambda x: 0)
    return [
        (
            "k1-nonpartite",
            sc_n1,
            H_n1,
            losses.zero_one_loss((0, 1), 1),
            ((8, 200, 1), (16, 200, 1), (32, 200, 1)),
        ),
        (
            "k1-partite",
            sc_p1,
            H_p1,
            losses.zero_one_loss((0, 1), 1, setting="partite"),
            ((8, 100, 1), (16, 100, 1), (32, 25, 4)),
        ),
    ]


def _pac_op(seed, op_id, A, sc, ell, m, eps, trials):
    tag = f"perfbench/{seed}/{op_id}"
    return Op(
        op_id,
        lambda: learners.estimate_pac_success(A, sc, ell, m, eps, trials, tag),
        trials,
        check=_frequency(trials),
    )


def _concentration_op(seed, op_id, sc, H, ell, m, eps, trials):
    tag = f"perfbench/{seed}/{op_id}"
    return Op(
        op_id,
        lambda: learners.check_concentration(sc, H, ell, m, eps, trials, tag),
        trials,
        check=_frequency(trials),
    )


def _mc_long(seed, env):
    # The README `harity learn` sweep, and the same call on criterion 10's
    # class.  The targets and accuracies are chosen so that the success
    # frequencies depend on the samples: missing one matching pair costs
    # 1/8 > 1/10, and missing two of the five values of F_h costs 2/64 > 1/40.
    match = families.matching_family(2).cls
    ell_m = losses.zero_one_loss(match.labels, 2)
    sc_m = sampler.Scenario(
        templates.uniform_prob(match.template), match.members[-1]
    )
    A_m = learners.erm_nonpartite(match, ell_m)
    ho = families.highorder_family(8).cls
    ell_h = losses.zero_one_loss(ho.labels, 2, setting="partite")
    F_h = next(H for H in ho.members if H.name == "ho[0, 2, 3, 5, 7]")
    sc_h = sampler.Scenario(
        templates.uniform_partite_prob(ho.template), F_h, partite=True
    )
    A_h = learners.erm_partite(ho, ell_h)
    eps_m, eps_h = Fraction(1, 10), Fraction(1, 40)
    k1 = _k1_setups()
    def round_ops(r):
        # (m, trials per operation, operations): an operation lasts about
        # 0.1 s, so that the speed slices sample the machine evenly
        ops = [
            _pac_op(seed, f"r{r}/learn/matching2/m{m}/{i}", A_m, sc_m, ell_m, m, eps_m, n)
            for m, n, reps in ((10, 24, 1), (20, 12, 1), (40, 2, 4))
            for i in range(reps)
        ]
        ops += [
            _pac_op(seed, f"r{r}/learn/highorder8/m{m}/{i}", A_h, sc_h, ell_h, m, eps_h, n)
            for m, n, reps in ((8, 12, 2), (16, 1, 4))
            for i in range(reps)
        ]
        ops += [
            _concentration_op(
                seed, f"r{r}/concentration/{name}/m{m}/{i}", sc, H, ell, m, Fraction(1, 10), n
            )
            for name, sc, H, ell, sizes in k1
            for m, n, reps in sizes
            for i in range(reps)
        ]
        return ops

    return round_ops


# ---------------------------------------------------------------------------
# mc-short: many tiny samples, fixed per-trial cost


def _nfl_op(seed, op_id, sc, A, m, eps, trials, search):
    d = sc.d
    tag = f"perfbench/{seed}/{op_id}"
    return Op(
        op_id,
        lambda: adversaries.nfl_worst_F(A, sc, m, eps, trials, tag, search_trials=search),
        2**d * search + trials,
        view=lambda res: (tuple(sorted(res[0])), res[1]),
        check=lambda data: set(data[0]) <= set(range(d)) and _frequency(trials)(data[1]),
    )


def _mc_short(seed, env):
    eps = Fraction(1, 10)
    setups = []
    # (d, search trials per B): 740 and 612 trials per operation, about 0.15 s
    for d, search in ((6, 10), (8, 2)):
        sc = adversaries.shattered_scenario(d)
        setups.append((d, search, sc, adversaries.erm_learner(sc)))
    return lambda r: [
        _nfl_op(seed, f"r{r}/nofreelunch/d{d}/m{m}/{i}", sc, A, m, eps, 100, search)
        for d, search, sc, A in setups
        for m in (3, 5)
        for i in range(3)
    ]


# ---------------------------------------------------------------------------
# mc-fastpath: criterion 05's k = 2 setups and criterion 04


def _uc_op(seed, op_id, sc, cls, ell, m, eps, trials):
    tag = f"perfbench/{seed}/{op_id}"

    def check(rep):
        return (
            rep.trials == trials
            and rep.erm_violations == 0
            and 0 <= rep.erm_checked <= trials
            and _frequency(trials)(rep.frequency)
        )

    return Op(
        op_id,
        lambda: learners.check_uniform_convergence(sc, cls, ell, m, eps, trials, tag),
        trials,
        check=check,
    )


def _mc_fastpath(seed, env):
    m2 = families.matching_family(2).cls
    ho = families.highorder_family(3).cls
    k2 = [
        (
            "k2-nonpartite",
            sampler.Scenario(templates.uniform_prob(m2.template), m2.members[-1]),
            m2.members[0],
            losses.zero_one_loss(m2.labels, 2),
        ),
        (
            "k2-partite",
            sampler.Scenario(
                templates.uniform_partite_prob(ho.template), ho.members[-1], partite=True
            ),
            ho.members[1],
            losses.zero_one_loss(ho.labels, 2, setting="partite"),
        ),
    ]
    m4 = families.matching_family(4).cls
    ell4 = losses.zero_one_loss(m4.labels, 2)
    sc4 = sampler.Scenario(templates.uniform_prob(m4.template), m4.members[-1])
    def round_ops(r):
        ops = [
            _concentration_op(
                seed, f"r{r}/concentration/{name}/m{m}", sc, H, ell, m, Fraction(1, 10), 1000
            )
            for name, sc, H, ell in k2
            for m in (8, 16, 32)
        ]
        ops += [
            _uc_op(seed, f"r{r}/verify-uc/matching4/m{m}", sc4, m4, ell4, m, Fraction(1, 5), 40)
            for m in (400, 10, 20, 40, 80)
        ]
        return ops

    return round_ops


# ---------------------------------------------------------------------------
# exact-oracles: dimensions, laws, Bayes predictors, clean subsets, the CLI


def _vcn_op(op_id, spec):
    expected = (spec.metadata or {}).get("vcn2")

    def check(measured):
        if isinstance(measured, dims.AtLeast):
            return expected is not None and int(measured) <= expected
        return isinstance(measured, int) and (expected is None or measured == expected)

    return Op(op_id, lambda: dims.vcn_k(spec.cls), 1, check=check)


def _growth_op(op_id, cls, m):
    """Criterion 02: tau(m) within the falling-factorial growth bound."""

    def check(tau):
        return 1 <= tau <= dims.growth_bound(int(dims.vcn_k(cls)), m, len(cls.labels))[0]

    return Op(op_id, lambda: dims.growth_function(cls, m), 1, check=check)


def _departize_op():
    """Criterion 07's instance: both exact departization laws."""
    t = templates.Template(2, (2, 1))
    mu = templates.ProbTemplate(t, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1),)))
    mu2 = templates.ProbTemplate(t, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1),)))
    F = Hypothesis(
        2,
        templates.product_template(t, t),
        (0, 1),
        lambda x: (x[(1,)] + x[(2,)]) % 2,
        name="par",
        declared_rank=1,
    )
    Fp = partize_hypothesis(F)
    mup, mu2p = templates.partize_prob(mu, 2), templates.partize_prob(mu2, 2)

    def call():
        return (
            reductions.departize_construction_law(mup, mu2p, Fp, 2, 2),
            reductions.departize_discrete_law(mu, mu2, Fp, 2, 2),
        )

    return Op(
        "departize/laws",
        call,
        2,
        view=lambda laws: (laws[0], laws[0] == laws[1], sum(laws[0].values())),
        check=lambda data: data[1] and data[2] == 1,
    )


def _natarajan_ops(r, rng):
    """Criterion 03's random binary families."""
    ops = []
    for i in range(40):
        n = rng.randrange(2, 9)
        count = rng.randrange(1, min(2**n, 60) + 1)
        fns = set()
        while len(fns) < count:
            fns.add(tuple(rng.randrange(2) for _ in range(n)))
        fam = dims.FunctionFamily(tuple(range(n)), tuple(sorted(fns)))
        ops.append(
            Op(
                f"r{r}/natarajan/{i}",
                lambda fam=fam: dims.natarajan_dim(fam, cap=8, domain_cap=8),
                1,
                check=lambda nat, n=n, c=count: c <= dims.ssp_bound(int(nat), n, 2),
            )
        )
    return ops


def _table_hypothesis(template, rng, name):
    """A hypothesis whose whole value table is drawn now, in canonical point
    order, rather than lazily in evaluation order."""
    table = {
        canonical_key(x): rng.randrange(2) for x in templates.config_points(template, 2)
    }
    return Hypothesis(2, template, (0, 1), lambda x: table[canonical_key(x)], name=name)


def _random_prob(rng, t):
    rows = []
    for size in t.sizes:
        raw = [rng.randrange(1, 5) for _ in range(size)]
        rows.append(tuple(Fraction(v, sum(raw)) for v in raw))
    return templates.ProbTemplate(t, tuple(rows))


def _bayes_and_total(mu, mu2, F, ell):
    B = losses.bayes_predictor(mu, mu2, F, ell)
    return B, losses.total_loss_ag(mu, mu2, F, losses.wrap_agnostic(ell), B)


def _bayes_ops(r, rng):
    """Criterion 11's random agnostic scenarios, one per pair of ground-space
    sizes so that every round does the same amount of work."""
    ell = losses.zero_one_loss((0, 1), 2)
    ops = []
    for s1, s2 in ((2, 1), (2, 2), (3, 1), (3, 2)):
        t = templates.Template(2, (s1, s2))
        mu, mu2 = _random_prob(rng, t), _random_prob(rng, t)
        F = _table_hypothesis(templates.product_template(t, t), rng, "rand-F")
        rival = _table_hypothesis(t, rng, "rival")

        def check(data, mu=mu, mu2=mu2, F=F, rival=rival):
            ag = losses.wrap_agnostic(ell)
            return data[1] <= losses.total_loss_ag(mu, mu2, F, ag, rival)

        ops.append(
            Op(
                f"r{r}/bayes/{s1}x{s2}",
                lambda mu=mu, mu2=mu2, F=F: _bayes_and_total(mu, mu2, F, ell),
                2,
                view=lambda res: (res[0].table(), res[1]),
                check=check,
            )
        )
    return ops


def _clean_subset_ops(r, rng):
    """Criterion 09's random clean-subset instances."""
    ops = []
    for n in (3, 4, 5):
        rho = adversaries.ramsey_rho(n)
        for i in range(8):
            f1 = [rng.randrange(10 * rho) for _ in range(rho)]
            f2 = {frozenset(p): rng.randrange(3 * rho) for p in combinations(range(rho), 2)}
            ops.append(
                Op(
                    f"r{r}/clean-subset/n{n}/{i}",
                    lambda f1=f1, f2=f2, n=n: adversaries.find_clean_subset(f1, f2, n),
                    1,
                    check=lambda U, f1=f1, f2=f2, n=n: len(U) == n
                    and adversaries.verify_clean_subset(f1, f2, U),
                )
            )
    return ops


def _csv_rows(data):
    return list(csv.reader(io.StringIO(data.decode())))[1:]


def _cli_op(op_id, args, env, check):
    """One in-process `harity` subcommand; its CSV bytes are the result."""
    out = env.tmpdir / op_id.replace("/", "-")

    def run():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main.main([*args, "--out", str(out)], standalone_mode=False)
        except SystemExit as exc:
            raise RuntimeError(f"harity {args[0]} exited with code {exc.code}") from None
        return out

    return Op(
        op_id,
        lambda: env.call("cli.main", run),
        1,
        view=lambda path: Path(f"{path}.csv").read_bytes(),
        check=lambda data: check(_csv_rows(data)),
    )


def _exact_oracles(seed, env):
    defaults = [
        families.build_family(name) for name in ("matching", "bdeg", "dist", "maxg", "highorder")
    ]
    bdeg = [
        families.bounded_degree_family(n, d)
        for n in range(2, 7)
        for d in range(1, 5 if n < 6 else 3)
    ]
    growth_specs = [
        families.matching_family(2),
        families.bounded_degree_family(3, 2),
        families.distance_family(4),
        families.max_family(4),
        families.highorder_family(3),
    ]
    fixed = [_vcn_op(f"vcn/default/{s.cls.name}", s) for s in defaults]
    fixed += [_vcn_op(f"vcn/{s.cls.name}", s) for s in bdeg]
    fixed += [
        _growth_op(f"growth/{spec.cls.name}/m{m}", spec.cls, m)
        for spec in growth_specs
        for m in range(1, 6)
    ]
    fixed.append(_departize_op())
    fixed += [
        _cli_op(
            "cli/dims",
            ["dims", "--seed", "perfbench"],
            env,
            lambda rows: len(rows) == 5 and all(row[-1] in ("1", "") for row in rows),
        ),
        _cli_op(
            "cli/reduce-partize",
            ["reduce", "--direction", "partize", "--family", "matching", "--n", "2", "--seed", "perfbench"],
            env,
            lambda rows: dict(rows)["loss_identity_ok"] == "1",
        ),
        _cli_op(
            "cli/reduce-departize",
            ["reduce", "--direction", "departize", "--seed", "perfbench"],
            env,
            lambda rows: dict(rows)["laws_equal"] == "1",
        ),
    ]
    def round_ops(r):
        tag = f"perfbench/{seed}/{r}"
        ops = list(fixed)
        ops += _natarajan_ops(r, random.Random(f"{tag}/natarajan"))
        ops += _bayes_ops(r, random.Random(f"{tag}/bayes"))
        ops += _clean_subset_ops(r, random.Random(f"{tag}/clean-subset"))
        ops.append(
            _cli_op(
                f"r{r}/cli/ramsey",
                ["ramsey", "--n", "3", "--trials", "100", "--seed", tag],
                env,
                lambda rows: len(rows) == 100 and all(row[-1] == "1" for row in rows),
            )
        )
        return ops

    return round_ops


# name -> (builder, unit of work, rounds in a traced run)
WORKLOADS = {
    "mc-long": (_mc_long, "trials", 2),
    "mc-short": (_mc_short, "trials", 2),
    "mc-fastpath": (_mc_fastpath, "trials", 3),
    "exact-oracles": (_exact_oracles, "exact-oracle calls", 3),
}


def build(name, seed, env):
    """Constructs the workload for ``seed`` and returns ``round_ops``."""
    return WORKLOADS[name][0](seed, env)
