"""Documented refusals: each CLI input below exits with its documented code
(2 for a config error, 3 for an infeasible instance), and each library input
raises a ValueError with its message, before anything large is built."""

import time
from fractions import Fraction
from unittest import mock

import pytest
from click.testing import CliRunner

from harity import cli, dims, families, learners, losses, reductions, sampler, templates
from harity.hypotheses import Hypothesis


@pytest.mark.parametrize(
    "args, code, message",
    [
        (
            ["reduce", "--direction", "partize", "--family", "highorder"],
            3,
            "family already partite",
        ),
        # dist(12) keeps 2,048 members, over the exact report's 2^10
        (
            ["reduce", "--direction", "partize", "--family", "dist", "--n", "12"],
            3,
            "class too large for the exact report",
        ),
        (["nofreelunch", "--d", "25"], 3, "d capped at 24"),
        (["ramsey", "--n", "7"], 3, "n capped at 6"),
    ],
)
def test_cli_refuses_infeasible_instances(tmp_path, args, code, message):
    started = time.perf_counter()
    res = CliRunner().invoke(cli.main, [*args, "--out", str(tmp_path / "o")])
    assert res.exit_code == code, res.output
    assert message in res.output
    assert time.perf_counter() - started < 10
    assert not list(tmp_path.iterdir())


def test_cli_refuses_a_config_file_that_is_not_an_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    res = CliRunner().invoke(
        cli.main, ["dims", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert res.exit_code == 2, res.output
    assert "config must be a JSON object" in res.output


def _half():
    return (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dims.FunctionFamily((0, 1, 2), ((0, 1, 0), (1, 0))), "not total"),
        (
            lambda: dims.natarajan_witness(
                dims.FunctionFamily(tuple(range(65)), ((0,) * 65,)), 1
            ),
            "domain exceeds the search cap",
        ),
        (
            lambda: learners.m_uc(1, 2, 1, 1, 0.1, 0.1),
            "positive dimension requires at least two labels",
        ),
        (
            lambda: templates.ProbTemplate(
                templates.Template(2, (2, 3)), (_half(), _half())
            ),
            "space 2: 2 weights for 3 points",
        ),
        (
            lambda: templates.PartiteTemplate(2, {(1,): 2, (2,): 2}),
            "need a size for every non-empty A",
        ),
        (
            lambda: templates.PartiteTemplate(2, {(1,): 2, (2,): 0, (1, 2): 1}),
            "every ground space must be non-empty",
        ),
        (
            lambda: reductions.phi_m_labels({}, 1, 2),
            "m must be at least k",
        ),
        (lambda: families.bounded_degree_family(0, 1), "bad parameters"),
    ],
    ids=[
        "function-not-total",
        "natarajan-domain-cap",
        "m_uc-one-label",
        "weight-count",
        "partite-missing-size",
        "partite-empty-space",
        "phi_m_labels-m-below-k",
        "bdeg-no-vertex",
    ],
)
def test_library_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _pac_refusal(case):
    """The arguments of a ``pac_successes`` call that ``case`` refuses."""
    t = templates.Template(1, (2,))
    mu, other = templates.uniform_prob(t), templates.ProbTemplate(t, ((Fraction(1, 3), Fraction(2, 3)),))
    F = Hypothesis(1, t, (0, 1), lambda x: x[(1,)])
    Fj = Hypothesis(1, templates.product_template(t, t), (0, 1), lambda x: x[(1,)])
    plain, joined = sampler.Scenario(mu, F), sampler.Scenario(mu, Fj, mu2=mu)
    targets, seeds, trials, cls = [plain, plain], ["a", "b"], 3, None
    if case == "mu-differs":
        targets = [plain, sampler.Scenario(other, F)]
    elif case == "mu2-differs":
        targets = [joined, sampler.Scenario(mu, Fj, mu2=other)]
    elif case == "mu2-missing":
        targets = [joined, sampler.Scenario(mu, Fj)]
    elif case == "no-target":
        targets, seeds = [], []
    elif case == "seed-count":
        seeds = ["a"]
    elif case == "empty-cls":
        cls = []
    else:
        trials = 0
    A = learners.Learner(1, lambda x, y, b: F, lambda m: 1)
    return A, targets, losses.zero_one_loss((0, 1), 1), 2, 0, trials, seeds, cls


@pytest.mark.parametrize(
    "case, message",
    [
        ("mu-differs", "must share mu and mu'"),
        ("mu2-differs", "must share mu and mu'"),
        ("mu2-missing", "must share mu and mu'"),
        ("no-target", "need scenarios, one seed each: 0 for 0"),
        ("seed-count", "need scenarios, one seed each: 1 for 2"),
        ("no-trials", "trials must be at least 1"),
        ("empty-cls", "cls has no members, so no infimum"),
    ],
)
def test_pac_successes_refuses_before_reading_a_stream(case, message, monkeypatch):
    refuse = AssertionError("a stream was read")
    monkeypatch.setattr(sampler, "stream", mock.Mock(side_effect=refuse))
    monkeypatch.setattr(sampler, "_labeled_reader", mock.Mock(side_effect=refuse))
    with pytest.raises(ValueError, match=message):
        learners.pac_successes(*_pac_refusal(case))
