import hashlib
import json
import time

import pytest
from click.testing import CliRunner

from harity import cli, families, losses


def _run(args, **kw):
    return CliRunner().invoke(cli.main, args, **kw)


def test_dims_single_family(tmp_path):
    out = tmp_path / "dims"
    res = _run(["dims", "--family", "matching", "--n", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "dims.csv").read_text().splitlines()
    assert lines[0] == "family,params,metric,measured,expected,ok"
    assert lines[1].startswith("matching,") and lines[1].endswith(",1,1,1")
    assert '""n_pairs"": 3' in lines[1]
    summary = json.loads((tmp_path / "dims.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["command"] == "dims"
    assert summary["rows"] == 1
    assert "wall_time_s" in summary and "git_describe" in summary


def test_csv_byte_identical_across_reruns(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        res = _run(
            [
                "sample",
                "--family",
                "matching",
                "--n",
                "2",
                "--m",
                "4",
                "--seed",
                "s1",
                "--out",
                str(out),
            ]
        )
        assert res.exit_code == 0, res.output
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "matching", "n": 2, "out": str(tmp_path / "x")}))
    res = _run(["dims", "--config", str(cfg), "--n", "3"])
    assert res.exit_code == 0, res.output
    body = (tmp_path / "x.csv").read_text()
    assert '""n_pairs"": 3' in body  # the flag wins over the file


def test_bad_eps_exits_config_error(tmp_path):
    res = _run(
        [
            "learn",
            "--family",
            "matching",
            "--n",
            "2",
            "--eps",
            "1.5",
            "--out",
            str(tmp_path / "l"),
        ]
    )
    assert res.exit_code == cli.EXIT_CONFIG


def test_infeasible_exits_3(tmp_path):
    res = _run(
        ["verify-uc", "--family", "highorder", "--n", "3", "--out", str(tmp_path / "u")]
    )
    assert res.exit_code == cli.EXIT_INFEASIBLE


@pytest.mark.parametrize("family", ["matching", "dist"])
def test_sample_smaller_than_k_exits_3(tmp_path, family):
    # k = 2 families at m = 1: no pair to average over, so no empirical loss
    args = ["verify-uc", "--family", family, "--n", "2", "--m", "1", "--trials", "3"]
    res = _run([*args, "--out", str(tmp_path / "u")])
    assert res.exit_code == cli.EXIT_INFEASIBLE, (res.output, res.exception)
    assert "m = 1 has no unit of arity k = 2" in res.output


def test_reduce_partize_identity(tmp_path):
    out = tmp_path / "red"
    res = _run(
        [
            "reduce",
            "--direction",
            "partize",
            "--family",
            "matching",
            "--n",
            "2",
            "--out",
            str(out),
        ]
    )
    assert res.exit_code == 0, res.output
    rows = dict(
        line.split(",", 1) for line in (tmp_path / "red.csv").read_text().splitlines()[1:]
    )
    assert rows["loss_identity_ok"] == "1"
    assert rows["vcn2_before"] == rows["vcn2_after"]


def test_reduce_departize_exact(tmp_path):
    out = tmp_path / "dep"
    res = _run(["reduce", "--direction", "departize", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = dict(
        line.split(",", 1) for line in (tmp_path / "dep.csv").read_text().splitlines()[1:]
    )
    assert rows["laws_equal"] == "1"
    assert rows["p"] == "0.0625"
    assert rows["randomness_count"] == "32"


def test_ramsey_command(tmp_path):
    out = tmp_path / "ram"
    res = _run(["ramsey", "--n", "3", "--trials", "5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "ram.csv").read_text().splitlines()
    assert len(lines) == 6
    assert all(line.endswith(",1") for line in lines[1:])  # every search verified


# SHA-256 of the CSV of each README "Command-line runner" example (with small
# --trials), plus two --member runs, recorded before the subcommands shared one
# scaffold; the scaffold must not change a byte of any of them.
GOLDEN_CSV = [
    ("dims", "6e94c9145d671cea30fd305f2763a15eb1546aa0980fd8c39a0f4988c65442d7"),
    (
        "dims --family bdeg --n 4 --d 2",
        "d53be0a815022cdb6860bd933162bf91186a43e128efb886e65a7fbcb66f6ff9",
    ),
    (
        "sample --family matching --n 3 --m 6 --seed s1",
        "bc093790e252e6462a5a19b1950264e6a17bb98e6bdf7d2111c48346a80e9b2d",
    ),
    (
        "learn --family matching --n 2 --m 10,20,40 --eps 0.2 --delta 0.2 --trials 10",
        "fff2935949abc7a9790b956b4e080c81444c4919c568bf15379cc24c07c536c7",
    ),
    (
        "verify-uc --family matching --n 2 --m 12 --eps 0.25 --trials 10",
        "734b6179ef4ddfd05149ca0492d348cebbc6cf9d5fc40b6e57285cdf138943b3",
    ),
    (
        "nofreelunch --d 5 --m 3 --eps 0.1 --trials 50",
        "d15d050e5f8032f217e2c33f407fcc1a70cabfb6137f703f99b46e5d1918a9ca",
    ),
    (
        "reduce --direction partize --family matching --n 2",
        "3731f60882604324d920c05a80fa39010795a9564e294e757c7e3cbb746d7497",
    ),
    (
        "reduce --direction departize",
        "8c4acddf19c8273f67de1423133d7b18ad3aa085b8d80e14ba9b30b2211fdb78",
    ),
    (
        "ramsey --n 3 --trials 10",
        "c96c135976dd89de5e26bcf08cf1a76e3209d99e8b3a2efdf930bf77c27c2f6c",
    ),
    ("bayes --trials 3", "7cb31ac9cb1bfb5971340ccebfadeb09ecf2a99dfcd0137cfc3e6339bb5e179f"),
    (
        "sample --family matching --n 2 --m 4 --seed s1 --member 3",
        "17973ccc807747eecdf718d5e48346f791a15045ab5034eee16727ca497ceeaf",
    ),
    (
        "learn --family matching --n 2 --m 4 --trials 20 --seed s3 --member 3",
        "5b11f31fe63f97be6adad96fc01b7a9c14daf6d7f3b3d861492764dbf5cafb91",
    ),
]


def _csv_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("args,digest", GOLDEN_CSV, ids=[a for a, _ in GOLDEN_CSV])
def test_golden_csv(tmp_path, monkeypatch, args, digest):
    monkeypatch.delenv("HARITY_SEED", raising=False)
    res = _run([*args.split(), "--out", str(tmp_path / "g")])
    assert res.exit_code == 0, res.output
    assert _csv_digest(tmp_path / "g.csv") == digest


def test_bayes_csv_ignores_evaluation_order(tmp_path, monkeypatch):
    # each F's table is drawn before F is evaluated, so evaluating F first at
    # every domain point in reverse order leaves the CSV as it is
    bayes_predictor = losses.bayes_predictor

    def reversed_first(mu, mu2, F, ell):
        for x in reversed(F.domain()):
            F(x)
        return bayes_predictor(mu, mu2, F, ell)

    monkeypatch.setattr(losses, "bayes_predictor", reversed_first)
    monkeypatch.delenv("HARITY_SEED", raising=False)
    res = _run(["bayes", "--trials", "3", "--out", str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    assert _csv_digest(tmp_path / "b.csv") == dict(GOLDEN_CSV)["bayes --trials 3"]


def test_config_member_is_honoured(tmp_path):
    cfg = tmp_path / "cfg.json"
    keys = {"family": "matching", "n": 2, "m": 4, "seed": "s1", "member": 3}
    cfg.write_text(json.dumps(keys))
    res = _run(["sample", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert res.exit_code == 0, res.output
    # member 0 draws the same sample with different labels
    assert _csv_digest(tmp_path / "s.csv") == dict(GOLDEN_CSV)[
        "sample --family matching --n 2 --m 4 --seed s1 --member 3"
    ]
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["config"]["member"] == 3


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _config_file(tmp_path, text):
    return ["--config", _write(tmp_path, "cfg.json", text)]


CONFIG_ERRORS = {
    "member-too-large": lambda tmp: ["sample", "--family", "matching", "--member", "99"],
    "member-negative": lambda tmp: ["learn", "--family", "matching", "--member", "-1"],
    "config-member": lambda tmp: ["sample", *_config_file(tmp, '{"member": 16}')],
    "unknown-family": lambda tmp: ["dims", "--family", "nosuch"],
    "m-not-an-int": lambda tmp: ["learn", "--family", "matching", "--m", "abc"],
    "config-not-json": lambda tmp: ["dims", *_config_file(tmp, "{not json")],
    "config-bad-type": lambda tmp: ["dims", *_config_file(tmp, '{"n": "three"}')],
    "config-bad-trials": lambda tmp: ["ramsey", *_config_file(tmp, '{"trials": 0}')],
    "partition-unreadable": lambda tmp: ["dims", "--family", f"partition:{tmp}/none"],
    "config-n-is-a-list": lambda tmp: ["dims", *_config_file(tmp, '{"n": [3]}')],
    "nofreelunch-d-zero": lambda tmp: ["nofreelunch", "--d", "0"],
    "nofreelunch-d-negative": lambda tmp: ["nofreelunch", "--d", "-2"],
    "config-d-zero": lambda tmp: ["nofreelunch", *_config_file(tmp, '{"d": 0}')],
    "out-unwritable": lambda tmp: ["dims", "--out", f"{tmp}/no/such/dir/o"],
    "partition-not-json": lambda tmp: [
        "dims", "--family", "partition:" + _write(tmp, "p.json", "[1")
    ],
    "partition-misses-a-pair": lambda tmp: [
        "dims", "--family", "partition:" + _write(tmp, "p.json", '{"0-2": 1}')
    ],
}


M_COMMANDS = {
    "learn": ["learn", "--family", "matching", "--n", "2"],
    "sample": ["sample", "--family", "matching", "--n", "2"],
    "verify-uc": ["verify-uc", "--family", "matching", "--n", "2"],
    "nofreelunch": ["nofreelunch"],
}


@pytest.mark.parametrize("bad", ["0", "-1", "[10, 0]"])
@pytest.mark.parametrize("name", sorted(M_COMMANDS))
def test_non_positive_m_exits_2(tmp_path, name, bad):
    args = M_COMMANDS[name] + ["--out", str(tmp_path / "o")]
    if bad.startswith("["):
        args += _config_file(tmp_path, '{"m": %s}' % bad)
    else:
        args += ["--m", bad]
    res = _run(args)
    assert res.exit_code == cli.EXIT_CONFIG, (res.output, res.exception)
    assert "m must be a positive size" in res.output
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_errors_exit_2(tmp_path, case):
    args = CONFIG_ERRORS[case](tmp_path)
    if "--out" not in args:
        args += ["--out", str(tmp_path / "o")]
    res = _run(args)
    assert res.exit_code == cli.EXIT_CONFIG, (res.output, res.exception)
    assert not (tmp_path / "o.csv").exists()


def test_partition_table_family(tmp_path):
    table = _write(tmp_path, "p.json", json.dumps({"0-1": 0, "0-2": 1, "1-2": 0}))
    res = _run(["dims", "--family", f"partition:{table}", "--out", str(tmp_path / "p")])
    assert res.exit_code == 0, res.output
    row = (tmp_path / "p.csv").read_text().splitlines()[1]
    assert row.startswith("partition,") and '""classes"": [0, 1]' in row


def test_enumeration_cap_exits_3_quickly(tmp_path):
    for family, n in (("bdeg", "8"), ("matching", "30")):
        started = time.perf_counter()
        out = str(tmp_path / family)
        res = _run(["dims", "--family", family, "--n", n, "--out", out])
        assert time.perf_counter() - started < 1
        assert res.exit_code == cli.EXIT_INFEASIBLE, (res.output, res.exception)


def test_enumeration_cap_in_the_library():
    with pytest.raises(ValueError, match="cap"):
        families.bounded_degree_family(8, 2)
    with pytest.raises(ValueError, match="cap"):
        families.distance_family(23)
    with pytest.raises(ValueError, match="cap"):
        families.matching_family(13)
    with pytest.raises(ValueError, match="cap"):
        families.highorder_family(13)
    assert len(families.highorder_family(12).cls) == families.MEMBER_CAP


# option names per subcommand, as each --help listed them before the scaffold
HELP_OPTIONS = {
    "dims": ["--out", "--seed", "--config", "--family", "--n", "--d"],
    "sample": ["--out", "--seed", "--config", "--family", "--n", "--d", "--m", "--member"],
    "learn": [
        "--out", "--seed", "--config", "--family", "--n", "--d", "--m",
        "--eps", "--delta", "--trials", "--member",
    ],
    "verify-uc": [
        "--out", "--seed", "--config", "--family", "--n", "--d", "--m",
        "--eps", "--delta", "--trials", "--member",
    ],
    "nofreelunch": ["--out", "--seed", "--config", "--d", "--m", "--eps", "--trials"],
    "reduce": ["--out", "--seed", "--config", "--direction", "--family", "--n", "--d"],
    "ramsey": ["--out", "--seed", "--config", "--n", "--trials"],
    "bayes": ["--out", "--seed", "--config", "--trials"],
}


@pytest.mark.parametrize("name", sorted(HELP_OPTIONS))
def test_help_lists_the_same_options(name):
    res = _run([name, "--help"])
    assert res.exit_code == 0, res.output
    listed = [
        line.split()[0]
        for line in res.output.split("Options:", 1)[1].splitlines()
        if line.strip().startswith("--")
    ]
    assert listed == HELP_OPTIONS[name] + ["--help"]
