"""CLI tests: argument parsing and (cheap) end-to-end subcommands."""

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for command in (
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "breakdown",
        "latency",
        "busy",
        "loaded",
        "scaling",
        "netcmp",
        "hetero",
        "adaptive",
        "remotedisk",
        "multiclient",
        "diurnal",
        "compression",
        "resilience",
        "profile",
        "ablate",
        "all",
    ):
        args = parser.parse_args([command])
        assert args.command == command


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_runner_flags_only_on_runner_subcommands():
    parser = build_parser()
    # `repro fleet` never goes through the experiment runner, so it
    # takes no runner flags; `repro fig2` does.
    with pytest.raises(SystemExit):
        parser.parse_args(["fleet", "--jobs", "4"])
    assert parser.parse_args(["fig2", "--jobs", "2"]).jobs == 2
    # Observability flags stay on every subcommand.
    assert parser.parse_args(["fleet", "-v", "--trace", "t.jsonl"]).verbose == 1


def test_bad_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig2", "--apps", "doom"])


def test_fig1_end_to_end(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "800" in out


def test_latency_end_to_end(capsys):
    assert main(["latency", "--transfers", "20"]) == 0
    out = capsys.readouterr().out
    assert "per page transfer" in out


def test_fig2_subset_end_to_end(capsys):
    assert main(["fig2", "--apps", "mvec", "--policies", "no-reliability", "disk"]) == 0
    out = capsys.readouterr().out
    assert "mvec" in out and "ranking matches" in out


def test_fig3_custom_sizes(capsys):
    assert main(["fig3", "--sizes", "17", "20"]) == 0
    out = capsys.readouterr().out
    assert "17.0" in out and "20.0" in out


def test_argument_defaults():
    parser = build_parser()
    args = parser.parse_args(["loaded"])
    assert args.loads == [0.0, 0.3, 0.6]
    args = parser.parse_args(["scaling", "--servers", "2", "4"])
    assert args.servers == [2, 4]


def test_profile_subcommand(capsys):
    assert main(["profile", "--apps", "mvec"]) == 0
    out = capsys.readouterr().out
    assert "mvec" in out and "pageouts" in out


def test_ablate_choice_validation():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ablate", "--which", "nonsense"])


def test_fleet_offers_only_buildable_workloads():
    from repro.runner.registry import make_workload

    fleet = build_parser()._subparsers._group_actions[0].choices["fleet"]
    (workload,) = [a for a in fleet._actions if a.dest == "workload"]
    assert workload.choices
    for choice in workload.choices:
        assert make_workload(choice, {}).name


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--clients", "1"], ["Gauss"]),
        (["--clients", "3"], ["Gauss", "Qsort", "Gauss"]),
        (["--clients", "2", "--apps", "mvec", "fft", "cc"], ["Mvec", "Fft"]),
    ],
)
def test_multiclient_runs_exactly_n_clients(monkeypatch, argv, expected):
    import repro.experiments as exp

    seen = []
    monkeypatch.setattr(
        exp, "run_multi_client",
        lambda workload_factories, **kwargs: seen.extend(workload_factories),
    )
    monkeypatch.setattr(exp, "render_multi_client", lambda results: "")
    assert main(["multiclient", *argv]) == 0
    assert [factory.__name__ for factory in seen] == expected


def test_multiclient_rejects_fewer_than_one_client():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["multiclient", "--clients", "0"])
