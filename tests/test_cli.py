"""CLI tests (audit registry, figure sweeps, machine flags)."""

import pytest

from repro.cli import EXPERIMENTS, _cli_sweep, build_parser, main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_parser_defaults():
    args = build_parser().parse_args(["crash"])
    assert args.ops == 400
    assert args.media == "optane"
    assert not args.fresh


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_figure_commands_are_sweeps():
    assert sorted(EXPERIMENTS) == ["crash", "faults", "migrate"]
    for retired in (["ephemeral"], ["media"], ["predis"],
                    ["sweep", "scaling", "--threads", "2"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(retired)


def test_ephemeral_sweep_runs(capsys):
    assert main(["sweep", "ephemeral", "--ops", "4", "--device", "1",
                 "--max-points", "8", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "daxvm" in out
    assert "Read-once" in out


def test_media_sweep_runs(capsys):
    assert main(["sweep", "media", "--ops", "8", "--device", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cxl-flash" in out
    assert "fast-nvm" in out


@pytest.mark.parametrize("flags, aged", [([], True), (["--fresh"], False)])
def test_media_sweep_machines_follow_the_flags(flags, aged):
    args = build_parser().parse_args(["sweep", "media", "--device", "2",
                                      *flags])
    machines = [point.machine for point in _cli_sweep(args, "media").points]
    assert {m.aged for m in machines} == {aged}
    assert {m.device_gib for m in machines} == {2}


def test_predis_sweep_runs(capsys):
    assert main(["sweep", "predis", "--ops", "200", "--device", "2",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "populate" in out
    assert "cache MB" in out
