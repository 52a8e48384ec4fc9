"""Tests for the experiment command-line runner."""

import pytest

from repro.experiments import cli


class TestParser:
    def test_known_experiments(self):
        parser = cli.build_parser()
        args = parser.parse_args(["fig5", "--scale", "0.001", "--seed", "3"])
        assert args.experiment == "fig5"
        assert args.scale == 0.001
        assert args.seed == 3

    def test_unknown_experiment_rejected(self):
        parser = cli.build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_experiment_registry_complete(self):
        assert set(cli.EXPERIMENTS) == {"fig2", "fig3", "fig5", "fig6", "sec4.5", "ablations"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-bench"],
            ["order-bench"],
            ["engine-bench"],
            ["rate-bench"],
            ["resilience-bench"],
            ["io-bench"],
            ["fig2", "--bench-repeats", "3"],
            ["fig2", "--serve-queries", "8"],
            ["fig2", "--serve-wireless"],
            ["fig2", "--workers", "1", "2"],
            ["fig2", "--bench-output", "record.json"],
        ],
        ids=lambda argv: argv[-1] if len(argv) == 1 else argv[1],
    )
    def test_removed_measurement_surface_is_a_usage_error(self, argv):
        """``python -m bench.run`` is the one measurement entry point."""
        with pytest.raises(SystemExit) as raised:
            cli.main(argv)
        assert raised.value.code == 2


class TestMain:
    def test_run_single_experiment(self, capsys):
        exit_code = cli.main(["sec4.5", "--scale", "0.0006"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Section 4.5" in output
        assert "fraction_seen" in output
        assert "overhead" in output

    def test_run_fig6_small(self, capsys):
        exit_code = cli.main(["fig6", "--scale", "0.0005"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output
        assert "adjustable_window" in output

    @pytest.mark.parametrize("experiment", ["fig5", "fig6", "sec4.5", "ablations"])
    @pytest.mark.parametrize(
        "flags", [["--batch-size", "64"], ["--engine-mode", "compiled"]], ids=lambda f: f[0]
    )
    def test_engine_flags_are_rejected_where_they_would_be_ignored(
        self, experiment, flags, capsys
    ):
        with pytest.raises(SystemExit) as raised:
            cli.main([experiment, "--scale", "0.0005", *flags])
        assert raised.value.code == 2
        message = capsys.readouterr().err
        assert "fig2 and fig3" in message and experiment in message

    def test_engine_flags_reach_the_experiments_that_honour_them(self, monkeypatch):
        calls = []
        for name in cli.EXPERIMENTS:
            monkeypatch.setitem(
                cli.EXPERIMENTS,
                name,
                lambda *args, _name=name, **kwargs: calls.append((_name, args, kwargs)),
            )
        assert cli.main(["all", "--batch-size", "64", "--engine-mode", "compiled"]) == 0
        engine = ((0.003, 2004), {"batch_size": 64, "engine_mode": "compiled"})
        plain = ((0.003, 2004), {})
        assert calls == [
            ("fig2", *engine),
            ("fig3", *engine),
            ("fig5", *plain),
            ("fig6", *plain),
            ("sec4.5", *plain),
            ("ablations", *plain),
        ]
