"""Command-line interface."""

import pytest

from repro.cli import main


class TestPlatforms:
    def test_lists_builtin_socs(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "xavier-agx" in out and "snapdragon-855" in out


class TestCalibrate:
    def test_prints_parameter_summary(self, capsys):
        assert main(["calibrate", "--soc", "xavier-agx", "--pu", "dla"]) == 0
        out = capsys.readouterr().out
        assert "dla:" in out and "TBWDC" in out


class TestPredict:
    def test_prints_prediction(self, capsys):
        code = main(
            [
                "predict",
                "--soc",
                "xavier-agx",
                "--pu",
                "gpu",
                "--demand",
                "60",
                "--external",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relative speed" in out
        assert "region" in out


class TestProfile:
    def test_profiles_dla_suite(self, capsys):
        assert main(["profile", "--soc", "xavier-agx", "--pu", "dla"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out

    def test_profiles_cpu_suite(self, capsys):
        assert main(["profile", "--soc", "snapdragon-855", "--pu", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "streamcluster" in out


class TestExperimentSubcommand:
    def test_list_forwarding(self, capsys):
        # 'experiment' with no names and no --all prints help, exit 2.
        assert main(["experiment"]) == 2

    def test_jobs_forwarding(self, capsys):
        assert main(["experiment", "fig2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "==== fig2" in out

    def test_jobs_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig2", "--jobs", "0"])


class TestRemovedFlags:
    """Unknown flags, including deleted ones, are argparse errors."""

    @pytest.mark.parametrize(
        "flags", [["--checkpoint", "ckpt"], ["--job-timeout", "5"]]
    )
    def test_pccs_experiment_rejects(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig2"] + flags)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--checkpoint", "ckpt"], ["--job-timeout", "5"]]
    )
    def test_runner_rejects(self, capsys, flags):
        from repro.experiments.runner import main as runner_main

        with pytest.raises(SystemExit) as excinfo:
            runner_main(["fig2"] + flags)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
