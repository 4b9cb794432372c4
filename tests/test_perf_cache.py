"""Experiment CLI: a negative ``--jobs`` is refused before any network is built."""

from __future__ import annotations

import pytest

from repro.experiments import __main__ as cli


class TestCLI:
    def test_negative_jobs_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig4", "--scale", "smoke", "--jobs", "-1"])
        capsys.readouterr()
