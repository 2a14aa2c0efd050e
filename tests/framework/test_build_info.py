"""There is one engine; ``build_info()`` only names it."""

import json
import sys

import repro
from repro.cli import main


def test_build_info_reports_the_one_pure_engine(capsys):
    assert repro.build_info()["mode"] == "pure"
    assert main(["build-info"]) == 0
    assert "mode: pure" in capsys.readouterr().out
    assert main(["build-info", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == repro.build_info()
    assert repro.sim.engine.Simulator.__module__ == "repro.sim.engine"
    assert not {"repro._build", "repro._speed"} & set(sys.modules)
