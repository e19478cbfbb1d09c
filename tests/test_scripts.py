"""Smoke tests: each script under scripts/ runs end to end on small arguments."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    """The script's ``main``; run_path's default run name skips its __main__ block."""
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]


def test_delta_sweep_passes(capsys):
    assert _main("delta_sweep")(["--n-min", "4", "--n-max", "6", "--steps", "3"]) == 0
    assert "tightest lower slack" in capsys.readouterr().out


def test_perturbation_gallery_returns_a_verdict(capsys):
    # 2 means a certified bound missed the oracle: construct_perturbed_union's
    # open soundness defect at lcd N >= 5.  Either verdict is a clean run.
    assert _main("perturbation_gallery")([]) in (0, 2)
    assert "worst containment margin" in capsys.readouterr().out
