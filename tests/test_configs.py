import pathlib

import pytest

from ngnopt import parse_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))


def test_expected_configs_ship():
    names = {p.name for p in CONFIGS}
    assert names == {
        "rosenbrock_sweep.cfg",
        "polynomial_sweep.cfg",
        "quadratic_schedules.cfg",
        "multimodal_sweep.cfg",
    }


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_parses(path):
    sweep = parse_config(str(path))
    assert sweep.kinds
    assert sweep.c_grid
    assert sweep.out_path.endswith(".csv")
