"""The mechanisms of ``tools/regret_suite.py``: fixed by their seed, read as configs, accepted."""
import runpy

import pytest

from fourbar_synth import DesignParams, load_config_dict, validate_baseline

from conftest import REPO_ROOT


def test_the_suite_draws_six_fixed_mechanisms_that_read_and_validate():
    draw_mechanisms = runpy.run_path(str(REPO_ROOT / "tools" / "regret_suite.py"))["draw_mechanisms"]
    configs = draw_mechanisms(6)
    assert configs == draw_mechanisms(6)
    for config in configs:
        validate_baseline(*load_config_dict(config)[:2])
    # the first draw, so that a change to the shared rule shows
    cfg, _, _ = load_config_dict(configs[0])
    assert cfg.baseline == DesignParams(0.08139318184066398, 0.3902792382270713, 0.24926735718801157)
    assert cfg.branch == "minus"


@pytest.mark.parametrize("seeds", ["5-1", "x", "5-"])
def test_an_empty_reversed_or_non_numeric_seed_range_is_a_usage_error(seeds, capsys):
    main = runpy.run_path(str(REPO_ROOT / "tools" / "regret_suite.py"))["main"]
    with pytest.raises(SystemExit) as stop:
        main(["--seeds", seeds])
    assert stop.value.code == 2
    assert "--seeds" in capsys.readouterr().err
