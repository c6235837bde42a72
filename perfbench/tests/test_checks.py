"""The correctness gate: golden comparisons and failure accounting."""

import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import workloads
from workloads import CellCheck, Ledger, cell_key, golden_expectations

from repro.experiments.parallel import placeholder_result
from repro.experiments.runner import run_sweep

GOLDEN = json.loads((Path(workloads.__file__).resolve().parent.parent
                     / "benchmarks" / "results" / "golden.json")
                    .read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fig3_default_link():
    """The four fig3 cells at the default link, simulated once."""
    config = workloads.config_for(GOLDEN["seed"])
    scenario = workloads.SCENARIOS["fig3"](config)
    links = workloads.default_link(config)
    curves = run_sweep(scenario.programs, scenario.policies, links, config)
    return config, scenario, links, curves


def _failures(expected, fig3_default_link):
    config, scenario, links, curves = fig3_default_link
    ledger = Ledger()
    check = CellCheck(expected)
    workloads._check_curves(scenario, links, curves, check, ledger,
                            keep=False)
    return ledger, check


def test_golden_cells_pass(fig3_default_link):
    config = fig3_default_link[0]
    ledger, check = _failures(golden_expectations(GOLDEN, config),
                              fig3_default_link)
    assert (ledger.attempted, ledger.failed) == (4, 0)
    assert check.golden_checked == 4


def test_perturbed_expected_value_fails_exactly_one_cell(fig3_default_link):
    config = fig3_default_link[0]
    golden = copy.deepcopy(GOLDEN)
    row = golden["points"]["fig3"]["BlueFS"]
    row["wnic_energy"] = math.nextafter(row["wnic_energy"], math.inf)
    ledger, _ = _failures(golden_expectations(golden, config),
                          fig3_default_link)
    assert (ledger.attempted, ledger.failed) == (4, 1)


def test_expectations_cover_fig3_grid_and_default_link_points():
    config = workloads.config_for(GOLDEN["seed"])
    expected = golden_expectations(GOLDEN, config)
    grid = workloads.reduced_grid(config)
    fig3 = [spec for spec in grid
            if cell_key("fig3", "FlexFetch", spec) in expected]
    assert len(fig3) == len(grid) == 9
    default = config.wnic_spec
    for figure, rows in GOLDEN["points"].items():
        for policy in rows:
            assert set(expected[cell_key(figure, policy, default)]) >= {
                "energy", "disk_energy", "wnic_energy", "time"}


def test_other_seeds_fall_back_to_self_consistency(fig3_default_link):
    config = workloads.config_for(GOLDEN["seed"] + 1)
    assert golden_expectations(GOLDEN, config) == {}
    _, scenario, links, curves = fig3_default_link
    check = CellCheck({})
    key = cell_key("fig3", "BlueFS", links[0])
    result = curves["BlueFS"][0].result
    assert check.failure(key, result) is None
    assert check.failure(key, result) is None  # same result again
    changed = replace(result, disk_spinups=result.disk_spinups + 1)
    assert check.failure(key, changed) is not None


def test_placeholder_and_non_finite_results_fail(fig3_default_link):
    _, _, links, curves = fig3_default_link
    key = cell_key("fig3", "Disk-only", links[0])
    check = CellCheck({})
    assert check.failure(key, placeholder_result("Disk-only")) is not None
    result = curves["Disk-only"][0].result
    assert check.failure(key, replace(result, wnic_energy=math.inf)) \
        is not None
    assert check.failure(key, result) is None
