"""Dual-path equivalence rules R10, R11 and R13 (``repro.lint.equiv``).

Each rule gets a checked-in bad/good ``.pysnippet`` fixture pair
(positioned inside the package via ``package_rel`` so the anchors
resolve), a current-tree clean assertion, and — for R10 — a positive
audit of the real ``SimulationSession``: every constructor parameter
must map to a non-empty set of fast-path coverage witnesses.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, lint_source
from repro.lint.equiv import session_fast_path_coverage
from repro.lint.ir import build_project, parse_module

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

SESSION = ("repro", "core", "session.py")
COSTMODEL = ("repro", "core", "costmodel.py")
PLAN = ("repro", "sim", "plan.py")


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.pysnippet").read_text(encoding="utf-8")


def _lint_fixture(name: str, package_rel: tuple[str, ...],
                  rule: str) -> list:
    return lint_source(_fixture(name), path=f"{name}.py",
                       package_rel=package_rel,
                       select=frozenset({rule}))


# ----------------------------------------------------------------------
# R10 — path-coverage drift
# ----------------------------------------------------------------------
class TestR10:
    def test_bad_fixture_reports_all_three_drifts(self):
        findings = _lint_fixture("r10_bad", SESSION, "R10")
        assert [f.rule for f in findings] == ["R10"] * 3
        messages = " | ".join(f.message for f in findings)
        assert "session parameter 'readahead_pages'" in messages
        assert "MobileSystem parameter 'readahead_pages'" in messages
        assert "ignores spinup_fail_prob" in messages

    def test_good_fixture_is_clean(self):
        assert _lint_fixture("r10_good", SESSION, "R10") == []

    def test_current_tree_is_clean(self):
        assert lint_paths([REPO_ROOT / "src"],
                          select=frozenset({"R10"})) == []

    def test_real_session_every_parameter_is_covered(self):
        """Audit: each SimulationSession.__init__ parameter has at
        least one fast-path attribute witnessing read-or-refusal."""
        path = REPO_ROOT / "src" / "repro" / "core" / "session.py"
        module = parse_module(path.read_text(encoding="utf-8"),
                              path=str(path), package_rel=SESSION)
        assert module is not None
        coverage = session_fast_path_coverage(build_project([module]))
        assert coverage, "SimulationSession anchor not found"
        uncovered = {p for p, attrs in coverage.items() if not attrs}
        assert not uncovered
        # Spot checks pinning the two trickiest derivation chains:
        # sinks is only derived in run(), faults via an IfExp.
        assert "_sinks_hot" in coverage["sinks"]
        assert "faults" in coverage["faults"]


# ----------------------------------------------------------------------
# R11 — kernel-pair drift
# ----------------------------------------------------------------------
class TestR11:
    def test_bad_fixture_reports_every_drift_direction(self):
        findings = _lint_fixture("r11_bad", COSTMODEL, "R11")
        assert [f.rule for f in findings] == ["R11"] * 6
        messages = " | ".join(f.message for f in findings)
        assert "bucket 'disk.recalibrate'" in messages          # missing
        assert "bucket 'disk.turbo'" in messages                # invented
        assert "'recalibration_energy'" in messages             # missing
        assert "'recalibration_time'" in messages               # missing
        assert "transition standby->active" in messages         # missing
        assert "transition idle->active" in messages            # invented

    def test_invented_effects_are_anchored_at_their_use_site(self):
        findings = _lint_fixture("r11_bad", COSTMODEL, "R11")
        invented = [f for f in findings if "disk.turbo" in f.message]
        assert len(invented) == 1
        source = _fixture("r11_bad").splitlines()
        assert "disk.turbo" in source[invented[0].line - 1]

    def test_good_fixture_is_clean(self):
        assert _lint_fixture("r11_good", COSTMODEL, "R11") == []

    def test_current_tree_is_clean(self):
        assert lint_paths([REPO_ROOT / "src"],
                          select=frozenset({"R11"})) == []


# ----------------------------------------------------------------------
# R13 — plan staleness
# ----------------------------------------------------------------------
class TestR13:
    def test_bad_fixture_flags_memo_key_and_mutation(self):
        findings = _lint_fixture("r13_bad", PLAN, "R13")
        assert [f.rule for f in findings] == ["R13"] * 2
        messages = " | ".join(f.message for f in findings)
        assert "input 'threshold' is not folded" in messages
        assert "write to 'plan.record_count'" in messages

    def test_good_fixture_is_clean(self):
        assert _lint_fixture("r13_good", PLAN, "R13") == []

    def test_current_tree_is_clean(self):
        assert lint_paths([REPO_ROOT / "src"],
                          select=frozenset({"R13"})) == []


# ----------------------------------------------------------------------
# hygiene: the analyzer analyzes itself, stays out of the repo
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_lint_package_is_clean_under_equiv_rules(self):
        assert lint_paths([REPO_ROOT / "src" / "repro" / "lint"],
                          select=frozenset({"R10", "R11",
                                            "R13"})) == []

    def test_whole_tree_is_clean_under_equiv_rules(self):
        assert lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests",
             REPO_ROOT / "benchmarks", REPO_ROOT / "examples"],
            select=frozenset({"R10", "R11", "R13"})) == []

    def test_pycache_is_gitignored(self):
        gitignore = (REPO_ROOT / ".gitignore").read_text(
            encoding="utf-8").splitlines()
        assert "__pycache__/" in gitignore


# ----------------------------------------------------------------------
# ordering: equiv findings merge into the global sort
# ----------------------------------------------------------------------
class TestOrdering:
    def test_findings_sorted_by_location(self):
        findings = _lint_fixture("r11_bad", COSTMODEL, "R11")
        keys = [(f.path, f.line, f.col, f.rule, f.message)
                for f in findings]
        assert keys == sorted(keys)
