"""Finding and rule-catalogue types for :mod:`repro.lint`.

Every diagnostic the analyzer emits is a :class:`Finding` tagged with a
rule id from :data:`RULES`.  The catalogue is data, not code, so the CLI
``--list-rules`` output, DESIGN.md §10, and the test fixtures all key off
the same ids.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Rule:
    """One entry of the rule catalogue."""

    id: str
    name: str
    summary: str
    rationale: str


#: The rule catalogue.  Ids are stable; suppression comments
#: (``# repro-lint: ignore[R1]``) reference them.
RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="R1",
            name="determinism",
            summary="no wall-clock or unseeded randomness inside the"
                    " simulator package",
            rationale="replays must be a pure function of (trace, seed);"
                      " time.time()/datetime.now()/unseeded RNGs make"
                      " results unreproducible across runs and machines."
                      " All randomness flows through repro.sim.rng.",
        ),
        Rule(
            id="R2",
            name="unit-discipline",
            summary="physical quantities use the repro.units aliases and"
                    " never mix dimensions in +/-/comparisons",
            rationale="seconds, joules, watts, bytes and bytes/s as bare"
                      " float/int invite ms-vs-s and Mb-vs-MB slips —"
                      " exactly the numbers the paper's evaluation"
                      " (T_disk/E_disk vs T_net/E_net) depends on.",
        ),
        Rule(
            id="R3",
            name="float-equality",
            summary="no == / != on measured time/energy/power/bandwidth"
                    " values",
            rationale="accumulated float error makes exact equality on"
                      " integrated quantities flaky; compare with"
                      " repro.units.approx_eq / is_zero or math.isclose.",
        ),
        Rule(
            id="R4",
            name="defensive-defaults",
            summary="no mutable default arguments and no bare except",
            rationale="mutable defaults alias state across calls (a"
                      " classic simulator cross-run leak); bare except"
                      " swallows the invariant errors PR 1 added.",
        ),
        Rule(
            id="R5",
            name="layering",
            summary="no upward imports across the"
                    " devices → kernel → core → experiments/cli stack",
            rationale="the layered split (DESIGN.md §12) only holds if"
                      " dependencies point one way; a device model"
                      " importing policy code (or the kernel importing"
                      " the simulator core) silently re-fuses the"
                      " monolith.  Inject upward dependencies as"
                      " callables/protocols instead.",
        ),
        Rule(
            id="R6",
            name="determinism-taint",
            summary="no nondeterminism source reachable from sweep"
                    " execution or cache-key hashing",
            rationale="the run cache and the parallel executor both"
                      " assume a cell is a pure function of its"
                      " declared inputs; a wall-clock read, env lookup,"
                      " or unordered-set iteration anywhere in the"
                      " transitive call graph of _execute_job/run_key"
                      " silently breaks bit-identical replay, even when"
                      " the impure call sits in a helper R1 never"
                      " scopes to.",
        ),
        Rule(
            id="R7",
            name="parallel-safety",
            summary="no module-level state writes in worker-reachable"
                    " code; nothing non-picklable crosses the fork"
                    " boundary",
            rationale="sweep workers are forked processes: writes to"
                      " module globals vanish with the worker, and"
                      " lambdas/closures/open handles/locks placed in"
                      " SweepJob fields fail to pickle (or worse,"
                      " pickle to something stale).",
        ),
        Rule(
            id="R8",
            name="cache-key-soundness",
            summary="every result-affecting SimulationSession input"
                    " appears in run_key's canonical description",
            rationale="a simulation input omitted from the cache key"
                      " (the PR 1 fault schedules were one) lets a run"
                      " that varies it hit a stale cached RunResult —"
                      " the cache returns confidently wrong numbers.",
        ),
        Rule(
            id="R9",
            name="unit-flow",
            summary="unit dimensions stay consistent across call"
                    " boundaries",
            rationale="R2 checks arithmetic it can see inside one"
                      " function; a helper returning joules assigned"
                      " into a Seconds slot, or added to a latency, is"
                      " only visible once return dimensions propagate"
                      " through the call graph.",
        ),
        Rule(
            id="R10",
            name="path-coverage-drift",
            summary="every SimulationSession/MobileSystem parameter and"
                    " FaultSpec field is either read by the fast path"
                    " or named in its refusal predicate",
            rationale="the BurstPlan fast path is a shortcut over the"
                      " event loop; a new session knob the shortcut"
                      " neither consumes nor refuses on is silently"
                      " ignored — two runs that vary it return"
                      " bit-identical (wrong) results until a parity"
                      " test happens to sweep that knob.",
        ),
        Rule(
            id="R11",
            name="kernel-pair-drift",
            summary="the packed replay kernels (_replay_packed /"
                    " _disk_walk / _wnic_walk) account the same energy"
                    " buckets, spec constants and DPM transitions as"
                    " the device models they shadow",
            rationale="the packed walk re-derives device arithmetic"
                      " from first principles for speed; a cost term,"
                      " breakdown bucket, or state transition added to"
                      " one twin but not the other drifts the two"
                      " replay paths apart — the exact bug class the"
                      " _replay_object oracle exists to catch, found"
                      " here without running anything.",
        ),
        Rule(
            id="R13",
            name="plan-staleness",
            summary="memoised plans are immutable and every plan input"
                    " is folded into the memo key",
            rationale="plan_for memoises BurstPlans process-wide and"
                      " forked workers inherit them copy-on-write;"
                      " mutating plan-derived state after memoisation,"
                      " or keying the memo on fewer inputs than"
                      " build_plan consumes, serves stale plans to"
                      " every later cell that varies the missing"
                      " input.",
        ),
        Rule(
            id="E1",
            name="parse-error",
            summary="file could not be parsed as Python",
            rationale="an unparsable file cannot be analyzed; fix the"
                      " syntax error first.",
        ),
    )
}


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic: a rule violated at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: RULE(name) message`` — editor-clickable."""
        name = RULES[self.rule].name if self.rule in RULES else "?"
        return (f"{self.path}:{self.line}:{self.col}:"
                f" {self.rule}({name}) {self.message}")
