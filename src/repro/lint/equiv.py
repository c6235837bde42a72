"""Dual-path equivalence rules R10, R11 and R13 (DESIGN.md §17).

The replay engine keeps two implementations of every hot computation:
the discrete event loop (the oracle) and the BurstPlan fast path, whose
cost model walks packed columns instead of cloning devices.  Both
promise *bit-identical* results.  Nothing in Python enforces that
promise structurally — a parameter added to the session, a cost term
added to a device model, or a new input to ``build_plan`` silently
drifts the twins apart until a parity test happens to cover it.

These rules make the promise checkable without running anything:

* **R10 path-coverage drift** — every ``SimulationSession`` /
  ``MobileSystem`` parameter and ``FaultSpec`` field is either read by
  the fast-path cone (``_burst_plan`` / ``_replay_plan`` and everything
  they call) or named in the refusal predicate.
* **R11 kernel-pair drift** — the packed walks account the same
  breakdown buckets, spec constants and DPM transitions as the device
  models they shadow.
* **R13 plan-staleness** — memoised plans are never mutated and every
  ``build_plan`` input is folded into ``plan_for``'s memo key.

Like :mod:`repro.lint.interproc` the rules are *syntactic but
whole-program*: they anchor on the real names of the replay machinery
(``SimulationSession``, ``_disk_walk``, ``plan_for``, ...) and go
silent when an anchor is absent, so snippets and partial projects lint
clean by default.  The dynamic half of the same contract is the shadow
sanitizer in :mod:`repro.core.shadow`.
"""

from __future__ import annotations

import ast
import re

from repro.lint.findings import Finding
from repro.lint.ir import ClassIR, ModuleIR, Project, _annotation_name

# --------------------------------------------------------------------
# R11 allowances: device effects the packed walk legitimately never
# replays.  Each entry must be justified by a _packed_ok refusal or by
# the shared-state argument below; an unexplained entry is drift.
# --------------------------------------------------------------------

#: Sleep-tier and fault buckets: ``_packed_ok`` refuses devices with a
#: sleep timeout, devices already asleep, and any run with a fault
#: schedule, so the walk can never need to charge them.
_DISK_BUCKET_ALLOWANCE = frozenset({
    "disk.to-sleep", "disk.wake", "disk.spinup-failed",
})

#: Spec constants whose cost reaches the walk through the *shared*
#: ``device._transitions`` table (spindown/spinup/wake/sleep times and
#: energies — the walk indexes the same TransitionSpec objects the
#: device charges, so the constants cannot drift), through
#: ``device.spindown_policy.timeout()`` (spindown_timeout), or that
#: only feed machinery ``_packed_ok`` refuses: the sleep tier
#: (sleep_power), adaptive-DPM feedback (breakeven_time, which only
#: non-FixedTimeout policies consume), and fault retry tuning
#: (spinup_retries/backoff, dead without a fault schedule).
_DISK_SPEC_ALLOWANCE = frozenset({
    "sleep_power", "spindown_time", "spindown_energy", "spinup_time",
    "spinup_energy", "wake_time", "wake_energy", "spindown_timeout",
    "sleep_timeout", "breakeven_time", "spinup_retries",
    "spinup_backoff",
})

#: The sleep tier again: unreachable when ``sleep_timeout is None`` and
#: the device is not already asleep — both checked by ``_packed_ok``.
_DISK_TRANSITION_ALLOWANCE = frozenset({
    ("standby", "sleep"), ("sleep", "active"),
})

#: PSM bulk transfer is refused by ``_packed_ok`` (``not
#: psm_transfer_enabled``), so its buckets never occur on the fast
#: path; outages require a fault schedule, also refused.
_WNIC_BUCKET_ALLOWANCE = frozenset({
    "wnic.psm-recv", "wnic.psm-send", "wnic.outage",
})

#: CAM<->PSM transition costs flow through the shared ``_transitions``
#: table (see the disk note); the psm_* transfer constants and
#: network_timeout only feed PSM bulk transfer and fault handling,
#: both refused by ``_packed_ok``.
_WNIC_SPEC_ALLOWANCE = frozenset({
    "cam_to_psm_time", "cam_to_psm_energy", "psm_to_cam_time",
    "psm_to_cam_energy", "psm_transfer_max_bytes", "beacon_interval",
    "psm_bandwidth_factor", "psm_recv_power", "psm_send_power",
    "network_timeout",
})

_WNIC_TRANSITION_ALLOWANCE: frozenset[tuple[str, str]] = frozenset()

#: Breakdown-bucket literals: ``"disk.spinup"``, ``"wnic.recv"``, ...
_BUCKET_RE = re.compile(r"^(disk|wnic)\.[a-z0-9_.>-]+$")

#: Frozen plan types (R13) and the factories that hand them out.
_FROZEN_PLANS = frozenset({"BurstPlan", "CompiledTrace"})
_PLAN_MAKERS = frozenset({"plan_for", "build_plan", "compile_trace"})


# --------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------

def _params_of(fn: ast.FunctionDef | ast.AsyncFunctionDef
               ) -> list[ast.arg]:
    a = fn.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs]


def _self_arg(fn: ast.FunctionDef | ast.AsyncFunctionDef
              ) -> str | None:
    a = fn.args
    ordered = [*a.posonlyargs, *a.args]
    return ordered[0].arg if ordered else None


def _attr_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``self.faults.spec.x`` -> ``("self", "faults", "spec", "x")``."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        parts.reverse()
        return tuple(parts)
    return None


def _last_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _classes_named(project: Project, name: str) -> list[ClassIR]:
    return [project.classes[q] for q in sorted(project.classes)
            if q.rsplit(".", 1)[-1] == name]


def _closure(seeds: set[str], edges: dict[str, set[str]]) -> set[str]:
    out = set(seeds)
    queue = list(seeds)
    while queue:
        for nxt in edges.get(queue.pop(), ()):
            if nxt not in out:
                out.add(nxt)
                queue.append(nxt)
    return out


def _assign_pairs(node: ast.AST) -> list[tuple[ast.expr, ast.expr]]:
    """Every ``(target, value)`` pair of Assign/AnnAssign under node."""
    pairs: list[tuple[ast.expr, ast.expr]] = []
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign):
            pairs.extend((t, stmt.value) for t in stmt.targets)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            pairs.append((stmt.target, stmt.value))
    return pairs


# --------------------------------------------------------------------
# R10: path-coverage drift
# --------------------------------------------------------------------

class _SessionModel:
    """The fast-path coverage facts of one SimulationSession class."""

    def __init__(self, project: Project, cls: ClassIR) -> None:
        self.cls = cls
        self.path = cls.module.path
        self.methods: dict[str, ast.FunctionDef] = {
            name: project.functions[q].node
            for name, q in cls.methods.items()
            if q in project.functions
        }
        self.init = self.methods.get("__init__")
        self.params: list[ast.arg] = (
            _params_of(self.init)[1:] if self.init is not None else [])
        self.stored = self._stored_attrs()
        self.edges = self._derived_edges()
        self.cone = self._cone()
        self.cone_attrs = self._cone_attrs()

    def _stored_attrs(self) -> dict[str, set[str]]:
        """init parameter -> the ``self.*`` attrs built from it."""
        stored: dict[str, set[str]] = {a.arg: set() for a in self.params}
        if self.init is None:
            return stored
        self_name = _self_arg(self.init)
        for target, value in _assign_pairs(self.init):
            chain = _attr_chain(target)
            if chain is None or len(chain) != 2 or chain[0] != self_name:
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Name) and node.id in stored:
                    stored[node.id].add(chain[1])
        return stored

    def _derived_edges(self) -> dict[str, set[str]]:
        """attr -> attrs assigned from it, across *every* method.

        Derivations are not confined to ``_materialise``: ``run`` e.g.
        builds ``_sinks_hot`` from ``sinks``, so a per-method scan
        would falsely flag the ``sinks`` parameter as uncovered.
        """
        edges: dict[str, set[str]] = {}
        for method in self.methods.values():
            self_name = _self_arg(method)
            if self_name is None:
                continue
            for target, value in _assign_pairs(method):
                chain = _attr_chain(target)
                if (chain is None or len(chain) != 2
                        or chain[0] != self_name):
                    continue
                for node in ast.walk(value):
                    if not isinstance(node, ast.Attribute):
                        continue
                    src = _attr_chain(node)
                    if src is not None and src[0] == self_name \
                            and len(src) >= 2:
                        edges.setdefault(src[1], set()).add(chain[1])
        return edges

    def _cone(self) -> set[str]:
        """_burst_plan/_replay_plan plus transitively called methods."""
        cone = {name for name in ("_burst_plan", "_replay_plan")
                if name in self.methods}
        queue = list(cone)
        while queue:
            method = self.methods[queue.pop()]
            self_name = _self_arg(method)
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == self_name
                        and func.attr in self.methods
                        and func.attr not in cone):
                    cone.add(func.attr)
                    queue.append(func.attr)
        return cone

    def _cone_attrs(self) -> set[str]:
        attrs: set[str] = set()
        for name in self.cone:
            method = self.methods[name]
            self_name = _self_arg(method)
            for node in ast.walk(method):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == self_name):
                    attrs.add(node.attr)
        return attrs

    def coverage(self) -> dict[str, frozenset[str]]:
        """init parameter -> the cone attrs that witness its coverage."""
        return {
            param: frozenset(
                _closure(set(attrs), self.edges) & self.cone_attrs)
            for param, attrs in self.stored.items()
        }


def _session_models(project: Project) -> list[_SessionModel]:
    return [
        _SessionModel(project, cls)
        for cls in _classes_named(project, "SimulationSession")
        if {"_burst_plan", "_replay_plan"} <= cls.methods.keys()
    ]


def session_fast_path_coverage(project: Project
                               ) -> dict[str, frozenset[str]]:
    """Audit hook: map every ``SimulationSession.__init__`` parameter
    to the fast-path attributes that witness its coverage.

    An empty witness set is exactly what R10 flags; the session test
    suite asserts every real parameter maps to a non-empty set.
    """
    for model in _session_models(project):
        return model.coverage()
    return {}


def _r10_params(model: _SessionModel) -> list[Finding]:
    findings = []
    coverage = model.coverage()
    for arg in model.params:
        if coverage.get(arg.arg):
            continue
        findings.append(Finding(
            path=model.path, line=arg.lineno, col=arg.col_offset,
            rule="R10",
            message=f"session parameter '{arg.arg}' is neither read by"
                    " the fast-path cone (_burst_plan/_replay_plan)"
                    " nor named in its refusal predicate — runs that"
                    " vary it replay identically"))
    return findings


def _r10_mobile_system(project: Project,
                       model: _SessionModel) -> list[Finding]:
    envs = _classes_named(project, "MobileSystem")
    if not envs:
        return []
    init_q = envs[0].methods.get("__init__")
    if init_q is None or init_q not in project.functions:
        return []
    env_params = [a.arg for a
                  in _params_of(project.functions[init_q].node)[1:]]
    findings = []
    for method in model.methods.values():
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            if _last_name(node.func) != "MobileSystem":
                continue
            if any(kw.arg is None for kw in node.keywords):
                continue  # **kwargs forwards everything
            given = {kw.arg for kw in node.keywords}
            for i, param in enumerate(env_params):
                if i < len(node.args) or param in given:
                    continue
                findings.append(Finding(
                    path=model.path, line=node.lineno,
                    col=node.col_offset, rule="R10",
                    message=f"MobileSystem parameter '{param}' is not"
                            " forwarded by the session — an event-loop"
                            " knob the session can never set, invisible"
                            " to the fast-path refusal predicate"))
    return findings


def _maximal_self_chains(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                         self_name: str | None) -> list[tuple[str, ...]]:
    inner = {id(node.value) for node in ast.walk(fn)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Attribute)}
    chains = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _attr_chain(node)
            if chain is not None and chain[0] == self_name:
                chains.append(chain)
    return chains


def _r10_fault_fields(project: Project,
                      model: _SessionModel) -> list[Finding]:
    specs = _classes_named(project, "FaultSpec")
    burst = model.methods.get("_burst_plan")
    if not specs or burst is None or "faults" not in model.stored:
        return []
    spec_fields = [
        stmt.target.id for stmt in specs[0].node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
    ]
    fault_attrs = _closure(set(model.stored["faults"]), model.edges)
    chains = [
        chain
        for chain in _maximal_self_chains(burst, _self_arg(burst))
        if len(chain) >= 2 and chain[1] in fault_attrs
    ]
    field_chains = [chain for chain in chains if len(chain) >= 3]
    if not field_chains:
        # Either untouched entirely (the parameter-coverage check
        # reports that, once, at the parameter) or a bare whole-object
        # refusal, which covers every present and future field.  A
        # bare mention *conjoined* with field reads does not rescue:
        # `faults is not None and faults.outage_rate > 0` still only
        # refuses on the fields it names.
        return []
    mentioned = {part for chain in field_chains for part in chain[2:]}
    missing = [f for f in spec_fields if f not in mentioned]
    if not missing:
        return []
    return [Finding(
        path=model.path, line=burst.lineno, col=burst.col_offset,
        rule="R10",
        message="_burst_plan refuses on individual FaultSpec fields"
                f" but ignores {', '.join(missing)} — gate on the"
                " whole faults object or cover every field")]


def _run_r10(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for model in _session_models(project):
        findings.extend(_r10_params(model))
        findings.extend(_r10_mobile_system(project, model))
        findings.extend(_r10_fault_fields(project, model))
    return findings


# --------------------------------------------------------------------
# R11: kernel-pair drift
# --------------------------------------------------------------------

class _Effects:
    """Symbolic effect summary of one side of a kernel pair."""

    def __init__(self) -> None:
        #: bucket literal -> first occurrence (line, col)
        self.buckets: dict[str, tuple[int, int]] = {}
        #: dynamic-bucket prefixes seen ("disk.", "wnic.", None=any)
        self.state_wildcards: set[str | None] = set()
        self.transition_wildcard = False
        #: spec attribute -> first occurrence
        self.spec_attrs: dict[str, tuple[int, int]] = {}
        #: (src, dst) state pair -> first occurrence
        self.transitions: dict[tuple[str, str], tuple[int, int]] = {}


def _enum_values(project: Project) -> dict[str, dict[str, str]]:
    """Enum class name -> {MEMBER: string value}, project-wide."""
    enums: dict[str, dict[str, str]] = {}
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {_last_name(b) for b in node.bases}
            if not bases & {"Enum", "StrEnum", "IntEnum"}:
                continue
            members: dict[str, str] = {}
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    members[stmt.targets[0].id] = stmt.value.value
            if members:
                enums[node.name] = members
    return enums


def _module_state_aliases(module: ModuleIR,
                          enums: dict[str, dict[str, str]]
                          ) -> dict[str, str]:
    """Module-level ``_IDLE = DiskState.IDLE.value`` style aliases."""
    aliases: dict[str, str] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        value = _state_of(stmt.value, {}, enums)
        if value is not None:
            aliases[stmt.targets[0].id] = value
    return aliases


def _state_of(expr: ast.expr, aliases: dict[str, str],
              enums: dict[str, dict[str, str]]) -> str | None:
    """Resolve an expression to a device-state string, if possible."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    chain = _attr_chain(expr) if isinstance(expr, ast.Attribute) else None
    if chain is not None and len(chain) == 3 and chain[2] == "value" \
            and chain[0] in enums:
        member = enums[chain[0]].get(chain[1])
        return member if member is not None else chain[1].lower()
    return None


def _spec_receivers(fn: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> set[str]:
    """Names that hold a device spec inside one function."""
    receivers: set[str] = set()
    for arg in _params_of(fn):
        ann = (_annotation_name(arg.annotation)
               if arg.annotation is not None else None)
        if arg.arg == "spec" or (
                ann is not None and ann.endswith("Spec")
                and ann != "TransitionSpec"):
            receivers.add(arg.arg)
    for target, value in _assign_pairs(fn):
        if not isinstance(target, ast.Name):
            continue
        chain = (_attr_chain(value)
                 if isinstance(value, ast.Attribute) else None)
        if chain is not None and chain[-1] == "spec":
            receivers.add(target.id)
    return receivers


def _collect_buckets(tree: ast.AST, effects: _Effects) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _BUCKET_RE.match(node.value):
                effects.buckets.setdefault(
                    node.value, (node.lineno, node.col_offset))
            continue
        parts: list[str] = []
        if isinstance(node, ast.JoinedStr):
            parts = [p.value for p in node.values
                     if isinstance(p, ast.Constant)
                     and isinstance(p.value, str)]
        elif (isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Add)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)):
            parts = [node.left.value]
        if not parts:
            continue
        if any("->" in part for part in parts):
            effects.transition_wildcard = True
        elif any("." in part for part in parts):
            prefix = next(
                (p for part in parts for p in ("disk.", "wnic.")
                 if part.startswith(p)), None)
            effects.state_wildcards.add(prefix)


def _collect_fn_effects(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                        aliases: dict[str, str],
                        enums: dict[str, dict[str, str]],
                        effects: _Effects) -> None:
    _collect_buckets(fn, effects)
    receivers = _spec_receivers(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in receivers:
                effects.spec_attrs.setdefault(
                    node.attr, (node.lineno, node.col_offset))
            elif isinstance(value, ast.Attribute) \
                    and value.attr == "spec":
                effects.spec_attrs.setdefault(
                    node.attr, (node.lineno, node.col_offset))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Tuple) \
                and len(node.slice.elts) == 2:
            src = _state_of(node.slice.elts[0], aliases, enums)
            dst = _state_of(node.slice.elts[1], aliases, enums)
            if src is not None and dst is not None:
                effects.transitions.setdefault(
                    (src, dst), (node.lineno, node.col_offset))
        elif isinstance(node, ast.Call) \
                and _last_name(node.func) == "TransitionSpec":
            pair: list[str | None] = [None, None]
            for i, arg in enumerate(node.args[:2]):
                pair[i] = _state_of(arg, aliases, enums)
            for kw in node.keywords:
                if kw.arg == "src":
                    pair[0] = _state_of(kw.value, aliases, enums)
                elif kw.arg == "dst":
                    pair[1] = _state_of(kw.value, aliases, enums)
            if pair[0] is not None and pair[1] is not None:
                effects.transitions.setdefault(
                    (pair[0], pair[1]), (node.lineno, node.col_offset))


class _DeviceSide:
    """Effects + state vocabulary of one device class hierarchy."""

    def __init__(self, project: Project, cls_qualname: str,
                 enums: dict[str, dict[str, str]]) -> None:
        self.effects = _Effects()
        self.states: set[str] = set()
        modules: dict[str, ModuleIR] = {}
        for qualname in project.mro(cls_qualname):
            cls = project.classes[qualname]
            module = cls.module
            modules[module.name] = module
            aliases = _module_state_aliases(module, enums)
            for stmt in ast.walk(cls.node):
                if isinstance(stmt, ast.FunctionDef):
                    _collect_fn_effects(stmt, aliases, enums,
                                        self.effects)
            _collect_buckets(cls.node, self.effects)
        # Module-level statements of the defining modules carry bucket
        # tables (e.g. direction -> "wnic.recv" dicts) and transitions.
        for module in modules.values():
            aliases = _module_state_aliases(module, enums)
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Import,
                                     ast.ImportFrom)):
                    continue
                _collect_buckets(stmt, self.effects)
            # State vocabulary: enums defined in these modules.
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) \
                        and node.name in enums:
                    self.states.update(enums[node.name].values())


def _walk_cone(project: Project, anchor: str) -> list[str]:
    """Qualnames of [_packed_ok, _replay_packed, anchor] that exist."""
    cone = []
    for name in ("_packed_ok", "_replay_packed", anchor):
        for qualname in sorted(project.functions):
            if qualname.rsplit(".", 1)[-1] == name:
                cone.append(qualname)
                break
    return cone


def _collect_walk_effects(project: Project, cone: list[str],
                          enums: dict[str, dict[str, str]]
                          ) -> _Effects:
    effects = _Effects()
    for qualname in cone:
        fn = project.functions[qualname]
        aliases = _module_state_aliases(fn.module, enums)
        _collect_fn_effects(fn.node, aliases, enums, effects)
    return effects


def _state_cover(effects: _Effects, prefix: str,
                 states: set[str]) -> set[str]:
    if None in effects.state_wildcards \
            or prefix in effects.state_wildcards:
        return {prefix + state for state in states}
    return set()


def _r11_device(project: Project, cls_name: str, anchor: str,
                prefix: str, walk: _Effects, walk_spec_union: set[str],
                bucket_allowance: frozenset[str],
                spec_allowance: frozenset[str],
                transition_allowance: frozenset[tuple[str, str]],
                enums: dict[str, dict[str, str]]) -> list[Finding]:
    classes = _classes_named(project, cls_name)
    anchors = [project.functions[q] for q in sorted(project.functions)
               if q.rsplit(".", 1)[-1] == anchor]
    if not classes or not anchors:
        return []
    walk_fn = anchors[0]
    walk_path = walk_fn.module.path
    walk_line = walk_fn.node.lineno
    walk_col = walk_fn.node.col_offset
    device = _DeviceSide(project, classes[0].qualname, enums)
    dev = device.effects
    findings: list[Finding] = []

    dev_literals = {b for b in dev.buckets if b.startswith(prefix)}
    walk_literals = {b for b in walk.buckets if b.startswith(prefix)}
    walk_cover = _state_cover(walk, prefix, device.states)
    for bucket in sorted(dev_literals - walk_literals - walk_cover
                         - bucket_allowance):
        findings.append(Finding(
            path=walk_path, line=walk_line, col=walk_col, rule="R11",
            message=f"device breakdown bucket '{bucket}' ({cls_name})"
                    f" is never accounted by {anchor} — the two replay"
                    " paths drift on any trace that charges it"))
    dev_cover = _state_cover(dev, prefix, device.states)
    for bucket in sorted(walk_literals - dev_literals - dev_cover):
        if "->" in bucket and dev.transition_wildcard:
            continue
        line, col = walk.buckets[bucket]
        findings.append(Finding(
            path=walk_path, line=line, col=col, rule="R11",
            message=f"packed-walk bucket '{bucket}' does not exist in"
                    f" the {cls_name} device model — the walk charges"
                    " energy the event loop never does"))

    for attr in sorted(set(dev.spec_attrs) - walk_spec_union
                       - spec_allowance):
        findings.append(Finding(
            path=walk_path, line=walk_line, col=walk_col, rule="R11",
            message=f"device spec constant '{attr}' ({cls_name}) is"
                    f" never read by the packed walk — a cost term the"
                    " fast path silently drops"))

    dev_tr = set(dev.transitions)
    walk_tr = set(walk.transitions)
    for src, dst in sorted(dev_tr - walk_tr - transition_allowance):
        findings.append(Finding(
            path=walk_path, line=walk_line, col=walk_col, rule="R11",
            message=f"device transition {src}->{dst} ({cls_name}) is"
                    f" never charged by {anchor}"))
    for src, dst in sorted(walk_tr - dev_tr):
        line, col = walk.transitions[(src, dst)]
        findings.append(Finding(
            path=walk_path, line=line, col=col, rule="R11",
            message=f"packed walk charges transition {src}->{dst}"
                    f" which the {cls_name} model never defines"))
    return findings


def _run_r11(project: Project) -> list[Finding]:
    enums = _enum_values(project)
    disk_walk = _collect_walk_effects(
        project, _walk_cone(project, "_disk_walk"), enums)
    wnic_walk = _collect_walk_effects(
        project, _walk_cone(project, "_wnic_walk"), enums)
    # Spec reads are compared as unions: the shared stages
    # (_replay_packed, _packed_ok) read e.g. bandwidth_bps on behalf
    # of both devices, so per-cone attribution would cross-flag.
    spec_union = set(disk_walk.spec_attrs) | set(wnic_walk.spec_attrs)
    findings = _r11_device(
        project, "HardDisk", "_disk_walk", "disk.", disk_walk,
        spec_union, _DISK_BUCKET_ALLOWANCE, _DISK_SPEC_ALLOWANCE,
        _DISK_TRANSITION_ALLOWANCE, enums)
    findings += _r11_device(
        project, "WirelessNic", "_wnic_walk", "wnic.", wnic_walk,
        spec_union, _WNIC_BUCKET_ALLOWANCE, _WNIC_SPEC_ALLOWANCE,
        _WNIC_TRANSITION_ALLOWANCE, enums)
    return findings


# --------------------------------------------------------------------
# R13: plan staleness
# --------------------------------------------------------------------

def _root_names(expr: ast.expr) -> set[str]:
    """Free names an expression depends on (call *inputs*, not callees)."""
    callees = {id(node.func) for node in ast.walk(expr)
               if isinstance(node, ast.Call)}
    return {node.id for node in ast.walk(expr)
            if isinstance(node, ast.Name) and id(node) not in callees}


def _r13_memo_key(project: Project) -> list[Finding]:
    findings = []
    for qualname in sorted(project.functions):
        fn = project.functions[qualname]
        if fn.name != "plan_for" or fn.cls is not None:
            continue
        path = fn.module.path
        locals_: dict[str, ast.expr] = {}
        for target, value in _assign_pairs(fn.node):
            if isinstance(target, ast.Name):
                locals_.setdefault(target.id, value)
        key_roots: set[str] = set()
        saw_memo_write = False
        for target, value in _assign_pairs(fn.node):
            if not (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                continue
            saw_memo_write = True
            key_expr = target.slice
            if isinstance(key_expr, ast.Name) \
                    and key_expr.id in locals_:
                key_roots.add(key_expr.id)
                key_expr = locals_[key_expr.id]
            key_roots |= _root_names(key_expr)
        if not saw_memo_write:
            continue
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call)
                    and _last_name(node.func) == "build_plan"):
                continue
            inputs = [*node.args, *(kw.value for kw in node.keywords)]
            for arg in inputs:
                for root in sorted(_root_names(arg) - key_roots):
                    findings.append(Finding(
                        path=path, line=node.lineno,
                        col=node.col_offset, rule="R13",
                        message=f"build_plan input '{root}' is not"
                                " folded into plan_for's memo key —"
                                " cells that vary it are served a"
                                " stale memoised plan"))
    return findings


def _r13_frozen_writes(project: Project) -> list[Finding]:
    findings = []
    for qualname in sorted(project.functions):
        fn = project.functions[qualname]
        path = fn.module.path
        typed: set[str] = set()
        for arg in _params_of(fn.node):
            ann = (_annotation_name(arg.annotation)
                   if arg.annotation is not None else None)
            if ann in _FROZEN_PLANS:
                typed.add(arg.arg)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                ann_name = _annotation_name(node.annotation)
                if ann_name in _FROZEN_PLANS:
                    typed.add(node.target.id)
            elif (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and _last_name(node.value.func) in _PLAN_MAKERS):
                typed.add(node.targets[0].id)
        frozen_attrs: set[str] = set()
        if fn.cls is not None and fn.cls in project.classes:
            for attr, cls_q in project.classes[fn.cls] \
                    .attr_types.items():
                if cls_q.rsplit(".", 1)[-1] in _FROZEN_PLANS:
                    frozen_attrs.add(attr)
        self_name = _self_arg(fn.node) if fn.cls is not None else None
        for node in ast.walk(fn.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                chain = _attr_chain(target)
                if chain is None:
                    continue
                hit = (chain[0] in typed and len(chain) >= 2) or (
                    self_name is not None and chain[0] == self_name
                    and len(chain) >= 3 and chain[1] in frozen_attrs)
                if hit:
                    findings.append(Finding(
                        path=path, line=target.lineno,
                        col=target.col_offset, rule="R13",
                        message=f"write to '{'.'.join(chain)}' mutates"
                                " a memoised plan after creation —"
                                " plans are cached process-wide and"
                                " shared copy-on-write with workers;"
                                " build a new plan instead"))
    return findings


def _run_r13(project: Project) -> list[Finding]:
    return _r13_memo_key(project) + _r13_frozen_writes(project)


# --------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------

def run_equiv_rules(project: Project,
                    select: frozenset[str] | None = None
                    ) -> list[Finding]:
    """Run the dual-path equivalence rules over a built project.

    Mirrors :func:`repro.lint.interproc.run_project_rules`: ``select``
    of ``None`` means all of R10, R11 and R13, suppression filtering
    is the caller's job, findings come back in (path, line, col,
    rule, message) order.
    """
    wanted = {"R10", "R11", "R13"}
    if select is not None:
        wanted &= select
    if not wanted or not project.modules:
        return []
    findings: list[Finding] = []
    if "R10" in wanted:
        findings.extend(_run_r10(project))
    if "R11" in wanted:
        findings.extend(_run_r11(project))
    if "R13" in wanted:
        findings.extend(_run_r13(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule,
                                 f.message))
    return findings
