"""JSON manifest parsing, task execution and table printing.

A manifest declares named objects and an ordered task list:

    {"objects": {"D": {"kind": "hom_algebra", "dim": 2, "mul": [...], "alpha": [...]},
                 "g": {"kind": "gallery", "name": "homalg_2dim", "params": {"a": "1", ...}}},
     "tasks": [{"op": "check_hom_algebra", "args": ["D"], "expect": "pass"},
               {"op": "ttp", "args": ["A", "B", "R"], "as": "P", "expect": "pass"}]}

Scalars are integers or strings in the ``-?digits(/digits)?`` syntax.  Gallery
bundles bind dotted member names (``g.D``).  Check tasks pass when the scan
passes; construct tasks pass when construction succeeds, fail when a domain
error is raised, and bind their result under ``as``.
"""

import json
from dataclasses import dataclass, field

from . import algebra, coalgebra, gallery, modsmash, twisted, twistor
from .algebra import HomAlgebra
from .coalgebra import HomBialgebra, HomCoalgebra
from .errors import (
    DimensionMismatch,
    DuplicateName,
    HomTwistError,
    ManifestSyntaxError,
    UnknownName,
    WrongKind,
)
from .exact import Matrix, rat_parse, rat_str
from .modsmash import ActionTable, CoactionTable
from .twisted import TwistingMapR
from .twistor import Operator2, Operator3

KINDS = (
    "hom_algebra",
    "hom_coalgebra",
    "hom_bialgebra",
    "linear_map",
    "operator2",
    "operator3",
    "twisting_map",
    "action",
    "coaction",
    "gallery",
)

EXPECTATIONS = ("pass", "fail", "any")

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3


@dataclass(frozen=True)
class Task:
    op: str
    args: tuple
    store: str = None
    expect: str = "pass"


@dataclass
class Manifest:
    """Parsed manifest: normalized definitions, built objects, tasks."""

    defs: dict
    objects: dict = field(compare=False)
    tasks: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, Manifest):
            return NotImplemented
        return self.defs == other.defs and self.tasks == other.tasks


# ---------------------------------------------------------------------------
# scalar / array normalization
# ---------------------------------------------------------------------------


def _scalar(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise WrongKind(f"{where}: scalar must be an integer or 'p/q' string")
    return rat_parse(str(value))


def _norm_scalar(value, where):
    return rat_str(_scalar(value, where))


def _nested(value, depth, where):
    if depth == 0:
        return _norm_scalar(value, where)
    if not isinstance(value, list):
        raise WrongKind(f"{where}: expected a nested array")
    return [_nested(v, depth - 1, where) for v in value]


def _matrix(value, where):
    return Matrix(_nested(value, 2, where))


# ---------------------------------------------------------------------------
# object builders (raw def -> built object), keyed by kind
# ---------------------------------------------------------------------------


def _require_fields(raw, where, *names):
    missing = [n for n in names if n not in raw]
    if missing:
        raise WrongKind(f"{where}: missing fields {missing}")
    extra = sorted(set(raw) - set(names) - {"kind"})
    if extra:
        raise WrongKind(f"{where}: unknown fields {extra}")
    for n in names:
        value = raw[n]
        if n.endswith("dim") or n == "dim":
            if isinstance(value, bool) or not isinstance(value, int):
                raise WrongKind(f"{where}: field {n!r} must be an integer")
        elif n == "side":
            if value not in ("left", "right"):
                raise WrongKind(f"{where}: side must be 'left' or 'right'")
        elif n == "name":
            if not isinstance(value, str):
                raise WrongKind(f"{where}: name must be a string")
        elif n == "params":
            if not isinstance(value, dict):
                raise WrongKind(f"{where}: params must be an object")


def _build_object(name, raw):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise WrongKind(f"object {name!r}: definition must carry a 'kind'")
    kind = raw["kind"]
    where = f"object {name!r} ({kind})"
    if kind == "hom_algebra":
        _require_fields(raw, where, "dim", "mul", "alpha")
        return HomAlgebra(raw["dim"], _nested(raw["mul"], 3, where), _matrix(raw["alpha"], where))
    if kind == "hom_coalgebra":
        _require_fields(raw, where, "dim", "comul", "alpha")
        return HomCoalgebra(
            raw["dim"], _nested(raw["comul"], 3, where), _matrix(raw["alpha"], where)
        )
    if kind == "hom_bialgebra":
        _require_fields(raw, where, "dim", "mul", "comul", "alpha")
        alpha = _matrix(raw["alpha"], where)
        return HomBialgebra(
            HomAlgebra(raw["dim"], _nested(raw["mul"], 3, where), alpha),
            HomCoalgebra(raw["dim"], _nested(raw["comul"], 3, where), alpha),
        )
    if kind == "linear_map":
        _require_fields(raw, where, "source_dim", "target_dim", "matrix")
        m = _matrix(raw["matrix"], where)
        if m.rows != raw["target_dim"] or m.cols != raw["source_dim"]:
            raise DimensionMismatch(f"{where}: matrix shape does not match declared dims")
        return m
    if kind == "operator2":
        _require_fields(raw, where, "dim", "matrix")
        return Operator2(raw["dim"], _matrix(raw["matrix"], where))
    if kind == "operator3":
        _require_fields(raw, where, "dim", "matrix")
        return Operator3(raw["dim"], _matrix(raw["matrix"], where))
    if kind == "twisting_map":
        _require_fields(raw, where, "dim_a", "dim_b", "matrix")
        return TwistingMapR(raw["dim_a"], raw["dim_b"], _matrix(raw["matrix"], where))
    if kind == "action":
        _require_fields(raw, where, "side", "acting_dim", "module_dim", "table", "alpha_m")
        return ActionTable(
            raw["side"],
            raw["acting_dim"],
            raw["module_dim"],
            _nested(raw["table"], 3, where),
            _matrix(raw["alpha_m"], where),
        )
    if kind == "coaction":
        _require_fields(raw, where, "side", "coalgebra_dim", "module_dim", "table", "alpha_m")
        return CoactionTable(
            raw["side"],
            raw["coalgebra_dim"],
            raw["module_dim"],
            _nested(raw["table"], 3, where),
            _matrix(raw["alpha_m"], where),
        )
    if kind == "gallery":
        _require_fields(raw, where, "name", "params")
        key = gallery.GalleryKey(raw["name"], dict(raw["params"]))
        return gallery.build(key)
    raise WrongKind(f"object {name!r}: unknown kind {kind!r}")


def _normalize_def(name, raw):
    """Canonical JSON form of a definition (scalars as strings), for round-trips."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise WrongKind(f"object {name!r}: definition must carry a 'kind'")
    kind = raw["kind"]
    out = {"kind": kind}
    where = f"object {name!r}"
    for fieldname, value in raw.items():
        if fieldname == "kind":
            continue
        if fieldname in ("mul", "comul", "table"):
            out[fieldname] = _nested(value, 3, where)
        elif fieldname in ("alpha", "alpha_m", "matrix"):
            out[fieldname] = _nested(value, 2, where)
        elif fieldname == "params":
            if not isinstance(value, dict):
                raise WrongKind(f"{where}: params must be an object")
            out[fieldname] = {k: _norm_scalar(v, where) for k, v in value.items()}
        else:
            out[fieldname] = value
    return out


# ---------------------------------------------------------------------------
# task verbs
# ---------------------------------------------------------------------------


def _alg(obj):
    """Accept a HomBialgebra wherever a HomAlgebra is expected."""
    return obj.algebra if isinstance(obj, HomBialgebra) else obj


def _coalg(obj):
    return obj.coalgebra if isinstance(obj, HomBialgebra) else obj


CHECK_VERBS = {
    "check_hom_algebra": lambda a: algebra.check_hom_algebra(_alg(a)),
    "check_associative": lambda a: algebra.check_associative(_alg(a)),
    "check_lemma_four_elements": lambda a: algebra.check_lemma_four_elements(_alg(a)),
    "check_algebra_morphism": lambda f, a, b: algebra.check_algebra_morphism(
        f, _alg(a), _alg(b)
    ),
    "check_hom_coalgebra": lambda c: coalgebra.check_hom_coalgebra(_coalg(c)),
    "check_hom_bialgebra": lambda h: coalgebra.check_hom_bialgebra(h),
    "check_twistor": lambda d, t: twistor.check_twistor(_alg(d), t),
    "check_hom_twistor": lambda d, t: twistor.check_hom_twistor(_alg(d), t),
    "check_pseudotwistor": lambda d, t, c1, c2: twistor.check_pseudotwistor(
        _alg(d), t, c1, c2
    ),
    "check_hom_pseudotwistor": lambda d, t, c1, c2: twistor.check_hom_pseudotwistor(
        _alg(d), t, c1, c2
    ),
    "check_alpha_pseudotwistor": lambda d, f, t, c1, c2: twistor.check_alpha_pseudotwistor(
        _alg(d), f, t, c1, c2
    ),
    "check_yau_compat": lambda d, f, t, c1, c2: twistor.check_yau_compat(
        _alg(d), f, t, c1, c2
    ),
    "check_twisting_map": lambda a, b, r: twisted.check_twisting_map(_alg(a), _alg(b), r),
    "check_hom_twisting_map": lambda a, b, r: twisted.check_hom_twisting_map(
        _alg(a), _alg(b), r
    ),
    "check_braid": lambda r1, r2, r3: twisted.check_braid(r1, r2, r3),
    "check_alphaAB_twisting_map": lambda a, b, f, g, r: twisted.check_alphaAB_twisting_map(
        _alg(a), _alg(b), f, g, r
    ),
    "check_deform_compat_ttp": lambda a, b, f, g, p: twisted.check_deform_compat_ttp(
        _alg(a), _alg(b), f, g, p
    ),
    "check_module": lambda h, act: modsmash.check_module(act.side, _alg(h), act),
    "check_module_hom_algebra": lambda h, a, act: modsmash.check_module_hom_algebra(
        act.side, h, a, act
    ),
    "check_comodule": lambda c, co: modsmash.check_comodule(co.side, _coalg(c), co),
    "check_comodule_hom_algebra": lambda h, d, co: modsmash.check_comodule_hom_algebra(
        co.side, h, _alg(d), co
    ),
    "check_bicomodule": lambda c, lam, rho: modsmash.check_bicomodule(_coalg(c), lam, rho),
    "check_yetter_drinfeld": lambda h, act, co: modsmash.check_yetter_drinfeld(h, act, co),
}

CONSTRUCT_VERBS = {
    "yau_twist_algebra": lambda a, f: algebra.yau_twist_algebra(_alg(a), f),
    "yau_twist_coalgebra": lambda c, f: coalgebra.yau_twist_coalgebra(_coalg(c), f),
    "yau_twist_bialgebra": lambda h, f: coalgebra.yau_twist_bialgebra(h, f),
    "tensor_algebra": lambda a, b: algebra.tensor_algebra(_alg(a), _alg(b)),
    "ttp": lambda a, b, r: twisted.ttp(_alg(a), _alg(b), r),
    "hom_ttp": lambda a, b, r: twisted.hom_ttp(_alg(a), _alg(b), r),
    "twistor_from_R": lambda a, b, r: twisted.twistor_from_R(_alg(a), _alg(b), r),
    "hom_twistor_from_R": lambda a, b, r: twisted.hom_twistor_from_R(_alg(a), _alg(b), r),
    "deform": lambda d, t: twistor.deform(_alg(d), t, verified="manifest"),
    "lift_13": lambda t: twistor.lift_13(t),
    "smash_left": lambda a, h, act: dict(
        zip(("R", "algebra"), modsmash.smash_left(a, h, act))
    ),
    "smash_right": lambda h, c, act: dict(
        zip(("R", "algebra"), modsmash.smash_right(h, c, act))
    ),
    "iterated_ttp": lambda a, b, c, r1, r2, r3: dict(
        zip(("algebra", "P1", "P2"), twisted.iterated_ttp(a, b, c, r1, r2, r3))
    ),
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _no_duplicates(pairs):
    seen = {}
    for k, v in pairs:
        if k in seen:
            raise DuplicateName(f"duplicate name {k!r}")
        seen[k] = v
    return seen


def parse_manifest(text):
    """Parse and semantically validate a manifest; builds every object."""
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ManifestSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(raw, dict):
        raise WrongKind("manifest root must be a JSON object")
    unknown = sorted(set(raw) - {"objects", "tasks"})
    if unknown:
        raise WrongKind(f"manifest has unknown top-level fields {unknown}")
    raw_objects = raw.get("objects", {})
    raw_tasks = raw.get("tasks", [])

    defs = {}
    objects = {}
    for name, objdef in raw_objects.items():
        if "." in name:
            raise WrongKind(f"object name {name!r} may not contain '.'")
        defs[name] = _normalize_def(name, objdef)
        built = _build_object(name, objdef)
        objects[name] = built
        if isinstance(built, dict):  # gallery bundle: bind dotted members
            for member, value in built.items():
                if member != "provenance":
                    objects[f"{name}.{member}"] = value

    tasks = []
    available = set(objects)
    for i, rawtask in enumerate(raw_tasks):
        where = f"task {i + 1}"
        if not isinstance(rawtask, dict):
            raise WrongKind(f"{where}: must be a JSON object")
        unknown = sorted(set(rawtask) - {"op", "args", "as", "expect"})
        if unknown:
            raise WrongKind(f"{where}: unknown fields {unknown}")
        op = rawtask.get("op")
        if op not in CHECK_VERBS and op not in CONSTRUCT_VERBS:
            raise UnknownName(f"{where}: unknown op {op!r}")
        args = rawtask.get("args", [])
        if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
            raise WrongKind(f"{where}: args must be a list of object names")
        for a in args:
            if a not in available:
                raise UnknownName(f"{where}: undefined name {a!r}")
        store = rawtask.get("as")
        if store is not None:
            if not isinstance(store, str) or "." in store:
                raise WrongKind(f"{where}: 'as' must be a plain name")
            if store in available:
                raise DuplicateName(f"{where}: name {store!r} already defined")
            available.add(store)
        expect = rawtask.get("expect", "pass")
        if expect not in EXPECTATIONS:
            raise WrongKind(f"{where}: expect must be one of {EXPECTATIONS}")
        if op in CHECK_VERBS and store is not None:
            raise WrongKind(f"{where}: check ops do not bind a result")
        tasks.append(Task(op, tuple(args), store, expect))
    return Manifest(defs, objects, tuple(tasks))


def serialize_manifest(manifest):
    """Canonical JSON text; parse(serialize(m)) == m."""
    tasks = []
    for t in manifest.tasks:
        item = {"op": t.op, "args": list(t.args)}
        if t.store is not None:
            item["as"] = t.store
        item["expect"] = t.expect
        tasks.append(item)
    return json.dumps({"objects": manifest.defs, "tasks": tasks}, indent=2)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _execute(task, env):
    """Run one task against `env`, binding a construct's result; returns (outcome, witnesses).

    A construct that fails leaves its name unbound, so a later task that uses
    the name fails too.
    """
    unbound = [a for a in task.args if a not in env]
    if unbound:
        return "fail", [f"UnknownName: undefined name {unbound[0]!r} (its construct task failed)"]
    args = [env[a] for a in task.args]
    try:
        if task.op in CHECK_VERBS:
            report = CHECK_VERBS[task.op](*args)
            return ("pass" if report.passed else "fail"), [str(f) for f in report.failures[:3]]
        result = CONSTRUCT_VERBS[task.op](*args)
    except HomTwistError as exc:
        return "fail", [f"{type(exc).__name__}: {exc}"]
    if task.store is not None:
        env[task.store] = result
        if isinstance(result, dict):
            for member, value in result.items():
                env[f"{task.store}.{member}"] = value
    return "pass", []


def run(manifest):
    """Execute tasks in order; returns (exit_code, report_text)."""
    env = dict(manifest.objects)
    lines = []
    all_met = True
    for i, task in enumerate(manifest.tasks, start=1):
        outcome, witnesses = _execute(task, env)
        met = task.expect == "any" or outcome == task.expect
        all_met = all_met and met
        status = "OK" if met else "EXPECTATION FAILED"
        lines.append(
            f"task {i}: {task.op}({', '.join(task.args)}) -> {outcome} "
            f"(expected {task.expect}) {status}"
        )
        for w in witnesses:
            lines.append(f"    witness: {w}")
    lines.append("all expectations met" if all_met else "some expectations were not met")
    return (EXIT_OK if all_met else EXIT_EXPECTATION), "\n".join(lines)


# ---------------------------------------------------------------------------
# table printing
# ---------------------------------------------------------------------------


def _format_combo(vec):
    parts = []
    for k, c in enumerate(vec):
        if not c:
            continue
        parts.append(f"e{k}" if c == 1 else f"{c}*e{k}")
    return " + ".join(parts) if parts else "0"


def table(manifest, name):
    """The basis-pair multiplication table of a named algebra; rows are left factors.

    Names bound by construct tasks are visible, so a manifest can build a
    twisted tensor product and print its table.  Check tasks are skipped; a
    construct task that fails leaves its name unbound.
    """
    env = dict(manifest.objects)
    for task in manifest.tasks:
        if task.op in CONSTRUCT_VERBS and task.store is not None:
            _execute(task, env)
    if name not in env:
        raise UnknownName(f"undefined name {name!r}")
    obj = env[name]
    if isinstance(obj, HomBialgebra):
        obj = obj.algebra
    if not isinstance(obj, HomAlgebra):
        raise WrongKind(f"{name!r} is not an algebra (got {type(obj).__name__})")
    d = obj.dim
    cells = [[_format_combo(obj.mul[i][j]) for j in range(d)] for i in range(d)]
    headers = [f"e{j}" for j in range(d)]
    width0 = max([len(h) for h in headers] + [1])
    widths = [
        max([len(headers[j])] + [len(cells[i][j]) for i in range(d)]) for j in range(d)
    ]
    lines = [
        " " * width0 + " | " + " | ".join(headers[j].ljust(widths[j]) for j in range(d))
    ]
    lines.append("-" * len(lines[0]))
    for i in range(d):
        lines.append(
            headers[i].ljust(width0)
            + " | "
            + " | ".join(cells[i][j].ljust(widths[j]) for j in range(d))
        )
    return "\n".join(lines)
