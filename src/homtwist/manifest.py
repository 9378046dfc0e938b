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

Two tables hold what parsing, execution and ``table`` need to know:
``OBJECT_KINDS`` gives each kind's builder and fields, and ``SIGNATURES`` each
op's layer module, argument kinds and result.  The verb tables are built from
``SIGNATURES``: each verb calls the layer function of the op's name on the
task's arguments, with no exception (a one-sided table carries its own side).
"""

import json
import re
from dataclasses import dataclass, field

from . import algebra, coalgebra, gallery, modsmash, twisted, twistor
from .algebra import HomAlgebra, hom_algebra
from .coalgebra import HomBialgebra, hom_coalgebra
from .errors import (
    DimensionMismatch,
    DuplicateName,
    HomTwistError,
    ManifestSyntaxError,
    UnknownName,
    WrongKind,
)
from .exact import LinearMap, rat_parse
from .modsmash import action_table, coaction_table
from .twisted import TwistingMapR
from .twistor import Operator2, Operator3

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


# ---------------------------------------------------------------------------
# scalar / array normalization
# ---------------------------------------------------------------------------


# Fields that hold nested arrays of scalars, with their nesting depth.
_SCALAR_FIELDS = {"mul": 3, "comul": 3, "table": 3, "alpha": 2, "alpha_m": 2, "matrix": 2}


def _scalar(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise WrongKind(f"{where}: scalar must be an integer or 'p/q' string")
    return rat_parse(str(value))


def _nested(value, depth, where):
    if depth == 0:
        return _scalar(value, where)
    if not isinstance(value, list):
        raise WrongKind(f"{where}: expected a nested array")
    return [_nested(v, depth - 1, where) for v in value]


def _nested_str(value, depth):
    if depth == 0:
        return str(value)
    return [_nested_str(v, depth - 1) for v in value]


def _parse_def(name, raw):
    """The definition with each scalar literal parsed, once, into a rational."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise WrongKind(f"object {name!r}: definition must carry a 'kind'")
    where = f"object {name!r}"
    out = {}
    for fieldname, value in raw.items():
        if fieldname in _SCALAR_FIELDS:
            out[fieldname] = _nested(value, _SCALAR_FIELDS[fieldname], where)
        elif fieldname == "params":
            if not isinstance(value, dict):
                raise WrongKind(f"{where}: params must be an object")
            out[fieldname] = {k: _scalar(v, where) for k, v in value.items()}
        else:
            out[fieldname] = value
    return out


def _canonical_def(parsed):
    """Canonical JSON form of a parsed definition (scalars as strings), for round-trips."""
    out = {"kind": parsed["kind"]}
    for fieldname, value in parsed.items():
        if fieldname in _SCALAR_FIELDS:
            out[fieldname] = _nested_str(value, _SCALAR_FIELDS[fieldname])
        elif fieldname == "params":
            out[fieldname] = {k: str(v) for k, v in value.items()}
        elif fieldname != "kind":
            out[fieldname] = value
    return out


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
        if "dim" in n.split("_"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise WrongKind(f"{where}: field {n!r} must be an integer")
            if value < 0:
                raise WrongKind(f"{where}: field {n!r} must not be negative")
        elif n == "side":
            if value not in ("left", "right"):
                raise WrongKind(f"{where}: side must be 'left' or 'right'")
        elif n == "name":
            if not isinstance(value, str):
                raise WrongKind(f"{where}: name must be a string")


def _hom_bialgebra(dim, mul, comul, alpha) -> HomBialgebra:
    return HomBialgebra(hom_algebra(dim, mul, alpha), hom_coalgebra(dim, comul, alpha))


def _linear_map(source_dim, target_dim, matrix) -> LinearMap:
    if matrix.shape != (target_dim, source_dim):
        raise DimensionMismatch("matrix shape does not match declared dims")
    return matrix


def _gallery(name, params) -> dict:
    return gallery.build(gallery.GalleryKey(name, params))


# kind -> (builder, fields): the builder takes the fields in order, each
# depth-2 scalar field as the LinearMap of its matrix, read once, and each
# depth-3 one as nested constants, which the builder reads once into its map.
# A builder that is not the class it builds names that class as its return
# annotation.
OBJECT_KINDS = {
    "hom_algebra": (hom_algebra, ("dim", "mul", "alpha")),
    "hom_coalgebra": (hom_coalgebra, ("dim", "comul", "alpha")),
    "hom_bialgebra": (_hom_bialgebra, ("dim", "mul", "comul", "alpha")),
    "linear_map": (_linear_map, ("source_dim", "target_dim", "matrix")),
    "operator2": (Operator2, ("dim", "matrix")),
    "operator3": (Operator3, ("dim", "matrix")),
    "twisting_map": (TwistingMapR, ("dim_a", "dim_b", "matrix")),
    "action": (action_table, ("side", "acting_dim", "module_dim", "table", "alpha_m")),
    "coaction": (coaction_table, ("side", "coalgebra_dim", "module_dim", "table", "alpha_m")),
    "gallery": (_gallery, ("name", "params")),
}

_KIND_OF_TYPE = {
    builder if isinstance(builder, type) else builder.__annotations__["return"]: kind
    for kind, (builder, _) in OBJECT_KINDS.items()
}


def _build_object(name, raw):
    """Build an object from its parsed definition (see _parse_def)."""
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in OBJECT_KINDS:
        raise WrongKind(f"object {name!r}: unknown kind {kind!r}")
    builder, fields = OBJECT_KINDS[kind]
    where = f"object {name!r} ({kind})"
    _require_fields(raw, where, *fields)
    # a matrix with no rows has no columns, except a linear_map's: source_dim of them
    values = [
        LinearMap.from_rows(raw[f], raw.get("source_dim", 0))
        if _SCALAR_FIELDS.get(f) == 2 else raw[f]
        for f in fields
    ]
    try:
        return builder(*values)
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# task verbs
# ---------------------------------------------------------------------------

# The kinds one argument accepts; the first is the one the verb takes, and a
# bialgebra stands in for its algebra or coalgebra (see _coerce).
_ALG = ("hom_algebra", "hom_bialgebra")
_COALG = ("hom_coalgebra", "hom_bialgebra")
_BIALG = ("hom_bialgebra",)
_MAP = ("linear_map",)
_OP2 = ("operator2",)
_OP3 = ("operator3",)
_R = ("twisting_map",)
_ACT = ("action",)
_COACT = ("coaction",)
# the bundle a smash product construct returns
_SMASH = {"R": "twisting_map", "algebra": "hom_algebra"}

# op -> (layer module, accepted kinds of each argument, kind of the result).  The
# layer function is the module attribute named after the op.  A check binds no
# result; a construct that returns several objects names each member, in the
# order it returns them, with its kind.
SIGNATURES = {
    "check_hom_algebra": (algebra, (_ALG,), None),
    "check_associative": (algebra, (_ALG,), None),
    "check_lemma_four_elements": (algebra, (_ALG,), None),
    "check_algebra_morphism": (algebra, (_MAP, _ALG, _ALG), None),
    "check_hom_coalgebra": (coalgebra, (_COALG,), None),
    "check_hom_bialgebra": (coalgebra, (_BIALG,), None),
    "check_twistor": (twistor, (_ALG, _OP2), None),
    "check_hom_twistor": (twistor, (_ALG, _OP2), None),
    "check_pseudotwistor": (twistor, (_ALG, _OP2, _OP3, _OP3), None),
    "check_hom_pseudotwistor": (twistor, (_ALG, _OP2, _OP3, _OP3), None),
    "check_alpha_pseudotwistor": (twistor, (_ALG, _MAP, _OP2, _OP3, _OP3), None),
    "check_yau_compat": (twistor, (_ALG, _MAP, _OP2, _OP3, _OP3), None),
    "check_twisting_map": (twisted, (_ALG, _ALG, _R), None),
    "check_hom_twisting_map": (twisted, (_ALG, _ALG, _R), None),
    "check_braid": (twisted, (_R, _R, _R), None),
    "check_alphaAB_twisting_map": (twisted, (_ALG, _ALG, _MAP, _MAP, _R), None),
    "check_deform_compat_ttp": (twisted, (_ALG, _ALG, _MAP, _MAP, _R), None),
    "check_module": (modsmash, (_ALG, _ACT), None),
    "check_module_hom_algebra": (modsmash, (_BIALG, _ALG, _ACT), None),
    "check_comodule": (modsmash, (_COALG, _COACT), None),
    "check_comodule_hom_algebra": (modsmash, (_BIALG, _ALG, _COACT), None),
    "check_bicomodule": (modsmash, (_COALG, _COACT, _COACT), None),
    "check_yetter_drinfeld": (modsmash, (_BIALG, _ACT, _COACT), None),
    "yau_twist_algebra": (algebra, (_ALG, _MAP), "hom_algebra"),
    "yau_twist_coalgebra": (coalgebra, (_COALG, _MAP), "hom_coalgebra"),
    "yau_twist_bialgebra": (coalgebra, (_BIALG, _MAP), "hom_bialgebra"),
    "tensor_algebra": (algebra, (_ALG, _ALG), "hom_algebra"),
    "ttp": (twisted, (_ALG, _ALG, _R), "hom_algebra"),
    "hom_ttp": (twisted, (_ALG, _ALG, _R), "hom_algebra"),
    "twistor_from_R": (twisted, (_ALG, _ALG, _R), "operator2"),
    "hom_twistor_from_R": (twisted, (_ALG, _ALG, _R), "operator2"),
    "deform": (twistor, (_ALG, _OP2), "hom_algebra"),
    "lift_13": (twistor, (_OP2,), "operator3"),
    "smash_left": (modsmash, (_ALG, _BIALG, _ACT), _SMASH),
    "smash_right": (modsmash, (_BIALG, _ALG, _ACT), _SMASH),
    "iterated_ttp": (
        twisted,
        (_ALG, _ALG, _ALG, _R, _R, _R),
        {"algebra": "hom_algebra", "P1": "twisting_map", "P2": "twisting_map"},
    ),
}


def _verb(module, op):
    """The verb that calls `module.op` on a task's arguments.

    The function is looked up on the module at call time, never stored, so a
    wrapper installed on the module sees the call.  Arguments arrive already
    coerced to the first kind of their slot in SIGNATURES, and every layer
    function takes exactly those.
    """
    return lambda *args: getattr(module, op)(*args)


CHECK_VERBS = {op: _verb(m, op) for op, (m, _, res) in SIGNATURES.items() if res is None}
CONSTRUCT_VERBS = {op: _verb(m, op) for op, (m, _, res) in SIGNATURES.items() if res is not None}

# The member of a bialgebra that stands in for it in a slot of this first kind.
_STAND_IN = {"hom_algebra": "algebra", "hom_coalgebra": "coalgebra"}


def _coerce(obj, accepted):
    """`obj` as the first of its `accepted` kinds: a bialgebra gives its algebra or coalgebra."""
    if isinstance(obj, HomBialgebra) and accepted[0] in _STAND_IN:
        return getattr(obj, _STAND_IN[accepted[0]])
    return obj


def _kind(obj):
    """The manifest kind of a built object; a gallery or construct bundle is a 'bundle'."""
    if isinstance(obj, dict):
        return "bundle"
    return _KIND_OF_TYPE.get(type(obj), type(obj).__name__)


def _check_signature(where, op, args, kinds):
    """WrongKind unless `args` (names bound to `kinds`) fit the signature of `op`."""
    _, accepted, _ = SIGNATURES[op]
    if len(args) != len(accepted):
        raise WrongKind(f"{where}: {op} takes {len(accepted)} arguments, got {len(args)}")
    for position, (a, ok) in enumerate(zip(args, accepted), start=1):
        if kinds[a] not in ok:
            raise WrongKind(
                f"{where}: argument {position} of {op} must be {' or '.join(ok)}, "
                f"got {a!r} ({kinds[a]})"
            )


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


# a string literal (possibly unterminated) or one bracket
_STRING_OR_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[][{}]', re.S)


def _deepest_bracket(text):
    """(line, column) of the first opening bracket at the greatest nesting depth.

    Brackets inside string literals do not count.
    """
    depth = deepest = where = 0
    for m in _STRING_OR_BRACKET.finditer(text):
        c = m.group()[0]
        if c in "[{":
            depth += 1
            if depth > deepest:
                deepest, where = depth, m.start()
        elif c in "]}":
            depth -= 1
    return text.count("\n", 0, where) + 1, where - text.rfind("\n", 0, where)


def parse_manifest(text):
    """Parse and semantically validate a manifest; builds every object."""
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ManifestSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ManifestSyntaxError("nesting too deep", *_deepest_bracket(text)) from exc
    if not isinstance(raw, dict):
        raise WrongKind("manifest root must be a JSON object")
    unknown = sorted(set(raw) - {"objects", "tasks"})
    if unknown:
        raise WrongKind(f"manifest has unknown top-level fields {unknown}")
    raw_objects = raw.get("objects", {})
    raw_tasks = raw.get("tasks", [])
    if not isinstance(raw_objects, dict):
        raise WrongKind("manifest 'objects' must be a JSON object")
    if not isinstance(raw_tasks, list):
        raise WrongKind("manifest 'tasks' must be a JSON array")

    defs = {}
    objects = {}
    for name, objdef in raw_objects.items():
        if "." in name:
            raise WrongKind(f"object name {name!r} may not contain '.'")
        parsed = _parse_def(name, objdef)
        defs[name] = _canonical_def(parsed)
        built = _build_object(name, parsed)
        objects[name] = built
        if isinstance(built, dict):  # gallery bundle: bind dotted members
            for member, value in built.items():
                objects[f"{name}.{member}"] = value

    tasks = []
    kinds = {name: _kind(obj) for name, obj in objects.items()}
    for i, rawtask in enumerate(raw_tasks):
        where = f"task {i + 1}"
        if not isinstance(rawtask, dict):
            raise WrongKind(f"{where}: must be a JSON object")
        unknown = sorted(set(rawtask) - {"op", "args", "as", "expect"})
        if unknown:
            raise WrongKind(f"{where}: unknown fields {unknown}")
        op = rawtask.get("op")
        if not isinstance(op, str) or op not in SIGNATURES:
            raise UnknownName(f"{where}: unknown op {op!r}")
        args = rawtask.get("args", [])
        if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
            raise WrongKind(f"{where}: args must be a list of object names")
        for a in args:
            if a not in kinds:
                raise UnknownName(f"{where}: undefined name {a!r}")
        _check_signature(where, op, args, kinds)
        store = rawtask.get("as")
        if store is not None:
            if not isinstance(store, str) or "." in store:
                raise WrongKind(f"{where}: 'as' must be a plain name")
            if store in kinds:
                raise DuplicateName(f"{where}: name {store!r} already defined")
            result = SIGNATURES[op][2]
            if isinstance(result, dict):
                kinds[store] = "bundle"
                kinds.update((f"{store}.{member}", k) for member, k in result.items())
            else:
                kinds[store] = result
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
    _, accepted, members = SIGNATURES[task.op]
    args = [_coerce(env[a], ok) for a, ok in zip(task.args, accepted)]
    try:
        if task.op in CHECK_VERBS:
            report = CHECK_VERBS[task.op](*args)
            return ("pass" if report.passed else "fail"), [str(f) for f in report.failures[:3]]
        result = CONSTRUCT_VERBS[task.op](*args)
    except HomTwistError as exc:
        return "fail", [f"{type(exc).__name__}: {exc}"]
    if isinstance(members, dict):
        result = dict(zip(members, result))
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
    twisted tensor product and print its table.  Construct tasks run in order
    only until `name` is bound, so none run for an object of the manifest;
    check tasks are skipped, and a construct task that fails leaves its name
    unbound.
    """
    env = dict(manifest.objects)
    for task in manifest.tasks:
        if name in env:
            break
        if task.op in CONSTRUCT_VERBS and task.store is not None:
            _execute(task, env)
    if name not in env:
        raise UnknownName(f"undefined name {name!r}")
    obj = _coerce(env[name], _ALG)
    if not isinstance(obj, HomAlgebra):
        raise WrongKind(f"{name!r} is not an algebra (got {_kind(obj)})")
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
