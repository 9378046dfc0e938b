"""Int instances of the symbolic U_q(sl2) scans, and the int references they meet.

`check_uq_module_hom_algebra` and `verify_smash_closed_forms` scan one
symbolic basis each.  `recorded` runs one with `uqsl2._scan_eq` patched to
keep each equation (equation, basis, lhs, rhs), and `scan_instances` expands
those records at int exponents with `formal.instance` into one `Scan`, under
the failure cap.  `module_instances` and `closed_form_instances` expand in the
order the scans once ran their int instances: each module equation over the
plane monomials of degree <= a bound (pairs of them for
``module_algebra_compat``), and the 24 closed forms at each (m, n, r, s) in
``range(bounds + 1)`` in turn.

The references compute at int exponents without the formal ring:
`loop_check_uq_module_hom_algebra` is the module scan as the loop it was
before it tabulated its monomial images, over a given list of plane
monomials (`plane_monomials` of a bound, or the witness box); it forms each
distinct rho_l image once per call, and its equations are unchanged.
`smash_product_left` puts the
int-exponent `smash_mul_uq` on the left of each closed form.  Both read
`uqsl2.rho_l` and `uqsl2.smash_mul_uq` at call time, so a patched one reaches
them.  `_terms` prints a failure's terms as both pins store them.
"""

import dataclasses
import itertools

import pytest

from homtwist import formal, uqsl2
from homtwist.exact import Scan
from homtwist.uqsl2 import (
    GEN_MONOMIAL,
    MON_E,
    MON_F,
    MON_K,
    MON_KINV,
    UNIT,
    QPlaneElement,
    SmashTerm,
    UqElement,
    coproduct_alpha,
    mu_alpha,
    qp_beta,
    qp_mul,
    uq_alpha,
)

CLOSED_FORM_ROW = "smash_closed_form_row_"
ROW_MONOMIAL = {"K": MON_K, "Kinv": MON_KINV, "E": MON_E, "F": MON_F}
RIGHT_FACTOR = {"1": UNIT, "E": MON_E, "F": MON_F, "K": MON_K, "Kinv": MON_KINV, "EK": (0, 1, 1)}


def plane_monomials(bound):
    """The plane monomials (m, n) of degree <= bound, by degree and then m."""
    return [(m, total - m) for total in range(bound + 1) for m in range(total + 1)]


def _terms(terms):
    """A failure's (key, value) terms as the pins store them: one "key: value" string each."""
    return [f"{key}: {value}" for key, value in terms]


def recorded(check, params):
    """The symbolic equations check(params) scans, in order, as (equation, basis, lhs, rhs).

    The check's report is not read, so its witness search is skipped: no
    HomTwistError for a mismatch without witnesses can interrupt the record.
    """
    records = []
    scan_eq = uqsl2._scan_eq

    def recording_scan_eq(scan, equation, basis, lhs, rhs):
        records.append((equation, basis, lhs, rhs))
        scan_eq(scan, equation, basis, lhs, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uqsl2, "_scan_eq", recording_scan_eq)
        mp.setattr(uqsl2, "witnessed", lambda report, bases, cls: report)
        check(params)
    return records


def scan_instances(pairs, params, left=None):
    """One Scan over (record, env) pairs: each record's sides at params and the exponents env.

    ``left(equation, basis, lhs)``, given, replaces each instantiated left
    side.  Returns the report and each instance's (equation, basis, whether
    its sides differ), in order.
    """
    bases = (params.q, params.lam, params.xi)
    scan, instances = Scan(), []
    for (equation, basis, lhs, rhs), env in pairs:
        env = {"l": params.l, **env}
        at = formal.substitute(basis, env, bases)
        lhs, rhs = (formal.instance(side, env, bases) for side in (lhs, rhs))
        if left:
            lhs = left(equation, at, lhs)
        instances.append((equation, at, lhs != rhs))
        uqsl2._scan_eq(scan, equation, at, lhs, rhs)
    return scan.done(), instances


def module_instances(params, bound):
    """The module scan's instances at params over the plane degrees <= bound."""
    planes = plane_monomials(bound)
    singles = [{"m": m, "n": n} for m, n in planes]
    pairs = [dict(zip("mnrs", mn + rs)) for mn, rs in itertools.product(planes, repeat=2)]
    return scan_instances(
        [
            (record, env)
            for record in recorded(uqsl2.check_uq_module_hom_algebra, params)
            for env in (pairs if record[0] == "module_algebra_compat" else singles)
        ],
        params,
    )


def closed_form_instances(params, bounds, left=None):
    """The closed-form scan's instances at params over m, n, r, s in range(bounds + 1)."""
    records = recorded(uqsl2.verify_smash_closed_forms, params)
    exponents = itertools.product(range(bounds + 1), repeat=4)
    envs = [dict(zip("mnrs", mnrs)) for mnrs in exponents]
    return scan_instances([(record, env) for env in envs for record in records], params, left)


def smash_product_left(params):
    """A `left` for `closed_form_instances`: the row times G by the int-exponent smash_mul_uq."""

    def left(equation, basis, lhs):
        m, n, r, s, gname = basis
        row = SmashTerm.monomial(((m, n), ROW_MONOMIAL[equation.removeprefix(CLOSED_FORM_ROW)]))
        return uqsl2.smash_mul_uq(row, SmashTerm.monomial(((r, s), RIGHT_FACTOR[gname])), params)

    return left


def box_planes():
    """The plane monomials (m, n) with m and n below ``formal.WITNESS_BOX``."""
    return list(itertools.product(range(formal.WITNESS_BOX), repeat=2))


def at_level(failures, l):
    """The witnesses at level l: those naming it, with the name dropped, and those naming none."""
    out = set()
    for f in failures:
        if f.basis[-1] == f"l={l}":
            out.add(dataclasses.replace(f, basis=f.basis[:-1]))
        elif not str(f.basis[-1]).startswith("l="):
            out.add(f)
    return out


# ---------------------------------------------------------------------------
# the module scan and mu_beta before the scan tabulated its monomial images
# and mu_beta summed memoized monomial products, kept verbatim as oracles
# ---------------------------------------------------------------------------


def mu_beta(p1, p2, params):
    """The Hom-quantum-plane multiplication beta o mu."""
    return qp_beta(qp_mul(p1, p2, params.q), 1, params)


def _each_image_once(rho_l):
    """`rho_l` forming each image once: the loop asks for rho_l(h1, p1) again for every p2."""
    images = {}

    def once(h, p, params):
        key = tuple(h.terms.items()), tuple(p.terms.items())
        if key not in images:
            images[key] = rho_l(h, p, params)
        return images[key]

    return once


def loop_check_uq_module_hom_algebra(params, monomials):
    rho_l = _each_image_once(uqsl2.rho_l)
    gens = {g: UqElement.monomial(mon) for g, mon in GEN_MONOMIAL.items()}
    planes = {mn: QPlaneElement.monomial(mn) for mn in monomials}
    scan = Scan()
    for gname, g in gens.items():
        ag = uq_alpha(g, 1, params.lam)
        for mn, p in planes.items():
            lhs = qp_beta(rho_l(g, p, params), 1, params)
            rhs = rho_l(ag, qp_beta(p, 1, params), params)
            scan.eq("module_alpha", (gname, mn), lhs.items(), rhs.items())
    for g1name, g1 in gens.items():
        ag1 = uq_alpha(g1, 1, params.lam)
        for g2name, g2 in gens.items():
            prod = mu_alpha(g1, g2, params)
            for mn, p in planes.items():
                lhs = rho_l(ag1, rho_l(g2, p, params), params)
                rhs = rho_l(prod, qp_beta(p, 1, params), params)
                scan.eq("module_assoc", (g1name, g2name, mn), lhs.items(), rhs.items())
    for gname, g in gens.items():
        a2g = uq_alpha(g, 2, params.lam)
        delta = coproduct_alpha(g, params)
        for mn1, p1 in planes.items():
            for mn2, p2 in planes.items():
                lhs = rho_l(a2g, mu_beta(p1, p2, params), params)
                rhs = QPlaneElement({})
                for (h1, h2), w in delta.terms.items():
                    term = mu_beta(
                        rho_l(UqElement.monomial(h1), p1, params),
                        rho_l(UqElement.monomial(h2), p2, params),
                        params,
                    )
                    for key, v in term.terms.items():
                        rhs.add_term(key, w * v)
                scan.eq("module_algebra_compat", (gname, mn1, mn2), lhs.items(), rhs.items())
    return scan.done()
